// runner::memoize through its two callers: a sweep given a store must be
// bit-identical to the same sweep without one, cold and warm, for any jobs
// value, and a warm run simulates nothing; an entry whose body drifted from
// its fingerprint label is invalidated and re-simulated, never served; and
// growing a sweep's trial count simulates only the new trials. A chaos soak
// given a store takes the same path and must match the soak without one.
// On a toy cell kind: each cell is committed as it finishes, so a batch
// that dies keeps every cell it finished.
#include <gtest/gtest.h>

#include <charconv>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "runner/cache.hpp"
#include "runner/chaos.hpp"
#include "runner/codec.hpp"
#include "runner/memo.hpp"
#include "runner/result_sink.hpp"
#include "runner/seeds.hpp"
#include "runner/sweep.hpp"
#include "sim/time.hpp"
#include "util/result.hpp"

namespace runner = retri::runner;
namespace fs = std::filesystem;

namespace {

/// 2 points x 2 trials of a fast experiment: 4 cells, ~100ms total.
runner::SweepSpec tiny_spec() {
  runner::SweepSpec spec;
  spec.name = "memo-test";
  spec.description = "tiny grid for memo tests";
  spec.trials = 2;
  spec.base.senders = 2;
  spec.base.seed = 7;
  spec.base.send_duration = retri::sim::Duration::milliseconds(300);
  spec.base.drain_extra = retri::sim::Duration::milliseconds(200);
  spec.id_bits = {2, 3};
  return spec;
}

std::string local_artifact(const runner::SweepSpec& spec) {
  return runner::ResultSink::to_json(
      runner::SweepRunner(runner::SweepOptions{}).run(spec));
}

/// Store key of sweep cell (point, trial), derived the way SweepRunner
/// derives it.
std::string cell_key(const runner::SweepSpec& spec, std::size_t point,
                     unsigned trial) {
  runner::ExperimentConfig config = spec.expand()[point].config;
  config.seed = runner::derive_trial_seed(config.seed, trial);
  return runner::ResultCache::make_key(runner::kCodeVersion,
                                       runner::canonical_cell(config));
}

/// File name → contents of every entry in a store directory.
std::map<std::string, std::string> store_files(const fs::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    files[entry.path().filename().string()] = buf.str();
  }
  return files;
}

/// A toy cell: its record is value * 10, unless `fails` makes the
/// simulation throw. The key covers only the value, so a failing cell and
/// its retry share one key.
struct ToyCell {
  int value = 0;
  bool fails = false;
};

retri::util::Result<int, std::string> decode_toy(std::string_view body) {
  int value = 0;
  const char* end = body.data() + body.size();
  const auto parsed = std::from_chars(body.data(), end, value);
  if (parsed.ec != std::errc{} || parsed.ptr != end) {
    return std::string("bad toy body");
  }
  return value;
}

const runner::CellKind<ToyCell, int> kToyCell{
    "toy-cell",
    [](const ToyCell& cell) { return std::to_string(cell.value); },
    [](const ToyCell& cell) {
      if (cell.fails) throw std::runtime_error("toy simulation failed");
      return cell.value * 10;
    },
    [](const int& record) { return std::to_string(record); },
    decode_toy,
    [](const int& record) { return "toy-" + std::to_string(record); },
};

class MemoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("retri_runner_memo_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  std::string store() const { return (root_ / "store").string(); }

  /// The sweep at `jobs` workers, given the store.
  runner::SweepResult cached_sweep(const runner::SweepSpec& spec,
                                   unsigned jobs = 1) const {
    runner::SweepOptions options;
    options.jobs = jobs;
    options.cache_dir = store();
    return runner::SweepRunner(options).run(spec);
  }

  fs::path root_;
};

}  // namespace

TEST_F(MemoTest, ColdAndWarmArtifactsMatchSweepRunnerAtJobs1And4) {
  const runner::SweepSpec spec = tiny_spec();
  const std::string local = local_artifact(spec);

  for (const unsigned jobs : {1u, 4u}) {
    fs::remove_all(root_);
    std::size_t points_seen = 0;
    runner::SweepOptions options;
    options.jobs = jobs;
    options.cache_dir = store();
    options.on_point_done = [&points_seen](const runner::SweepProgress& p) {
      EXPECT_EQ(p.points_total, 2u);
      ++points_seen;
    };
    const runner::SweepResult cold = runner::SweepRunner(options).run(spec);
    EXPECT_EQ(cold.memo.hits, 0u) << "jobs " << jobs;
    EXPECT_EQ(cold.memo.simulated, 4u) << "jobs " << jobs;
    EXPECT_EQ(runner::ResultSink::to_json(cold), local) << "jobs " << jobs;

    // The warm run simulates nothing, so it commits nothing either: the
    // store is byte-for-byte what the cold run left. Points served from
    // the store still report their progress.
    const auto files = store_files(store());
    ASSERT_EQ(files.size(), 4u);
    const runner::SweepResult warm = runner::SweepRunner(options).run(spec);
    EXPECT_EQ(warm.memo.hits, 4u) << "jobs " << jobs;
    EXPECT_EQ(warm.memo.simulated, 0u) << "jobs " << jobs;
    EXPECT_EQ(runner::ResultSink::to_json(warm), local) << "jobs " << jobs;
    EXPECT_EQ(store_files(store()), files) << "jobs " << jobs;
    EXPECT_EQ(points_seen, 4u) << "jobs " << jobs;
  }

  // Without a store nothing is served and every cell is simulated.
  const runner::SweepResult uncached =
      runner::SweepRunner(runner::SweepOptions{}).run(spec);
  EXPECT_EQ(uncached.memo.hits, 0u);
  EXPECT_EQ(uncached.memo.simulated, 4u);
}

TEST_F(MemoTest, DriftedCacheEntryIsInvalidatedAndReSimulated) {
  const runner::SweepSpec spec = tiny_spec();
  const std::string local = local_artifact(spec);
  (void)cached_sweep(spec);

  // Two entries whose CRCs are valid (put() recomputes them) but whose
  // bodies no longer match their fingerprint labels — what a semantics-
  // drifting bug would leave behind:
  //   cell (0, 0): the body changed under its original label;
  //   cell (1, 1): the body is intact but the label changed.
  const std::string drifted_body = cell_key(spec, 0, 0);
  const std::string relabeled = cell_key(spec, 1, 1);
  {
    runner::ResultCache cache(runner::CacheOptions{store()});
    auto entry = cache.get(drifted_body);
    ASSERT_TRUE(entry.has_value());
    auto decoded = runner::decode_result_text(entry->body);
    ASSERT_TRUE(decoded.ok()) << decoded.error();
    runner::ExperimentResult result = std::move(decoded).value();
    result.aff_delivered += 1;
    cache.put(drifted_body, entry->kind, entry->fingerprint,
              runner::encode_result(result));

    entry = cache.get(relabeled);
    ASSERT_TRUE(entry.has_value());
    cache.put(relabeled, entry->kind, "drifted-fingerprint", entry->body);
  }

  const runner::SweepResult rerun = cached_sweep(spec);
  EXPECT_EQ(rerun.memo.hits, 2u);
  EXPECT_EQ(rerun.memo.simulated, 2u);
  EXPECT_EQ(runner::ResultSink::to_json(rerun), local);

  // The re-simulated cells were committed afresh, so the next run hits all.
  const runner::SweepResult warm = cached_sweep(spec);
  EXPECT_EQ(warm.memo.hits, 4u);
  EXPECT_EQ(runner::ResultSink::to_json(warm), local);
}

TEST_F(MemoTest, MoreTrialsSimulateOnlyTheNewTrials) {
  runner::SweepSpec spec = tiny_spec();
  (void)cached_sweep(spec);

  // Trial t's seed depends only on (point seed, t), so growing the trial
  // count keeps every committed cell's key: only trial 2 of each point is
  // new.
  spec.trials = 3;
  const runner::SweepResult grown = cached_sweep(spec, 4);
  EXPECT_EQ(grown.memo.hits, 4u);
  EXPECT_EQ(grown.memo.simulated, 2u);
  EXPECT_EQ(runner::ResultSink::to_json(grown), local_artifact(spec));
}

TEST_F(MemoTest, CachedChaosSoakMatchesTheUncachedSoak) {
  runner::ChaosTrialConfig base;
  base.senders = 3;
  base.id_bits = 6;
  base.send_duration = retri::sim::Duration::milliseconds(500);
  base.seed = 3;
  constexpr unsigned kSeeds = 3;

  runner::ChaosSoakOptions options;
  options.seeds = kSeeds;
  const runner::ChaosSoakResult uncached =
      runner::run_chaos_soak(base, options);
  EXPECT_EQ(uncached.memo.hits, 0u);
  EXPECT_EQ(uncached.memo.simulated, kSeeds);
  std::vector<runner::ChaosCellRecord> expected;
  for (unsigned i = 0; i < kSeeds; ++i) {
    runner::ChaosTrialConfig config = base;
    config.seed = runner::derive_trial_seed(base.seed, i);
    expected.push_back(runner::project(runner::run_chaos_trial(config)));
  }
  EXPECT_EQ(uncached.records, expected);

  options.cache_dir = store();
  options.jobs = 2;
  const runner::ChaosSoakResult cold = runner::run_chaos_soak(base, options);
  EXPECT_EQ(cold.memo.simulated, kSeeds);
  EXPECT_EQ(cold.records, expected);

  options.jobs = 1;
  const runner::ChaosSoakResult warm = runner::run_chaos_soak(base, options);
  EXPECT_EQ(warm.memo.hits, kSeeds);
  EXPECT_EQ(warm.memo.simulated, 0u);
  EXPECT_EQ(warm.records, expected);
}

TEST_F(MemoTest, ThrowingCellKeepsEveryCellFinishedBeforeIt) {
  std::vector<ToyCell> cells(6);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    cells[i].value = static_cast<int>(i);
  }
  cells[3].fails = true;
  std::vector<int> out;
  EXPECT_THROW(runner::memoize(kToyCell, cells, store(), 1, out),
               std::runtime_error);

  // Inline, the batch stopped at cell 3; cells 0-2 were committed as each
  // finished, so the retry serves them and simulates only 3-5.
  cells[3].fails = false;
  const runner::MemoStats retry =
      runner::memoize(kToyCell, cells, store(), 1, out);
  EXPECT_EQ(retry.hits, 3u);
  EXPECT_EQ(retry.simulated, 3u);
  EXPECT_EQ(out, (std::vector<int>{0, 10, 20, 30, 40, 50}));
}
