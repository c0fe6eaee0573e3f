// serve::memoize through its two producers: the cached sweep must be
// bit-identical to runner::SweepRunner cold and warm, for any jobs value,
// and a warm run simulates nothing; an entry whose body drifted from its
// fingerprint label is invalidated and re-simulated, never served; and
// growing a sweep's trial count simulates only the new trials. The cached
// chaos soak takes the same path and must match the uncached soak.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "runner/chaos.hpp"
#include "runner/codec.hpp"
#include "runner/result_sink.hpp"
#include "runner/seeds.hpp"
#include "runner/sweep.hpp"
#include "serve/cache.hpp"
#include "serve/chaos_cells.hpp"
#include "serve/memo.hpp"
#include "sim/time.hpp"

namespace serve = retri::serve;
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

/// Store key of sweep cell (point, trial), derived the way the cached
/// sweep derives it.
std::string cell_key(const runner::SweepSpec& spec, std::size_t point,
                     unsigned trial) {
  runner::ExperimentConfig config = spec.expand()[point].config;
  config.seed = runner::derive_trial_seed(config.seed, trial);
  return serve::ResultCache::make_key(serve::kCodeVersion,
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

class MemoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("retri_serve_memo_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  serve::MemoOptions options(unsigned jobs = 1) const {
    serve::MemoOptions memo;
    memo.cache_dir = (root_ / "store").string();
    memo.jobs = jobs;
    return memo;
  }

  fs::path root_;
};

}  // namespace

TEST_F(MemoTest, ColdAndWarmArtifactsMatchSweepRunnerAtJobs1And4) {
  const runner::SweepSpec spec = tiny_spec();
  const std::string local = local_artifact(spec);

  for (const unsigned jobs : {1u, 4u}) {
    fs::remove_all(root_);
    const serve::CachedSweep cold =
        serve::run_cached_sweep(spec, options(jobs));
    EXPECT_EQ(cold.stats.hits, 0u) << "jobs " << jobs;
    EXPECT_EQ(cold.stats.misses, 4u) << "jobs " << jobs;
    EXPECT_EQ(runner::ResultSink::to_json(cold.result), local)
        << "jobs " << jobs;

    // The warm run simulates nothing, so it commits nothing either: the
    // store is byte-for-byte what the cold run left.
    const auto store = store_files(root_ / "store");
    ASSERT_EQ(store.size(), 4u);
    const serve::CachedSweep warm =
        serve::run_cached_sweep(spec, options(jobs));
    EXPECT_EQ(warm.stats.hits, 4u) << "jobs " << jobs;
    EXPECT_EQ(warm.stats.misses, 0u) << "jobs " << jobs;
    EXPECT_EQ(runner::ResultSink::to_json(warm.result), local)
        << "jobs " << jobs;
    EXPECT_EQ(store_files(root_ / "store"), store) << "jobs " << jobs;
  }
}

TEST_F(MemoTest, DriftedCacheEntryIsInvalidatedAndReSimulated) {
  const runner::SweepSpec spec = tiny_spec();
  const std::string local = local_artifact(spec);
  (void)serve::run_cached_sweep(spec, options());

  // Two entries whose CRCs are valid (put() recomputes them) but whose
  // bodies no longer match their fingerprint labels — what a semantics-
  // drifting bug would leave behind:
  //   cell (0, 0): the body changed under its original label;
  //   cell (1, 1): the body is intact but the label changed.
  const std::string drifted_body = cell_key(spec, 0, 0);
  const std::string relabeled = cell_key(spec, 1, 1);
  {
    serve::ResultCache cache(serve::CacheOptions{options().cache_dir});
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

  const serve::CachedSweep rerun = serve::run_cached_sweep(spec, options());
  EXPECT_EQ(rerun.stats.hits, 2u);
  EXPECT_EQ(rerun.stats.misses, 2u);
  EXPECT_EQ(runner::ResultSink::to_json(rerun.result), local);

  // The re-simulated cells were committed afresh, so the next run hits all.
  const serve::CachedSweep warm = serve::run_cached_sweep(spec, options());
  EXPECT_EQ(warm.stats.hits, 4u);
  EXPECT_EQ(runner::ResultSink::to_json(warm.result), local);
}

TEST_F(MemoTest, MoreTrialsSimulateOnlyTheNewTrials) {
  runner::SweepSpec spec = tiny_spec();
  (void)serve::run_cached_sweep(spec, options());

  // Trial t's seed depends only on (point seed, t), so growing the trial
  // count keeps every committed cell's key: only trial 2 of each point is
  // new.
  spec.trials = 3;
  const serve::CachedSweep grown = serve::run_cached_sweep(spec, options(4));
  EXPECT_EQ(grown.stats.hits, 4u);
  EXPECT_EQ(grown.stats.misses, 2u);
  EXPECT_EQ(runner::ResultSink::to_json(grown.result), local_artifact(spec));
}

TEST_F(MemoTest, CachedChaosSoakMatchesTheUncachedSoak) {
  runner::ChaosTrialConfig base;
  base.senders = 3;
  base.id_bits = 6;
  base.send_duration = retri::sim::Duration::milliseconds(500);
  base.seed = 3;
  constexpr unsigned kSeeds = 3;

  runner::ChaosSoakOptions soak_options;
  soak_options.seeds = kSeeds;
  std::vector<serve::ChaosCellRecord> expected;
  for (const auto& trial : runner::run_chaos_soak(base, soak_options)) {
    expected.push_back(serve::project(trial));
  }

  const serve::CachedChaosSoak cold =
      serve::run_cached_chaos_soak(base, kSeeds, options(2));
  EXPECT_EQ(cold.stats.misses, kSeeds);
  EXPECT_EQ(cold.records, expected);

  const serve::CachedChaosSoak warm =
      serve::run_cached_chaos_soak(base, kSeeds, options());
  EXPECT_EQ(warm.stats.hits, kSeeds);
  EXPECT_EQ(warm.stats.misses, 0u);
  EXPECT_EQ(warm.records, expected);
}
