// runner::ResultCache edge cases: LRU order under a byte budget, corruption
// detection (tampered files must never be served), and restart reload of
// the on-disk store. Bodies here are plain tokens, not real trial JSON —
// the cache is content-agnostic; semantic verification is runner::memoize's
// job.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "fault/io_fault.hpp"
#include "runner/cache.hpp"
#include "runner/io.hpp"

namespace runner = retri::runner;
namespace fs = std::filesystem;

namespace {

class ServeCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("retri_runner_cache_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static std::string body_of(std::size_t bytes, char fill) {
    return std::string(bytes, fill);
  }

  static std::uint64_t counter(const runner::ResultCache& cache,
                               std::string_view name) {
    return cache.metrics().snapshot().counter(name);
  }

  fs::path dir_;
};

}  // namespace

TEST_F(ServeCacheTest, GetIsMetered) {
  runner::ResultCache cache(runner::CacheOptions{});

  EXPECT_FALSE(cache.get("k").has_value());
  cache.put("k", "kind", "fp", "body");
  const auto entry = cache.get("k");
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->kind, "kind");
  EXPECT_EQ(entry->fingerprint, "fp");
  EXPECT_EQ(entry->body, "body");

  EXPECT_EQ(counter(cache, "serve.cache.hit"), 1u);
  EXPECT_EQ(counter(cache, "serve.cache.miss"), 1u);
}

TEST_F(ServeCacheTest, LruEvictionOrderUnderByteBudget) {
  runner::CacheOptions options;
  options.byte_budget = 100;
  runner::ResultCache cache(options);

  cache.put("a", "k", "fa", body_of(40, 'a'));
  cache.put("b", "k", "fb", body_of(40, 'b'));
  ASSERT_TRUE(cache.get("a").has_value());  // refresh: a is now MRU
  cache.put("c", "k", "fc", body_of(40, 'c'));

  // 120 bytes against a 100-byte budget: the LRU entry — b, because a was
  // refreshed — must be the one evicted.
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.bytes(), 80u);
  EXPECT_EQ(counter(cache, "serve.cache.evict"), 1u);
  EXPECT_TRUE(cache.get("a").has_value());
  EXPECT_FALSE(cache.get("b").has_value());
  EXPECT_TRUE(cache.get("c").has_value());
}

TEST_F(ServeCacheTest, BodyLargerThanBudgetIsRejectedOutright) {
  runner::CacheOptions options;
  options.byte_budget = 10;
  runner::ResultCache cache(options);

  cache.put("big", "k", "f", body_of(11, 'x'));
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(counter(cache, "serve.cache.rejected"), 1u);
  EXPECT_FALSE(cache.get("big").has_value());
}

TEST_F(ServeCacheTest, RestartReloadsTheOnDiskStore) {
  runner::CacheOptions options;
  options.dir = dir_.string();
  {
    runner::ResultCache cache(options);
    cache.put("aaaa", "sweep-trial", "fp-a", "body-a");
    cache.put("bbbb", "sweep-trial", "fp-b", "body-b");
    cache.put("cccc", "chaos-trial", "fp-c", "body-c");
  }

  runner::ResultCache reloaded(options);
  EXPECT_EQ(reloaded.entries(), 3u);
  const auto b = reloaded.get("bbbb");
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->kind, "sweep-trial");
  EXPECT_EQ(b->fingerprint, "fp-b");
  EXPECT_EQ(b->body, "body-b");
  const auto c = reloaded.get("cccc");
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->kind, "chaos-trial");
}

TEST_F(ServeCacheTest, TamperedEntryIsRejectedAndQuarantined) {
  runner::CacheOptions options;
  options.dir = dir_.string();
  {
    runner::ResultCache cache(options);
    cache.put("feed", "sweep-trial", "fp", "body-AAAA");
    cache.put("f00d", "sweep-trial", "fp", "body-BBBB");
  }

  // Flip one body byte on disk without touching the recorded CRC. The
  // reload must treat the entry as corrupt — deleted, never served.
  const fs::path victim = dir_ / "feed.json";
  std::string text;
  {
    std::ifstream in(victim, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }
  const auto at = text.find("body-AAAA");
  ASSERT_NE(at, std::string::npos);
  text[at + 5] = 'Z';
  {
    std::ofstream out(victim, std::ios::binary | std::ios::trunc);
    out << text;
  }

  runner::ResultCache reloaded(options);
  EXPECT_FALSE(fs::exists(victim));  // quarantined by deletion
  EXPECT_EQ(counter(reloaded, "serve.cache.corrupt"), 1u);
  EXPECT_FALSE(reloaded.get("feed").has_value());
  EXPECT_TRUE(reloaded.get("f00d").has_value());
}

TEST_F(ServeCacheTest, ForeignFileIsQuarantinedOnLoad) {
  fs::create_directories(dir_);
  {
    std::ofstream out(dir_ / "junk.json", std::ios::binary);
    out << "this is not a cache entry\n";
  }
  runner::CacheOptions options;
  options.dir = dir_.string();
  runner::ResultCache cache(options);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_FALSE(fs::exists(dir_ / "junk.json"));
}

TEST_F(ServeCacheTest, InvalidateRemovesMemoryAndDisk) {
  runner::CacheOptions options;
  options.dir = dir_.string();
  runner::ResultCache cache(options);
  cache.put("gone", "k", "f", "body");
  ASSERT_TRUE(fs::exists(dir_ / "gone.json"));
  cache.invalidate("gone");
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_FALSE(fs::exists(dir_ / "gone.json"));
}

TEST_F(ServeCacheTest, ShrunkBudgetTrimsTheReloadedStore) {
  runner::CacheOptions options;
  options.dir = dir_.string();
  {
    runner::ResultCache cache(options);
    cache.put("k1", "k", "f", body_of(40, '1'));
    cache.put("k2", "k", "f", body_of(40, '2'));
    cache.put("k3", "k", "f", body_of(40, '3'));
  }
  runner::CacheOptions shrunk = options;
  shrunk.byte_budget = 50;
  runner::ResultCache reloaded(shrunk);
  EXPECT_LE(reloaded.bytes(), 50u);
  EXPECT_EQ(reloaded.entries(), 1u);
}

TEST(ServeCacheKey, DependsOnCodeVersionAndCell) {
  const std::string cell = R"({"senders":5,"seed":42})";
  const std::string k1 = runner::ResultCache::make_key("v1", cell);
  const std::string k2 = runner::ResultCache::make_key("v2", cell);
  const std::string k3 =
      runner::ResultCache::make_key("v1", R"({"senders":5,"seed":43})");
  EXPECT_EQ(k1.size(), 16u);
  EXPECT_NE(k1, k2);  // a code bump makes every old entry unreachable
  EXPECT_NE(k1, k3);  // any cell change re-addresses the result
  EXPECT_EQ(k1, runner::ResultCache::make_key("v1", cell));  // stable
}

// --- crash-point suite -----------------------------------------------------
// For every named point in the atomic store path, a put() killed exactly
// there must leave the restarted cache with the OLD entry or the NEW one —
// never a torn hybrid, never nothing — and any orphaned *.tmp quarantined.

TEST_F(ServeCacheTest, CrashAtEveryPointNeverTearsTheStore) {
  const std::string key = "crashcell";
  const std::string body_v1 = "version-one-" + body_of(64, 'a');
  const std::string body_v2 = "version-two-" + body_of(64, 'b');

  for (const std::string_view point : runner::kCrashPoints) {
    SCOPED_TRACE(std::string(point));
    fs::remove_all(dir_);
    fs::create_directories(dir_);

    // Baseline: v1 committed atomically, no faults.
    {
      runner::CacheOptions options;
      options.dir = dir_.string();
      runner::ResultCache cache(options);
      cache.put(key, "kind", "fp1", body_v1);
    }

    // Overwrite with the crash point armed. CrashPointHit unwinds like a
    // SIGKILL: nothing on the way out may clean up partial state.
    {
      retri::fault::IoFaultPlan plan;
      plan.crash_at = std::string(point);
      retri::fault::IoFaultInjector injector(plan, 7);
      runner::CacheOptions options;
      options.dir = dir_.string();
      options.io_faults = &injector;
      runner::ResultCache cache(options);
      EXPECT_THROW(cache.put(key, "kind", "fp2", body_v2),
                   retri::fault::CrashPointHit);
    }

    // The restarted process.
    runner::CacheOptions options;
    options.dir = dir_.string();
    runner::ResultCache reloaded(options);
    const auto entry = reloaded.get(key);
    ASSERT_TRUE(entry.has_value()) << "old entry lost at " << point;
    if (point == "serve.io.renamed") {
      // The rename committed before the kill: the new body must be live.
      EXPECT_EQ(entry->body, body_v2);
    } else {
      // Killed before the rename: the old body must be untouched.
      EXPECT_EQ(entry->body, body_v1);
    }

    // Whatever the kill left behind, the reload swept it: no *.tmp
    // remains, and the quarantine counter reports any sweep it did.
    for (const auto& file : fs::directory_iterator(dir_)) {
      EXPECT_NE(file.path().extension(), ".tmp")
          << file.path() << " survived reload";
    }
    // Every pre-rename kill leaves the tmp behind (the point fires after
    // the open, so even "tmp_open" leaves an empty one); the rename itself
    // moves it away.
    const bool tmp_was_left = point != "serve.io.renamed";
    EXPECT_EQ(counter(reloaded, "serve.cache.quarantined"),
              tmp_was_left ? 1u : 0u);
  }
}

TEST_F(ServeCacheTest, InjectedEnospcKeepsEntryMemoryOnly) {
  retri::fault::IoFaultPlan plan;
  plan.enospc_prob = 1.0;
  retri::fault::IoFaultInjector injector(plan, 7);
  runner::CacheOptions options;
  options.dir = dir_.string();
  options.io_faults = &injector;
  runner::ResultCache cache(options);
  cache.put("k", "kind", "fp", "body");
  // The put itself succeeds in memory; the persist failure is metered and
  // the torn tmp is invisible under the final name.
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_FALSE(fs::exists(dir_ / "k.json"));

  // A restart misses (the entry was never durable) and quarantines the
  // torn tmp the failed write left behind.
  runner::ResultCache reloaded(runner::CacheOptions{dir_.string()});
  EXPECT_EQ(counter(reloaded, "serve.cache.quarantined"), 1u);
  EXPECT_FALSE(reloaded.get("k").has_value());
}
