// runner::ResultCache edge cases: restart reads of the on-disk store,
// corruption detection (tampered or misnamed files must never be served),
// and the crash points and ENOSPC of its atomic writes. Bodies here are
// plain tokens, not real trial JSON — the store is content-agnostic;
// semantic verification is runner::memoize's job.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

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

  static std::string read_file(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  static void write_file(const fs::path& path, const std::string& text) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  }

  fs::path dir_;
};

}  // namespace

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
  ASSERT_TRUE(reloaded.get("aaaa").has_value());
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

  // Flip one body byte on disk without touching the recorded CRC. The read
  // must treat the entry as corrupt — deleted, never served.
  const fs::path victim = dir_ / "feed.json";
  std::string text = read_file(victim);
  const auto at = text.find("body-AAAA");
  ASSERT_NE(at, std::string::npos);
  text[at + 5] = 'Z';
  write_file(victim, text);

  runner::ResultCache reloaded(options);
  EXPECT_FALSE(reloaded.get("feed").has_value());
  EXPECT_FALSE(fs::exists(victim));  // quarantined by deletion
  EXPECT_TRUE(reloaded.get("f00d").has_value());
}

TEST_F(ServeCacheTest, EntryRecordedUnderAnotherKeyIsDeletedOnRead) {
  runner::CacheOptions options;
  options.dir = dir_.string();
  runner::ResultCache cache(options);
  cache.put("aaaa", "sweep-trial", "fp-a", "body-a");

  // A well-formed entry copied onto another key's name: its CRC holds, but
  // it records the key "aaaa", so serving it as "bbbb" would hand one
  // cell's result to another.
  fs::copy_file(dir_ / "aaaa.json", dir_ / "bbbb.json");
  // Files that no key names are not the store's to judge.
  write_file(dir_ / "junk.json", "this is not a cache entry\n");
  write_file(dir_ / "notes.txt", "kept\n");

  runner::ResultCache reopened(options);
  EXPECT_FALSE(reopened.get("bbbb").has_value());
  EXPECT_FALSE(fs::exists(dir_ / "bbbb.json"));
  const auto a = reopened.get("aaaa");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->body, "body-a");
  EXPECT_TRUE(fs::exists(dir_ / "junk.json"));
  EXPECT_TRUE(fs::exists(dir_ / "notes.txt"));
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
// there must leave the restarted store with the OLD entry or the NEW one —
// never a torn hybrid, never nothing — and any orphaned *.tmp deleted when
// the store is next opened.

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

    // Every pre-rename kill leaves the tmp behind (the point fires after
    // the open, so even "tmp_open" leaves an empty one); the rename itself
    // moves it away.
    const bool tmp_was_left = point != "serve.io.renamed";
    EXPECT_EQ(fs::exists(dir_ / (key + ".json.tmp")), tmp_was_left);

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

    // Whatever the kill left behind, opening the store swept it.
    for (const auto& file : fs::directory_iterator(dir_)) {
      EXPECT_NE(file.path().extension(), ".tmp")
          << file.path() << " survived reopening";
    }
  }
}

TEST_F(ServeCacheTest, InjectedEnospcLeavesNoEntry) {
  retri::fault::IoFaultPlan plan;
  plan.enospc_prob = 1.0;
  retri::fault::IoFaultInjector injector(plan, 7);
  runner::CacheOptions options;
  options.dir = dir_.string();
  options.io_faults = &injector;
  runner::ResultCache cache(options);
  // The put is best effort: it returns, and the torn tmp is invisible
  // under the final name.
  cache.put("k", "kind", "fp", "body");
  EXPECT_FALSE(fs::exists(dir_ / "k.json"));
  EXPECT_TRUE(fs::exists(dir_ / "k.json.tmp"));
  EXPECT_FALSE(cache.get("k").has_value());

  // A restart misses (the entry was never durable) and deletes the torn
  // tmp the failed write left behind.
  runner::ResultCache reloaded(runner::CacheOptions{dir_.string()});
  EXPECT_FALSE(fs::exists(dir_ / "k.json.tmp"));
  EXPECT_FALSE(reloaded.get("k").has_value());
}
