#include "runner/cache.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "runner/io.hpp"
#include "util/bytes.hpp"
#include "util/checksum.hpp"
#include "util/json.hpp"
#include "util/json_parse.hpp"

namespace retri::runner {
namespace fs = std::filesystem;

namespace {

constexpr std::string_view kEntrySchema = "retri.serve-cache-entry";
constexpr int kEntrySchemaVersion = 1;

std::uint32_t body_crc32(std::string_view body) {
  return util::crc32(util::BytesView(
      reinterpret_cast<const std::uint8_t*>(body.data()), body.size()));
}

std::uint64_t fnv1a64(std::string_view data) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : data) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

ResultCache::ResultCache(CacheOptions options) : options_(std::move(options)) {
  hits_ = metrics_.counter("serve.cache.hit");
  misses_ = metrics_.counter("serve.cache.miss");
  evictions_ = metrics_.counter("serve.cache.evict");
  corrupt_ = metrics_.counter("serve.cache.corrupt");
  rejected_ = metrics_.counter("serve.cache.rejected");
  quarantined_ = metrics_.counter("serve.cache.quarantined");
  persist_fail_ = metrics_.counter("serve.cache.persist_fail");
  entries_gauge_ = metrics_.gauge("serve.cache.entries");
  bytes_gauge_ = metrics_.gauge("serve.cache.bytes");
  if (!options_.dir.empty()) {
    std::error_code ec;
    fs::create_directories(options_.dir, ec);
    load_store();
  }
}

std::string ResultCache::make_key(std::string_view code_version,
                                  std::string_view canonical_cell) {
  std::string material;
  material.reserve(code_version.size() + 1 + canonical_cell.size());
  material.append(code_version);
  material.push_back('\n');
  material.append(canonical_cell);
  const std::uint64_t h = fnv1a64(material);
  char buf[17];
  static constexpr char kHex[] = "0123456789abcdef";
  for (int i = 0; i < 16; ++i) {
    buf[i] = kHex[(h >> (60 - 4 * i)) & 0xf];
  }
  buf[16] = '\0';
  return std::string(buf);
}

std::optional<ResultCache::Entry> ResultCache::get(const std::string& key) {
  const auto it = index_.find(key);
  if (it == index_.end()) {
    misses_.inc();
    return std::nullopt;
  }
  Slot& slot = it->second;
  // Hit verification: the body must still match the CRC recorded when the
  // entry was produced. A mismatch means corruption (bit rot, a partial
  // write that survived restart, in-process memory damage) — drop it.
  if (body_crc32(slot.entry.body) != slot.body_crc) {
    corrupt_.inc();
    drop(key);
    misses_.inc();
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, slot.lru);  // refresh recency
  hits_.inc();
  return slot.entry;
}

void ResultCache::put(const std::string& key, std::string kind,
                      std::string fingerprint, std::string body) {
  if (body.size() > options_.byte_budget) {
    rejected_.inc();
    return;
  }
  const auto existing = index_.find(key);
  if (existing != index_.end()) drop(key, /*unlink=*/false);

  lru_.push_front(key);
  Slot slot;
  slot.lru = lru_.begin();
  slot.body_crc = body_crc32(body);
  slot.entry = Entry{std::move(kind), std::move(fingerprint), std::move(body)};
  bytes_ += slot.entry.body.size();
  persist(key, slot);
  index_.emplace(key, std::move(slot));

  evict_to_budget();
  entries_gauge_.set(static_cast<std::int64_t>(index_.size()));
  bytes_gauge_.set(static_cast<std::int64_t>(bytes_));
}

void ResultCache::invalidate(const std::string& key) {
  if (index_.count(key) == 0) return;
  corrupt_.inc();
  drop(key);
  entries_gauge_.set(static_cast<std::int64_t>(index_.size()));
  bytes_gauge_.set(static_cast<std::int64_t>(bytes_));
}

void ResultCache::evict_to_budget() {
  while (bytes_ > options_.byte_budget && !lru_.empty()) {
    const std::string victim = lru_.back();
    drop(victim);
    evictions_.inc();
  }
}

void ResultCache::drop(const std::string& key, bool unlink) {
  const auto it = index_.find(key);
  if (it == index_.end()) return;
  bytes_ -= it->second.entry.body.size();
  lru_.erase(it->second.lru);
  index_.erase(it);
  if (unlink) remove_file(key);
}

void ResultCache::persist(const std::string& key, const Slot& slot) {
  if (options_.dir.empty()) return;
  util::JsonWriter json(/*pretty=*/false);
  json.begin_object();
  json.member("schema", kEntrySchema);
  json.member("schema_version", kEntrySchemaVersion);
  json.member("key", key);
  json.member("kind", slot.entry.kind);
  json.member("fingerprint", slot.entry.fingerprint);
  json.member("body_crc32", static_cast<std::uint64_t>(slot.body_crc));
  // The body is embedded as an escaped string, not spliced raw: reloading
  // then needs only one parse, and the CRC covers exactly these bytes.
  json.member("body", slot.entry.body);
  json.end_object();

  const fs::path path = fs::path(options_.dir) / (key + ".json");
  // Atomic replace (temp + fsync + rename): a crash mid-persist can tear
  // the *.tmp, never the entry under its final name. op_key = cache key, so
  // injected faults are content-addressed and jobs-invariant.
  auto written = atomic_write_file(path.string(), json.str() + "\n", key,
                                   options_.io_faults);
  if (!written.ok()) {
    // The entry stays memory-only; the next restart simply misses on it.
    persist_fail_.inc();
  }
}

void ResultCache::remove_file(const std::string& key) const {
  if (options_.dir.empty()) return;
  std::error_code ec;
  fs::remove(fs::path(options_.dir) / (key + ".json"), ec);
}

void ResultCache::load_store() {
  std::error_code ec;
  std::vector<fs::path> files;
  for (fs::directory_iterator it(options_.dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_regular_file()) continue;
    if (it->path().extension() == ".json") {
      files.push_back(it->path());
      continue;
    }
    if (it->path().extension() == ".tmp") {
      // An orphaned temp file is the footprint of a write that crashed
      // before its rename. The entry under the final name (if any) is still
      // the old, consistent one; the orphan holds an untrusted prefix and
      // is quarantined by deletion.
      quarantined_.inc();
      std::error_code rm;
      fs::remove(it->path(), rm);
    }
  }
  // Deterministic reload order (directory iteration order is not): sorted
  // by key. LRU recency does not survive restarts; the reloaded store
  // starts with sorted-key recency, refreshed by use.
  std::sort(files.begin(), files.end());

  for (const fs::path& path : files) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();

    auto parsed = util::parse_json(text);
    bool ok = parsed.ok();
    if (ok) {
      const util::JsonValue& doc = parsed.value();
      const std::string key = doc.str("key");
      const util::JsonValue* body = doc.find("body");
      ok = doc.str("schema") == kEntrySchema &&
           doc.i64("schema_version") == kEntrySchemaVersion && !key.empty() &&
           path.filename().string() == key + ".json" && body != nullptr &&
           body->is_string();
      if (ok) {
        const auto crc =
            static_cast<std::uint32_t>(doc.u64("body_crc32", ~0ULL));
        if (body_crc32(body->as_string()) != crc) {
          ok = false;
        } else {
          Slot slot;
          lru_.push_back(key);  // older files land colder than later puts
          slot.lru = std::prev(lru_.end());
          slot.body_crc = crc;
          slot.entry = Entry{doc.str("kind"), doc.str("fingerprint"),
                             body->as_string()};
          bytes_ += slot.entry.body.size();
          index_.emplace(key, std::move(slot));
        }
      }
    }
    if (!ok) {
      // Tampered, truncated, or foreign file: quarantine by deletion so it
      // cannot be re-reported every restart.
      corrupt_.inc();
      quarantined_.inc();
      std::error_code rm;
      fs::remove(path, rm);
    }
  }
  evict_to_budget();  // a shrunk budget trims the reloaded store
  entries_gauge_.set(static_cast<std::int64_t>(index_.size()));
  bytes_gauge_.set(static_cast<std::int64_t>(bytes_));
}

}  // namespace retri::runner
