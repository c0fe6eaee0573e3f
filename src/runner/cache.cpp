#include "runner/cache.hpp"

#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

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
  const auto unusable = [this](std::error_code ec) {
    throw std::system_error(ec, "cannot use cache directory " + options_.dir);
  };
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (ec) unusable(ec);
  // Every put() creates and renames a file here; a store that cannot take
  // them would silently commit nothing.
  if (::access(options_.dir.c_str(), W_OK | X_OK) != 0) {
    unusable(std::error_code(errno, std::generic_category()));
  }
  // An orphaned temp file is the footprint of a write that died before its
  // rename. The entry under the final name (if any) is still the old,
  // consistent one; the orphan holds an untrusted prefix.
  for (fs::directory_iterator it(options_.dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->path().extension() == ".tmp") {
      std::error_code rm;
      fs::remove(it->path(), rm);
    }
  }
  if (ec) unusable(ec);
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

std::string ResultCache::path_of(const std::string& key) const {
  return (fs::path(options_.dir) / (key + ".json")).string();
}

std::optional<ResultCache::Entry> ResultCache::get(
    const std::string& key) const {
  const std::string path = path_of(key);
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();

  const auto parsed = util::parse_json(text.str());
  if (parsed.ok()) {
    const util::JsonValue& doc = parsed.value();
    const util::JsonValue* body = doc.find("body");
    // The recorded key must be this key: a file copied or renamed onto
    // another key's name would otherwise be served as that cell's result.
    if (doc.str("schema") == kEntrySchema &&
        doc.i64("schema_version") == kEntrySchemaVersion &&
        doc.str("key") == key && body != nullptr && body->is_string() &&
        body_crc32(body->as_string()) ==
            static_cast<std::uint32_t>(doc.u64("body_crc32", ~0ULL))) {
      return Entry{doc.str("kind"), doc.str("fingerprint"),
                   body->as_string()};
    }
  }
  // Tampered, truncated or misnamed: delete it so no later run reads it.
  std::error_code rm;
  fs::remove(path, rm);
  return std::nullopt;
}

void ResultCache::put(const std::string& key, std::string_view kind,
                      std::string_view fingerprint,
                      std::string_view body) const {
  util::JsonWriter json(/*pretty=*/false);
  json.begin_object();
  json.member("schema", kEntrySchema);
  json.member("schema_version", kEntrySchemaVersion);
  json.member("key", key);
  json.member("kind", kind);
  json.member("fingerprint", fingerprint);
  json.member("body_crc32", static_cast<std::uint64_t>(body_crc32(body)));
  // The body is embedded as an escaped string, not spliced raw: a read
  // then needs only one parse, and the CRC covers exactly these bytes.
  json.member("body", body);
  json.end_object();

  // Atomic replace (temp + fsync + rename): a crash mid-write can tear the
  // *.tmp, never the entry under its final name. op_key = cache key, so
  // injected faults are content-addressed and jobs-invariant. A failed
  // write is not an error for the run that asked: the next run misses.
  (void)atomic_write_file(path_of(key), json.str() + "\n", key,
                          options_.io_faults);
}

}  // namespace retri::runner
