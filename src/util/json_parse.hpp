// Minimal recursive-descent JSON parser — the read half of util/json.hpp.
//
// Until the memo store, every artifact the repo produced was write-only: the
// JsonWriter emitted sweep and trace files and external tools consumed
// them. The memo store closes the loop — its cache entries (and the result
// bodies and metrics objects inside them) are JSON this process must read
// back — so the container policy's "no new dependencies" rule buys us a
// second hand-rolled half instead of a library.
//
// Design points:
//   - JsonValue is a plain ordered DOM: object members keep document order
//     in a vector (deterministic iteration, byte-stable re-emission),
//     lookup is a linear scan (memo documents have tens of keys, not
//     thousands).
//   - Numbers keep their raw token. A 64-bit derived seed does not survive
//     a double round-trip, so as_u64()/as_i64() re-parse the original token
//     with std::from_chars and as_double() gets the exact shortest-form
//     value the writer emitted — the cache's byte-identical guarantee
//     hinges on this.
//   - Untrusted input (a corrupt store entry) is bounded: a depth limit
//     rejects pathological nesting instead of overflowing the stack, and
//     every error carries a byte offset.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/result.hpp"

namespace retri::util {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::kNull; }
  bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  bool is_number() const noexcept { return kind_ == Kind::kNumber; }
  bool is_string() const noexcept { return kind_ == Kind::kString; }
  bool is_array() const noexcept { return kind_ == Kind::kArray; }
  bool is_object() const noexcept { return kind_ == Kind::kObject; }

  /// Scalar accessors. Wrong-kind reads return the neutral value (false, 0,
  /// empty) rather than throwing: codecs validate kinds up front and the
  /// neutral fallback keeps call sites branch-free.
  bool as_bool() const noexcept { return is_bool() && bool_; }
  const std::string& as_string() const noexcept { return string_; }
  /// Exact integer re-parse of the raw token; 0 when the token is not a
  /// whole in-range integer (use is_number() + raw() to distinguish).
  std::uint64_t as_u64() const noexcept;
  std::int64_t as_i64() const noexcept;
  double as_double() const noexcept;
  /// The untouched number token as it appeared in the document.
  const std::string& raw() const noexcept { return string_; }

  /// Containers. Out-of-range index is a programming error (asserted).
  std::size_t size() const noexcept {
    return is_object() ? members_.size() : items_.size();
  }
  const JsonValue& operator[](std::size_t i) const { return items_[i]; }
  const std::vector<JsonValue>& items() const noexcept { return items_; }
  const std::vector<std::pair<std::string, JsonValue>>& members()
      const noexcept {
    return members_;
  }
  /// First member named `key`, or nullptr (also for non-objects).
  const JsonValue* find(std::string_view key) const noexcept;

  /// Member conveniences: find(key) with a neutral default when the member
  /// is absent or the wrong kind.
  std::uint64_t u64(std::string_view key, std::uint64_t fallback = 0) const;
  std::int64_t i64(std::string_view key, std::int64_t fallback = 0) const;
  double dbl(std::string_view key, double fallback = 0.0) const;
  std::string str(std::string_view key, std::string fallback = {}) const;
  bool boolean(std::string_view key, bool fallback = false) const;

  static JsonValue null() { return JsonValue(); }
  static JsonValue boolean_value(bool v);
  static JsonValue number(std::string raw_token);
  static JsonValue string_value(std::string v);
  static JsonValue array(std::vector<JsonValue> items);
  static JsonValue object(std::vector<std::pair<std::string, JsonValue>> m);

 private:
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::string string_;  // string payload, or raw number token
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

struct JsonParseError {
  std::size_t offset = 0;  // byte position of the failure
  std::string message;

  /// "offset 17: unexpected token" — the one-line CLI rendering.
  std::string describe() const;
};

/// Parses one complete JSON document; trailing non-whitespace is an error
/// (a truncated or concatenated frame must not silently half-parse).
/// `max_depth` bounds container nesting for untrusted input.
Result<JsonValue, JsonParseError> parse_json(std::string_view text,
                                             std::size_t max_depth = 96);

}  // namespace retri::util
