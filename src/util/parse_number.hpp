// Strict whole-token numeric parsing for command-line flags.
//
// Built on std::from_chars, so "12x", "", " 1", "+1" and (for unsigned
// targets) "-1" are all rejected, as are values that do not fit the target
// type: a typo can never silently run a default experiment, and a negative
// seed is never wrapped to 2^64 - 1. Range checks beyond the type (a
// positive count, a duration that fits sim::Duration) stay with the caller.
#pragma once

#include <charconv>
#include <string_view>
#include <system_error>

namespace retri::util {

/// Parses all of `token` as a base-10 integer of type T. Leaves `out`
/// untouched and returns false on any failure.
template <typename T>
bool parse_int(std::string_view token, T& out) {
  const char* last = token.data() + token.size();
  T value{};
  const auto [ptr, ec] = std::from_chars(token.data(), last, value);
  if (token.empty() || ec != std::errc{} || ptr != last) return false;
  out = value;
  return true;
}

/// Parses all of `token` as a double. "nan", "inf" and "1e300" parse; a
/// caller that converts to sim::Duration must range-check the value.
inline bool parse_double(std::string_view token, double& out) {
  const char* last = token.data() + token.size();
  double value{};
  const auto [ptr, ec] = std::from_chars(token.data(), last, value);
  if (token.empty() || ec != std::errc{} || ptr != last) return false;
  out = value;
  return true;
}

}  // namespace retri::util
