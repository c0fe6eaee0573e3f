// Simulated time.
//
// Strong types over signed 64-bit nanosecond counts. Nanosecond resolution
// comfortably resolves individual bit times on the slowest radios we model
// (the Radiometrix RPC's ~40 kbit/s link has a 25 µs bit time) while giving
// ~292 years of simulated range — far beyond any experiment here.
//
// These live in util (not sim) because obs — a foundation layer below sim —
// timestamps spans and metric samples with them. Keeping them here lets
// obs avoid an upward include of sim; src/sim/time.hpp re-exports them
// under retri::sim for the simulation-facing layers.
#pragma once

#include <compare>
#include <cstdint>

namespace retri::util {

class Duration {
 public:
  constexpr Duration() = default;

  static constexpr Duration nanoseconds(std::int64_t ns) { return Duration(ns); }
  static constexpr Duration microseconds(std::int64_t us) { return Duration(us * 1'000); }
  static constexpr Duration milliseconds(std::int64_t ms) { return Duration(ms * 1'000'000); }
  static constexpr Duration seconds(std::int64_t s) { return Duration(s * 1'000'000'000); }
  /// Fractional seconds, rounded to the nearest nanosecond. `s` must be
  /// finite with |s| * 1e9 below 2^63, or the conversion overflows.
  static constexpr Duration from_seconds(double s) {
    return Duration(static_cast<std::int64_t>(s * 1e9 + (s >= 0 ? 0.5 : -0.5)));
  }
  /// True when from_seconds(s) is a positive duration: `s` rounds to at
  /// least 1 ns and its nanosecond count fits in int64. NaN and infinities
  /// fail (NaN fails every comparison). CLI parsers check this first.
  static constexpr bool fits_positive_seconds(double s) {
    return s * 1e9 >= 0.5 && s * 1e9 < 0x1p63;
  }

  constexpr std::int64_t ns() const noexcept { return ns_; }
  constexpr double to_seconds() const noexcept { return static_cast<double>(ns_) * 1e-9; }
  constexpr double to_milliseconds() const noexcept { return static_cast<double>(ns_) * 1e-6; }

  constexpr auto operator<=>(const Duration&) const = default;

  constexpr Duration operator+(Duration o) const noexcept { return Duration(ns_ + o.ns_); }
  constexpr Duration operator-(Duration o) const noexcept { return Duration(ns_ - o.ns_); }
  constexpr Duration operator*(std::int64_t k) const noexcept { return Duration(ns_ * k); }
  constexpr Duration operator/(std::int64_t k) const noexcept { return Duration(ns_ / k); }
  constexpr Duration& operator+=(Duration o) noexcept { ns_ += o.ns_; return *this; }
  constexpr Duration& operator-=(Duration o) noexcept { ns_ -= o.ns_; return *this; }

 private:
  explicit constexpr Duration(std::int64_t ns) : ns_(ns) {}
  std::int64_t ns_ = 0;
};

class TimePoint {
 public:
  constexpr TimePoint() = default;
  static constexpr TimePoint origin() { return TimePoint(); }
  static constexpr TimePoint at(Duration since_origin) { return TimePoint(since_origin.ns()); }

  constexpr std::int64_t ns() const noexcept { return ns_; }
  constexpr double to_seconds() const noexcept { return static_cast<double>(ns_) * 1e-9; }
  constexpr Duration since_origin() const noexcept { return Duration::nanoseconds(ns_); }

  constexpr auto operator<=>(const TimePoint&) const = default;

  constexpr TimePoint operator+(Duration d) const noexcept { return TimePoint(ns_ + d.ns()); }
  constexpr TimePoint operator-(Duration d) const noexcept { return TimePoint(ns_ - d.ns()); }
  constexpr Duration operator-(TimePoint o) const noexcept {
    return Duration::nanoseconds(ns_ - o.ns_);
  }

 private:
  explicit constexpr TimePoint(std::int64_t ns) : ns_(ns) {}
  std::int64_t ns_ = 0;
};

}  // namespace retri::util
