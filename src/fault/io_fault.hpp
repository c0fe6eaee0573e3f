// I/O fault injection: the retri::fault discipline applied to the syscall
// boundary.
//
// PR 3 proved the recipe for hostile *media*: a plan is plain data, every
// fault family draws from its own seed-derived stream, and enabling one
// family never perturbs another's decisions. The memo store has the same
// problem one level down — its correctness claim ("a crash never tears a
// cache entry") is about file operations, which real kernels fail in ways
// unit tests never exercise by accident. IoFaultPlan/IoFaultInjector make
// those failures injectable and reproducible:
//
//   short writes   — write() accepts fewer bytes than offered;
//   EINTR          — write() interrupted before transferring data;
//   ENOSPC         — a persistent store write fails mid-stream;
//   crash points   — named markers in multi-step write paths (temp write →
//                    rename → dir fsync); an armed point throws
//                    CrashPointHit, modeling SIGKILL at that exact moment.
//
// Every decision is a pure function of (family seed, op key, ordinal) —
// the op key names the object (the cache key), the ordinal counts the
// caller's own operations on it — so no call order or thread interleaving
// can change which faults fire.
//
// Decisions read no mutable state, and the crash-point visit counter is
// atomic. The tallies are plain "fault.io.*" counters in the injector's
// own registry, read through stats(), so an injector is used from one
// thread at a time.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"

namespace retri::fault {

/// One hostile-host configuration. Probabilities are per opportunity (one
/// write chunk, one named crash-point visit).
struct IoFaultPlan {
  /// Probability a write chunk is accepted only partially (at least one
  /// byte still transfers, like a real short write on a full pipe).
  double short_write_prob = 0.0;
  /// Probability a write opportunity fails with EINTR first (the caller
  /// must loop; a non-looping caller surfaces a spurious error).
  double eintr_prob = 0.0;
  /// Probability a persistent-store write fails with ENOSPC. Keyed by op
  /// key only (not ordinal): a full disk stays full for that store op.
  double enospc_prob = 0.0;
  /// Armed crash point: when a caller reaches crash_point(name) with this
  /// exact name, the injector throws CrashPointHit after `crash_after`
  /// prior visits (0 = first visit crashes). Empty = no crash armed.
  std::string crash_at;
  std::uint64_t crash_after = 0;
};

/// Probabilities real and in [0, 1]. Returns the plan unchanged or throws
/// std::invalid_argument naming the field. IoFaultInjector calls this on
/// construction.
IoFaultPlan validated(IoFaultPlan plan);

/// Thrown by IoFaultInjector::crash_point when the armed point is reached.
/// Models SIGKILL at that instant: callers must not clean up the partial
/// state on the way out — the crash-point tests audit exactly what a real
/// kill would leave behind.
class CrashPointHit : public std::exception {
 public:
  explicit CrashPointHit(std::string point)
      : point_(std::move(point)),
        message_("crash point hit: " + point_) {}

  const std::string& point() const noexcept { return point_; }
  const char* what() const noexcept override { return message_.c_str(); }

 private:
  std::string point_;
  std::string message_;
};

/// Point-in-time view of the injector's tallies ("fault.io.*" counters in
/// the backing registry). Returned BY VALUE; re-call to observe later
/// events.
struct IoFaultStatsSnapshot {
  std::uint64_t short_writes = 0;
  std::uint64_t eintr_injected = 0;
  std::uint64_t enospc_injected = 0;
  std::uint64_t crash_point_visits = 0;
};

class IoFaultInjector {
 public:
  /// Throws std::invalid_argument if the plan fails validated().
  IoFaultInjector(IoFaultPlan plan, std::uint64_t seed);

  IoFaultStatsSnapshot stats() const noexcept;

  /// Write-side decision for chunk `ordinal` of the operation named
  /// `op_key`: the number of bytes (1..n) the "kernel" accepts this round.
  /// Returns n when the short-write family is off or the draw passes.
  std::size_t clamp_write(std::string_view op_key, std::uint64_t ordinal,
                          std::size_t n);

  /// True when opportunity `ordinal` on `op_key` should fail with EINTR
  /// before transferring anything.
  bool inject_eintr(std::string_view op_key, std::uint64_t ordinal);

  /// True when the store write named `op_key` runs out of space.
  bool inject_enospc(std::string_view op_key);

  /// Marks one named point in a multi-step write path. Throws
  /// CrashPointHit when the plan arms this name and `crash_after` earlier
  /// visits have occurred; otherwise counts the visit and returns.
  void crash_point(std::string_view name);

 private:
  struct Counters {
    obs::Counter short_writes;
    obs::Counter eintr_injected;
    obs::Counter enospc_injected;
    obs::Counter crash_point_visits;
  };

  /// Uniform double in [0, 1) as a pure function of (family, key, ordinal).
  double draw(std::uint64_t family_seed, std::string_view op_key,
              std::uint64_t ordinal) const;
  /// Uniform integer in [1, n] as a pure function of the same triple.
  std::size_t draw_below(std::uint64_t family_seed, std::string_view op_key,
                         std::uint64_t ordinal, std::size_t n) const;

  IoFaultPlan plan_;
  std::uint64_t short_write_seed_;
  std::uint64_t eintr_seed_;
  std::uint64_t enospc_seed_;
  std::atomic<std::uint64_t> crash_visits_{0};
  obs::MetricsRegistry metrics_;  // holds the "fault.io.*" tallies
  Counters counters_;
};

}  // namespace retri::fault
