// Unified metrics: one registry for every counter in the stack.
//
// PRs 1-4 grew ad-hoc counter structs in every layer (Medium loss buckets,
// Reassembler stats, FaultInjector tallies) with no shared accessor
// surface. A MetricsRegistry replaces them: components register named
// counters / gauges / fixed-bucket histograms at construction time and
// record into stable slots afterwards, so
//   - recording is zero-allocation (a pointer deref + increment), which
//     keeps the retri_alloc_tests budgets intact with metrics recorded;
//   - a snapshot() is a plain value in registration order, diffable and
//     serializable (obs::write_metrics_object is its one JSON encoding,
//     embedded in every sweep-artifact trial and memo-store body);
//   - the per-component stats structs (MediumStatsSnapshot,
//     ReassemblerStatsSnapshot, ...) are snapshot views built from
//     registry reads.
//
// Determinism: the registry is observational only — it draws no randomness
// and schedules nothing, so attaching one cannot perturb golden
// fingerprints. Registration order is the deterministic construction order
// of the instrumented components, which is why snapshots are byte-stable
// across --jobs counts.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace retri::obs {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

std::string_view to_string(MetricKind kind) noexcept;

/// One metric's value as plain data — also the registry's internal slot
/// type, so a snapshot is a straight copy. Which fields are meaningful
/// depends on `kind`:
///   counter:   count
///   gauge:     level (current) and peak (max level ever set)
///   histogram: bounds (upper bucket bounds), buckets (bounds.size() + 1,
///              last bucket is the overflow), count (total samples)
struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t count = 0;
  std::int64_t level = 0;
  std::int64_t peak = 0;
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;

  bool operator==(const MetricValue&) const = default;
};

/// Zero-allocation counter handle. Default-constructed handles are inert:
/// inc() is a null check, value() reads 0. Handles stay valid for the
/// registry's lifetime (slots live in a std::deque, addresses are stable).
class Counter {
 public:
  constexpr Counter() = default;

  void inc(std::uint64_t n = 1) noexcept {
    if (slot_ != nullptr) slot_->count += n;
  }

  std::uint64_t value() const noexcept {
    return slot_ != nullptr ? slot_->count : 0;
  }
  bool bound() const noexcept { return slot_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit constexpr Counter(MetricValue* slot) : slot_(slot) {}
  MetricValue* slot_ = nullptr;
};

/// Level gauge (current value + peak). Same handle semantics as Counter.
class Gauge {
 public:
  constexpr Gauge() = default;

  void set(std::int64_t v) noexcept {
    if (slot_ == nullptr) return;
    slot_->level = v;
    if (v > slot_->peak) slot_->peak = v;
  }
  void add(std::int64_t delta) noexcept { set(level() + delta); }

  std::int64_t level() const noexcept {
    return slot_ != nullptr ? slot_->level : 0;
  }
  std::int64_t peak() const noexcept {
    return slot_ != nullptr ? slot_->peak : 0;
  }
  bool bound() const noexcept { return slot_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit constexpr Gauge(MetricValue* slot) : slot_(slot) {}
  MetricValue* slot_ = nullptr;
};

/// Fixed-bucket histogram handle. Buckets are [.., bounds[i]] with one
/// overflow bucket past the last bound; recording is a short linear scan
/// (bucket counts are small by design) and never allocates.
class Histogram {
 public:
  constexpr Histogram() = default;

  void record(double v) noexcept {
    if (slot_ == nullptr) return;
    std::size_t i = 0;
    while (i < slot_->bounds.size() && v > slot_->bounds[i]) ++i;
    ++slot_->buckets[i];
    ++slot_->count;
  }

  std::uint64_t count() const noexcept {
    return slot_ != nullptr ? slot_->count : 0;
  }
  bool bound() const noexcept { return slot_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit constexpr Histogram(MetricValue* slot) : slot_(slot) {}
  MetricValue* slot_ = nullptr;
};

/// A snapshot of every registered metric, in registration order. Plain
/// data: copyable, comparable, serializable.
struct MetricsSnapshot {
  std::vector<MetricValue> entries;

  const MetricValue* find(std::string_view name) const noexcept;
  /// Counter value by name; 0 when absent (or not a counter).
  std::uint64_t counter(std::string_view name) const noexcept;

  bool operator==(const MetricsSnapshot&) const = default;
};

/// Folds `from` into `into`, matching entries by name: counters and
/// histogram buckets sum, gauges keep the max of level and peak (a level's
/// meaningful cross-trial statistic is its high-water mark). Entries
/// missing from `into` are appended in `from` order, so folding per-trial
/// snapshots in trial-index order is deterministic and jobs-invariant.
/// Kind mismatches throw std::invalid_argument.
void accumulate(MetricsSnapshot& into, const MetricsSnapshot& from);

/// The registry. Registration (construction-time) may allocate; recording
/// through the returned handles never does. Re-registering a name returns
/// a handle to the existing slot (so views and components can share one
/// metric); re-registering under a different kind — or, for histograms,
/// different bounds — throws std::invalid_argument.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  // Handles point into this object: moving or copying it would dangle them.
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter counter(std::string name);
  Gauge gauge(std::string name);
  Histogram histogram(std::string name, std::vector<double> bounds);

  MetricsSnapshot snapshot() const;
  std::size_t size() const noexcept { return slots_.size(); }

 private:
  MetricValue* register_slot(std::string&& name, MetricKind kind);

  std::deque<MetricValue> slots_;  // deque: stable addresses for handles
  std::unordered_map<std::string, std::size_t> index_;
};

/// Optional observability attachments threaded through component
/// constructors. Null members mean "not observed": components fall back to
/// a private registry (so their stats() snapshots keep working) and skip
/// span recording entirely.
class SpanRecorder;
struct Hooks {
  MetricsRegistry* metrics = nullptr;
  SpanRecorder* spans = nullptr;
};

}  // namespace retri::obs
