#include "obs/metrics.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace retri::obs {

std::string_view to_string(MetricKind kind) noexcept {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

const MetricValue* MetricsSnapshot::find(std::string_view name) const noexcept {
  for (const MetricValue& entry : entries) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

std::uint64_t MetricsSnapshot::counter(std::string_view name) const noexcept {
  const MetricValue* entry = find(name);
  if (entry == nullptr || entry->kind != MetricKind::kCounter) return 0;
  return entry->count;
}

void accumulate(MetricsSnapshot& into, const MetricsSnapshot& from) {
  for (const MetricValue& add : from.entries) {
    MetricValue* have = nullptr;
    for (MetricValue& entry : into.entries) {
      if (entry.name == add.name) {
        have = &entry;
        break;
      }
    }
    if (have == nullptr) {
      into.entries.push_back(add);
      continue;
    }
    if (have->kind != add.kind) {
      throw std::invalid_argument("obs::accumulate: metric \"" + add.name +
                                  "\" is " + std::string(to_string(add.kind)) +
                                  " here but " +
                                  std::string(to_string(have->kind)) +
                                  " in the accumulator");
    }
    switch (add.kind) {
      case MetricKind::kCounter:
        have->count += add.count;
        break;
      case MetricKind::kGauge:
        have->level = std::max(have->level, add.level);
        have->peak = std::max(have->peak, add.peak);
        break;
      case MetricKind::kHistogram: {
        if (have->bounds != add.bounds) {
          throw std::invalid_argument(
              "obs::accumulate: histogram \"" + add.name +
              "\" bucket bounds differ between snapshots");
        }
        have->count += add.count;
        for (std::size_t i = 0; i < have->buckets.size(); ++i) {
          have->buckets[i] += add.buckets[i];
        }
        break;
      }
    }
  }
}

MetricValue* MetricsRegistry::register_slot(std::string&& name,
                                            MetricKind kind) {
  const auto it = index_.find(name);
  if (it != index_.end()) {
    MetricValue& slot = slots_[it->second];
    if (slot.kind != kind) {
      throw std::invalid_argument(
          "MetricsRegistry: \"" + name + "\" already registered as " +
          std::string(to_string(slot.kind)) + ", cannot re-register as " +
          std::string(to_string(kind)));
    }
    return &slot;
  }
  slots_.emplace_back();
  MetricValue& slot = slots_.back();
  slot.name = std::move(name);
  slot.kind = kind;
  index_.emplace(slot.name, slots_.size() - 1);
  return &slot;
}

Counter MetricsRegistry::counter(std::string name) {
  return Counter(register_slot(std::move(name), MetricKind::kCounter));
}

Gauge MetricsRegistry::gauge(std::string name) {
  return Gauge(register_slot(std::move(name), MetricKind::kGauge));
}

Histogram MetricsRegistry::histogram(std::string name,
                                     std::vector<double> bounds) {
  if (!std::is_sorted(bounds.begin(), bounds.end())) {
    throw std::invalid_argument("MetricsRegistry: histogram \"" + name +
                                "\" bounds must be sorted ascending");
  }
  MetricValue* slot = register_slot(std::move(name), MetricKind::kHistogram);
  if (slot->buckets.empty()) {
    slot->bounds = std::move(bounds);
    slot->buckets.assign(slot->bounds.size() + 1, 0);
  } else if (slot->bounds != bounds) {
    throw std::invalid_argument(
        "MetricsRegistry: histogram \"" + slot->name +
        "\" re-registered with different bucket bounds");
  }
  return Histogram(slot);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  out.entries.assign(slots_.begin(), slots_.end());
  return out;
}

}  // namespace retri::obs
