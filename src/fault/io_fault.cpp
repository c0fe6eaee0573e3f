#include "fault/io_fault.hpp"

#include <stdexcept>

#include "util/random.hpp"
#include "util/validate.hpp"

namespace retri::fault {
namespace {

// Stream indices for the per-family seed derivation. Appending new families
// is fine; reordering would silently change every seeded run. The constant
// is distinct from the delivery-path injector's (0xfa417) so an IoFault
// family can never collide with a medium-fault family at equal seeds.
enum Stream : std::uint64_t {
  kShortWrite = 0,
  kEintr = 1,
  kEnospc = 2,
};

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  util::SplitMix64 mix(seed ^ (0x10fa417'0000ULL + stream));
  return mix.next();
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

IoFaultPlan validated(IoFaultPlan plan) {
  util::Validator v("IoFaultPlan");
  v.probability("short_write_prob", plan.short_write_prob);
  v.probability("eintr_prob", plan.eintr_prob);
  v.probability("enospc_prob", plan.enospc_prob);
  return plan;
}

IoFaultInjector::IoFaultInjector(IoFaultPlan plan, std::uint64_t seed)
    : plan_(validated(std::move(plan))),
      short_write_seed_(derive(seed, kShortWrite)),
      eintr_seed_(derive(seed, kEintr)),
      enospc_seed_(derive(seed, kEnospc)) {
  counters_.short_writes = metrics_.counter("fault.io.short_writes");
  counters_.eintr_injected = metrics_.counter("fault.io.eintr");
  counters_.enospc_injected = metrics_.counter("fault.io.enospc");
  counters_.crash_point_visits =
      metrics_.counter("fault.io.crash_point_visits");
}

IoFaultStatsSnapshot IoFaultInjector::stats() const noexcept {
  IoFaultStatsSnapshot s;
  s.short_writes = counters_.short_writes.value();
  s.eintr_injected = counters_.eintr_injected.value();
  s.enospc_injected = counters_.enospc_injected.value();
  s.crash_point_visits = counters_.crash_point_visits.value();
  return s;
}

double IoFaultInjector::draw(std::uint64_t family_seed,
                             std::string_view op_key,
                             std::uint64_t ordinal) const {
  // Pure function of the triple: no mutable stream state, so decisions are
  // identical under any worker interleaving (the jobs-invariance contract).
  util::SplitMix64 mix(family_seed ^ fnv1a64(op_key) ^
                       (ordinal * 0x9e3779b97f4a7c15ULL));
  return static_cast<double>(mix.next() >> 11) * 0x1.0p-53;
}

std::size_t IoFaultInjector::draw_below(std::uint64_t family_seed,
                                        std::string_view op_key,
                                        std::uint64_t ordinal,
                                        std::size_t n) const {
  util::SplitMix64 mix(family_seed ^ fnv1a64(op_key) ^
                       (ordinal * 0x9e3779b97f4a7c15ULL));
  mix.next();  // decorrelate from the probability draw above
  return static_cast<std::size_t>(mix.next() % n) + 1;
}

std::size_t IoFaultInjector::clamp_write(std::string_view op_key,
                                         std::uint64_t ordinal,
                                         std::size_t n) {
  if (n <= 1 || plan_.short_write_prob <= 0.0) return n;
  if (draw(short_write_seed_, op_key, ordinal) >= plan_.short_write_prob) {
    return n;
  }
  counters_.short_writes.inc();
  return draw_below(short_write_seed_, op_key, ordinal, n - 1);
}

bool IoFaultInjector::inject_eintr(std::string_view op_key,
                                   std::uint64_t ordinal) {
  if (plan_.eintr_prob <= 0.0) return false;
  if (draw(eintr_seed_, op_key, ordinal) >= plan_.eintr_prob) return false;
  counters_.eintr_injected.inc();
  return true;
}

bool IoFaultInjector::inject_enospc(std::string_view op_key) {
  // Keyed by op key alone: a store op either has space or it does not; a
  // per-chunk draw would model a disk that flickers between full and free.
  if (plan_.enospc_prob <= 0.0) return false;
  if (draw(enospc_seed_, op_key, 0) >= plan_.enospc_prob) return false;
  counters_.enospc_injected.inc();
  return true;
}

void IoFaultInjector::crash_point(std::string_view name) {
  counters_.crash_point_visits.inc();
  if (plan_.crash_at.empty() || name != plan_.crash_at) return;
  const std::uint64_t visit =
      crash_visits_.fetch_add(1, std::memory_order_relaxed);
  if (visit >= plan_.crash_after) {
    throw CrashPointHit(std::string(name));
  }
}

}  // namespace retri::fault
