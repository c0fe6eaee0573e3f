#include "macro.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "util/json.hpp"
#include "sim/engine.hpp"
#include "sim/medium.hpp"
#include "sim/topology.hpp"
#include "util/alloc_hook.hpp"
#include "util/bytes.hpp"
#include "util/random.hpp"
#include "util/stopwatch.hpp"

namespace retri::bench {
namespace {

// Workload shape. The numbers are picked so one rep fires a few hundred
// thousand events in well under a second on a laptop-class machine: big
// enough that per-event cost dominates setup, small enough for check.sh.
constexpr std::size_t kNodes = 64;
constexpr std::uint64_t kSeed = 20010416;
constexpr double kSimSeconds = 2.0;
constexpr int kTimingReps = 3;
// Per-node periodic traffic: a frame every ~1 ms with per-frame jitter, so
// transmissions interleave and RF collisions actually happen.
constexpr std::int64_t kPeriodUs = 1000;
constexpr std::int64_t kJitterUs = 700;
constexpr std::int64_t kAirtimeUs = 200;
// Node churn: every 5 ms a random node toggles power. Disabled listeners
// exercise the lost_disabled path; disabled senders skip their slot but
// keep their timer chain alive.
constexpr std::int64_t kChurnPeriodUs = 5000;

/// Deterministic fault layer: drops 1% of surviving deliveries outright
/// and duplicates another 1% with a delayed second copy — both the
/// lost_fault accounting and the delayed-copy rescheduling path stay in
/// the measured loop.
class DropDupInterceptor final : public sim::DeliveryInterceptor {
 public:
  explicit DropDupInterceptor(std::uint64_t seed) : rng_(seed) {}

  std::vector<Injected> intercept(
      sim::NodeId /*from*/, sim::NodeId /*to*/,
      const util::SharedBytes& payload) override {
    std::vector<Injected> out;
    const double roll = rng_.uniform();
    if (roll < 0.01) return out;  // dropped: counted lost_fault
    out.push_back(Injected{payload, sim::Duration::nanoseconds(0)});
    if (roll < 0.02) {
      out.push_back(Injected{payload, sim::Duration::microseconds(500)});
    }
    return out;
  }

 private:
  util::Xoshiro256 rng_;
};

struct MacroRun {
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;
  double elapsed_ns = 0.0;
};

/// One full workload execution from a cold simulator. Deterministic: the
/// same seed yields the same event count, delivery counts, and allocation
/// count every time; only the wall time varies.
MacroRun run_once() {
  sim::Simulator sim;
  sim::MediumConfig config;
  config.rf_collisions = true;
  config.half_duplex = true;
  config.per_link_loss = 0.02;
  config.propagation_delay = sim::Duration::nanoseconds(500);
  sim::BroadcastMedium medium(sim, sim::Topology::star_full_mesh(kNodes),
                              config, kSeed);
  DropDupInterceptor faults(kSeed ^ 0x5eedULL);
  medium.set_interceptor(&faults);

  // Sink for received frames; volatile so the handler body survives -O2.
  static volatile std::uint64_t rx_bytes_sink = 0;
  for (sim::NodeId node = 0; node < kNodes; ++node) {
    medium.attach(node, [](sim::NodeId, const util::Bytes& frame) {
      rx_bytes_sink = rx_bytes_sink + frame.size();
    });
  }

  const sim::TimePoint horizon =
      sim::TimePoint::origin() + sim::Duration::from_seconds(kSimSeconds);
  const util::Bytes frame = util::random_payload(27, kSeed);
  util::Xoshiro256 traffic_rng(kSeed ^ 0xabcdULL);

  // Self-perpetuating per-node timer chains: each firing transmits (if the
  // node is up) and schedules the next slot with fresh jitter.
  struct TxChain {
    sim::Simulator* sim;
    sim::BroadcastMedium* medium;
    const util::Bytes* frame;
    util::Xoshiro256* rng;
    sim::TimePoint horizon;
    sim::NodeId node;

    void fire() const {
      medium->transmit(node, util::Bytes(*frame),
                       sim::Duration::microseconds(kAirtimeUs));
      schedule_next();
    }
    void schedule_next() const {
      const auto jitter = static_cast<std::int64_t>(
          rng->below(static_cast<std::uint64_t>(kJitterUs)));
      const sim::TimePoint next =
          sim->now() + sim::Duration::microseconds(kPeriodUs + jitter);
      if (next > horizon) return;  // chain ends at the horizon
      const TxChain chain = *this;
      sim->schedule_at(next, [chain] { chain.fire(); });
    }
  };
  std::vector<TxChain> chains(kNodes);
  for (sim::NodeId node = 0; node < kNodes; ++node) {
    chains[node] = TxChain{&sim,  &medium, &frame,
                           &traffic_rng, horizon, node};
    const auto offset = static_cast<std::int64_t>(traffic_rng.below(
        static_cast<std::uint64_t>(kPeriodUs)));
    const TxChain chain = chains[node];
    sim.schedule_at(sim::TimePoint::origin() +
                        sim::Duration::microseconds(offset),
                    [chain] { chain.fire(); });
  }

  // Churn timer: toggles one random node per firing.
  struct Churn {
    sim::Simulator* sim;
    sim::BroadcastMedium* medium;
    util::Xoshiro256* rng;
    sim::TimePoint horizon;

    void fire() const {
      const auto node = static_cast<sim::NodeId>(rng->below(kNodes));
      medium->set_enabled(node, !medium->enabled(node));
      const sim::TimePoint next =
          sim->now() + sim::Duration::microseconds(kChurnPeriodUs);
      if (next > horizon) return;
      const Churn churn = *this;
      sim->schedule_at(next, [churn] { churn.fire(); });
    }
  };
  util::Xoshiro256 churn_rng(kSeed ^ 0xc0ffeeULL);
  const Churn churn{&sim, &medium, &churn_rng, horizon};
  sim.schedule_at(
      sim::TimePoint::origin() + sim::Duration::microseconds(kChurnPeriodUs),
      [churn] { churn.fire(); });

  MacroRun run;
  const std::uint64_t fired_before = sim.events_fired();
  const std::uint64_t allocs_before = util::alloc_count();
  util::Stopwatch watch;
  sim.run_until(horizon);
  run.elapsed_ns = watch.elapsed_ns();
  run.allocs = util::alloc_count() - allocs_before;
  run.events = sim.events_fired() - fired_before;
  return run;
}

}  // namespace

std::vector<MacroResult> run_macro_suite() {
  const bool counting = util::alloc_hook_active();

  MacroResult result;
  result.name = "macro_mixed_star64";
  MacroRun best = run_once();
  result.ops = best.events;
  if (counting) {
    result.allocs_per_op =
        static_cast<double>(best.allocs) / static_cast<double>(best.events);
  }
  for (int rep = 1; rep < kTimingReps; ++rep) {
    const MacroRun run = run_once();
    assert(run.events == best.events && "macro workload must be deterministic");
    best.elapsed_ns = std::min(best.elapsed_ns, run.elapsed_ns);
  }
  result.ns_per_op =
      best.elapsed_ns / static_cast<double>(best.events);
  result.events_per_sec = 1e9 / result.ns_per_op;
  return {result};
}

std::string macro_to_json(const std::vector<MacroResult>& results,
                          bool pretty) {
  util::JsonWriter json(pretty);
  json.begin_object();
  json.member("schema_version", kMacroSchemaVersion);
  json.member("suite", "macro");
  json.member("alloc_hook_active", util::alloc_hook_active());
  json.key("benchmarks").begin_array();
  for (const MacroResult& r : results) {
    json.begin_object();
    json.member("name", r.name);
    json.member("ops", r.ops);
    json.member("ns_per_op", r.ns_per_op);
    json.member("events_per_sec", r.events_per_sec);
    json.member("allocs_per_op", r.allocs_per_op);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

}  // namespace retri::bench
