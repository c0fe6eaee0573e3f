#include "micro.hpp"

#include <algorithm>
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

constexpr std::uint64_t kOpsPerBatch = 1000;
constexpr int kTimingReps = 5;

/// Runs `body` (one batch of `ops` operations) kTimingReps times after the
/// caller's warmup: allocations are counted on the first rep (they are
/// deterministic), time is best-of-reps to shed scheduler noise.
template <typename Body>
MicroResult measure(std::string name, std::uint64_t ops, Body body) {
  MicroResult result;
  result.name = std::move(name);
  result.ops = ops;

  const bool counting = util::alloc_hook_active();
  double best_ns = 0.0;
  for (int rep = 0; rep < kTimingReps; ++rep) {
    const std::uint64_t allocs_before = util::alloc_count();
    util::Stopwatch watch;
    body();
    const double ns = watch.elapsed_ns();
    if (rep == 0) {
      best_ns = ns;
      if (counting) {
        result.allocs_per_op =
            static_cast<double>(util::alloc_count() - allocs_before) /
            static_cast<double>(ops);
      }
    } else {
      best_ns = std::min(best_ns, ns);
    }
  }
  result.ns_per_op = best_ns / static_cast<double>(ops);
  return result;
}

MicroResult engine_schedule_fire() {
  sim::Simulator sim;
  auto batch = [&sim] {
    for (std::uint64_t i = 0; i < kOpsPerBatch; ++i) {
      sim.schedule_after(sim::Duration::microseconds(static_cast<int>(i)),
                         [] {});
    }
    sim.run();
  };
  batch();  // warmup: grow the slab and the queue to steady state
  return measure("engine_schedule_fire", kOpsPerBatch, batch);
}

MicroResult engine_schedule_cancel() {
  sim::Simulator sim;
  std::vector<sim::EventHandle> handles(kOpsPerBatch);
  auto batch = [&sim, &handles] {
    for (std::uint64_t i = 0; i < kOpsPerBatch; ++i) {
      handles[i] = sim.schedule_after(
          sim::Duration::microseconds(static_cast<int>(i)), [] {});
    }
    for (sim::EventHandle& h : handles) h.cancel();
    sim.run();  // drains the stale queue entries
  };
  batch();
  return measure("engine_schedule_cancel", kOpsPerBatch, batch);
}

/// Interleaved schedule/cancel/fire at skewed time offsets — the ladder
/// queue's worst case: near-future pushes into the current wheel lap,
/// mid-range pushes several laps out, far-future pushes into the overflow
/// rung, a third cancelled (stale-skip), a quarter fired mid-stream so the
/// window keeps sliding through partially-drained buckets.
MicroResult engine_churn_mixed() {
  sim::Simulator sim;
  util::Xoshiro256 rng(42);
  std::vector<sim::EventHandle> handles(kOpsPerBatch);
  auto batch = [&sim, &rng, &handles] {
    for (std::uint64_t i = 0; i < kOpsPerBatch; ++i) {
      std::int64_t off_us;
      switch (rng.below(8)) {
        case 7:  // far future: overflow rung, forces periodic rebase
          off_us = 1'000'000 +
                   static_cast<std::int64_t>(rng.below(1'000'000));
          break;
        case 6:
        case 5:  // mid range: several wheel laps ahead
          off_us = 10'000 + static_cast<std::int64_t>(rng.below(10'000));
          break;
        default:  // near future: current lap
          off_us = static_cast<std::int64_t>(rng.below(1'000));
          break;
      }
      handles[i] = sim.schedule_after(sim::Duration::microseconds(off_us),
                                      [] {});
      if (rng.below(3) == 0) handles[i].cancel();
      if (rng.below(4) == 0) sim.step();
    }
    sim.run();
  };
  batch();  // warmup: grow slab, wheel buckets, and overflow rung
  return measure("engine_churn_mixed", kOpsPerBatch, batch);
}

MicroResult medium_fanout(std::string name, std::size_t nodes,
                          bool rf_collisions) {
  sim::Simulator sim;
  sim::MediumConfig config;
  config.rf_collisions = rf_collisions;
  sim::BroadcastMedium medium(sim, sim::Topology::star_full_mesh(nodes),
                              config, 1);
  const util::Bytes frame = util::random_payload(27, 1);
  auto batch = [&sim, &medium, &frame] {
    for (std::uint64_t i = 0; i < kOpsPerBatch; ++i) {
      // The by-value copy is part of the op: callers hand the medium a
      // fresh buffer per frame, the medium shares it across listeners.
      medium.transmit(0, util::Bytes(frame),
                      sim::Duration::microseconds(100));
      sim.run();
    }
  };
  batch();
  return measure(std::move(name), kOpsPerBatch, batch);
}

}  // namespace

std::vector<MicroResult> run_micro_suite() {
  std::vector<MicroResult> results;
  results.push_back(engine_schedule_fire());
  results.push_back(engine_schedule_cancel());
  results.push_back(engine_churn_mixed());
  results.push_back(medium_fanout("medium_transmit_fanout5", 5, false));
  results.push_back(medium_fanout("medium_transmit_fanout5_rf", 5, true));
  results.push_back(medium_fanout("medium_transmit_fanout64", 64, false));
  results.push_back(medium_fanout("medium_transmit_fanout64_rf", 64, true));
  return results;
}

std::string micro_to_json(const std::vector<MicroResult>& results,
                          bool pretty) {
  util::JsonWriter json(pretty);
  json.begin_object();
  json.member("schema_version", kMicroSchemaVersion);
  json.member("suite", "micro");
  json.member("alloc_hook_active", util::alloc_hook_active());
  json.key("benchmarks").begin_array();
  for (const MicroResult& r : results) {
    json.begin_object();
    json.member("name", r.name);
    json.member("ops", r.ops);
    json.member("ns_per_op", r.ns_per_op);
    json.member("allocs_per_op", r.allocs_per_op);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

}  // namespace retri::bench
