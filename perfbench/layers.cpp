#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <memory>

#include "aff/fragmenter.hpp"
#include "aff/reassembler.hpp"
#include "aff/wire.hpp"
#include "core/selector.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "radio/energy.hpp"
#include "radio/radio.hpp"
#include "runner/result_sink.hpp"
#include "runner/sweep.hpp"
#include "runner/trial_runner.hpp"
#include "sim/engine.hpp"
#include "sim/medium.hpp"
#include "sim/topology.hpp"
#include "util/alloc_hook.hpp"
#include "util/bytes.hpp"
#include "util/checksum.hpp"
#include "util/random.hpp"

namespace perfbench {

using namespace retri;

double now_ns() {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

util::TimePoint wall_now() {
  return util::TimePoint::at(
      util::Duration::nanoseconds(static_cast<std::int64_t>(now_ns())));
}

// --- census ------------------------------------------------------------

namespace {

/// A census counter, and whether every workload's snapshot must have it.
/// The fault layer's counters exist only with a fault-layer channel or an
/// attacker, which no workload runs; they read 0.
struct CensusCounter {
  const char* suffix;
  bool required;
};

constexpr CensusCounter kCensusCounters[] = {
    {"medium.frames_sent", true},
    {"medium.deliveries_attempted", true},
    {"medium.delivered", true},
    {"medium.fault_extra_deliveries", true},
    {"aff.packets_sent", true},
    {"aff.packets_delivered", true},
    {"aff.rx.fragments_seen", true},
    {"aff.rx.orphan_fragments", true},
    {"aff.rx.delivered", true},
    {"aff.rx.checksum_failed", true},
    {"aff.rx.timeouts", true},
    {"aff.rx.evicted", true},
    {"aff.truth.fragments_seen", true},
    {"aff.truth.delivered", true},
    {"aff.truth.checksum_failed", true},
    {"selector.selects", true},
    {"selector.observes", true},
    {"fault.intercepted", false},
    {"attacker.frames_forged", false},
};

bool matches(std::string_view name, std::string_view suffix) {
  if (name == suffix) return true;
  return name.size() > suffix.size() && name.ends_with(suffix) &&
         name[name.size() - suffix.size() - 1] == '.';
}

}  // namespace

std::vector<std::string> add_census(const obs::MetricsSnapshot& snapshot,
                                    Census& census) {
  std::vector<std::string> missing;
  for (const CensusCounter& c : kCensusCounters) {
    double sum = 0;
    bool found = false;
    for (const obs::MetricValue& e : snapshot.entries) {
      if (e.kind != obs::MetricKind::kCounter || !matches(e.name, c.suffix)) {
        continue;
      }
      sum += static_cast<double>(e.count);
      found = true;
    }
    if (c.required && !found) missing.emplace_back(c.suffix);
    census[c.suffix] += sum;
  }
  return missing;
}

// --- unit costs --------------------------------------------------------

namespace {

constexpr std::size_t kTimedReps = 5;

/// Keeps `value` observable so the optimizer cannot drop the work.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

/// Runs batch(0) as a warm-up, then batch(1..kTimedReps) inside one span:
/// allocations per op from the first timed rep (they are exact), time per
/// op from the best rep. The span carries ops, best_batch_ns and allocs.
template <typename Batch>
UnitCost measure(obs::SpanRecorder& spans, obs::SpanId parent,
                 std::string_view name, std::size_t ops, Batch&& batch) {
  const obs::SpanId span =
      spans.begin(name, kSpanCategory, 0, wall_now(), parent);
  batch(0);
  std::uint64_t allocs = 0;
  double best = 0;
  for (std::size_t rep = 1; rep <= kTimedReps; ++rep) {
    const std::uint64_t allocs_before = util::alloc_count();
    const double start = now_ns();
    batch(rep);
    const double ns = now_ns() - start;
    if (rep == 1) {
      allocs = util::alloc_count() - allocs_before;
      best = ns;
    }
    best = std::min(best, ns);
  }
  spans.annotate(span, "ops", ops);
  spans.annotate(span, "best_batch_ns", static_cast<std::uint64_t>(best));
  spans.annotate(span, "allocs", allocs);
  spans.end(span, wall_now(), "measured");
  return UnitCost{best / static_cast<double>(ops),
                  static_cast<double>(allocs) / static_cast<double>(ops)};
}

/// The audience shape run_experiment builds for the workload (neither
/// workload has an attacker).
sim::Topology bench_topology(const runner::ExperimentConfig& c) {
  return c.topology == runner::TopologyKind::kHiddenTerminal
             ? sim::Topology::hidden_terminal(c.senders)
             : sim::Topology::star_full_mesh(c.senders);
}

/// The delivery faults of run_experiment's "chaos" channel at 15% average
/// loss: GE bursts of mean length 5 plus corruption, truncation,
/// duplication and delay. No workload runs this channel; the unit cost
/// prices the fault layer for the workloads that will.
fault::FaultPlan chaos_faults() {
  fault::FaultPlan plan;
  plan.burst.loss_bad = 1.0;
  plan.burst.loss_good = 0.0;
  plan.burst.p_bad_to_good = 0.2;
  plan.burst.p_good_to_bad = 0.15 * 0.2 / 0.85;
  plan.corrupt_prob = 0.05;
  plan.corrupt_byte_prob = 0.05;
  plan.truncate_prob = 0.03;
  plan.duplicate_prob = 0.05;
  plan.max_duplicates = 2;
  plan.delay_prob = 0.2;
  plan.max_delay = sim::Duration::milliseconds(20);
  return plan;
}

/// `senders` packets at a time, each fragmented under an id drawn from the
/// workload's selector, then interleaved frame by frame the way
/// concurrent senders' frames reach a listener.
struct FrameSet {
  std::vector<util::Bytes> packets;
  std::vector<util::Bytes> frames;
  std::vector<aff::DecodedFragment> decoded;  // views into `frames`
};

FrameSet make_frames(const runner::ExperimentConfig& c,
                     const aff::Fragmenter& fragmenter, std::size_t rounds) {
  FrameSet set;
  auto selector = core::make_selector(c.selector, core::IdSpace(c.id_bits),
                                      c.seed * 43 + 1);
  for (std::size_t round = 0; round < rounds; ++round) {
    std::vector<std::vector<util::Bytes>> per_sender;
    for (std::size_t s = 0; s < c.senders; ++s) {
      set.packets.push_back(
          util::random_payload(c.packet_bytes, c.seed + set.packets.size()));
      const std::uint64_t true_id = ((s + 1) << 32) | round;
      per_sender.push_back(fragmenter
                               .fragment(set.packets.back(), selector->select(),
                                         true_id)
                               .value());
    }
    for (std::size_t f = 0; f < per_sender.front().size(); ++f) {
      for (auto& frames : per_sender) {
        set.frames.push_back(std::move(frames[f]));
      }
    }
  }
  for (const util::Bytes& frame : set.frames) {
    set.decoded.push_back(*aff::decode(fragmenter.config().wire, frame));
  }
  return set;
}

}  // namespace

UnitCosts measure_unit_costs(const Workload& w,
                             const runner::ExperimentResult& sample,
                             obs::SpanRecorder& spans, obs::SpanId parent) {
  const runner::ExperimentConfig c = trial_config(w, 1);
  UnitCosts out;

  const aff::WireConfig wire{c.id_bits, true};
  const aff::Fragmenter fragmenter(
      aff::FragmenterConfig{wire, radio::kRpcMaxFrameBytes});
  const FrameSet set = make_frames(c, fragmenter, 96);
  const std::size_t frames = set.frames.size();

  {
    aff::Reassembler reassembler;
    std::uint64_t clock_ns = 0;
    std::uint64_t crc_before = 0;
    const auto feed = [&](std::size_t rep) {
      if (rep == 1) {
        const auto s = reassembler.stats();
        crc_before = s.delivered + s.checksum_failed;
      }
      for (const aff::DecodedFragment& d : set.decoded) {
        clock_ns += 1'000'000;
        const sim::TimePoint now =
            sim::TimePoint::at(sim::Duration::nanoseconds(
                static_cast<std::int64_t>(clock_ns)));
        if (const auto* intro = std::get_if<aff::IntroFragment>(&d.body)) {
          reassembler.on_intro(intro->id.value(), intro->total_len,
                               intro->checksum, now);
        } else if (const auto* data = std::get_if<aff::DataFragment>(&d.body)) {
          reassembler.on_data(data->id.value(), data->offset, data->payload,
                              now);
        }
      }
    };
    out.reassemble = measure(spans, parent, "aff.reassemble", frames, feed);
    const auto s = reassembler.stats();
    out.reassemble_crc_per_op =
        static_cast<double>(s.delivered + s.checksum_failed - crc_before) /
        static_cast<double>(frames * kTimedReps);
  }

  out.decode = measure(spans, parent, "aff.decode", frames, [&](std::size_t) {
    for (const util::Bytes& frame : set.frames) keep(aff::decode(wire, frame));
  });

  const std::size_t packets = set.packets.size();
  out.fragment =
      measure(spans, parent, "aff.fragment", packets, [&](std::size_t) {
        for (std::size_t i = 0; i < packets; ++i) {
          keep(fragmenter.fragment(set.packets[i],
                                   core::TransactionId(i & 0x3f), i));
        }
      });

  constexpr std::size_t kCrcOps = 20000;
  out.crc32 = measure(spans, parent, "util.crc32", kCrcOps, [&](std::size_t) {
    std::uint32_t acc = 0;
    for (std::size_t i = 0; i < kCrcOps; ++i) {
      acc ^= util::crc32(set.packets[i % packets]);
    }
    keep(acc);
  });

  // Medium and radio: every node attached with a no-op handler, one frame
  // per op run to delivery. Payloads are built outside the timed batches.
  constexpr std::size_t kFrameOps = 2000;
  const auto make_payloads = [] {
    std::vector<std::vector<util::Bytes>> reps(kTimedReps + 1);
    for (auto& rep : reps) {
      rep.assign(kFrameOps, util::Bytes(radio::kRpcMaxFrameBytes, 0x5a));
    }
    return reps;
  };
  const auto sender = [&c](std::size_t i) {
    return static_cast<sim::NodeId>(1 + i % c.senders);
  };
  {
    sim::Simulator sim;
    sim::BroadcastMedium medium(sim, bench_topology(c), {}, c.seed);
    for (std::size_t node = 0; node < medium.topology().size(); ++node) {
      medium.attach(static_cast<sim::NodeId>(node),
                    [](sim::NodeId, const util::Bytes&) {});
    }
    auto payloads = make_payloads();
    const auto batch = [&](std::size_t rep) {
      for (std::size_t i = 0; i < kFrameOps; ++i) {
        medium.transmit(sender(i), std::move(payloads[rep][i]),
                        sim::Duration::milliseconds(6));
        sim.run();
      }
    };
    out.transmit = measure(spans, parent, "sim.transmit", kFrameOps, batch);
  }
  {
    sim::Simulator sim;
    sim::BroadcastMedium medium(sim, bench_topology(c), {}, c.seed);
    radio::RadioConfig config;
    config.max_backoff = c.tx_jitter;
    std::vector<std::unique_ptr<radio::Radio>> radios;
    for (std::size_t node = 0; node < medium.topology().size(); ++node) {
      radios.push_back(std::make_unique<radio::Radio>(
          medium, static_cast<sim::NodeId>(node), config,
          radio::EnergyModel::rpc_like(), c.seed * 41 + node));
      radios.back()->set_receive_callback(
          [](sim::NodeId, const util::Bytes&) {});
    }
    auto payloads = make_payloads();
    const auto batch = [&](std::size_t rep) {
      for (std::size_t i = 0; i < kFrameOps; ++i) {
        radios[sender(i)]->send(std::move(payloads[rep][i]));
        sim.run();
      }
    };
    out.radio_frame = measure(spans, parent, "radio.frame", kFrameOps, batch);
    out.radio_frame.ns = std::max(0.0, out.radio_frame.ns - out.transmit.ns);
    out.radio_frame.allocs =
        std::max(0.0, out.radio_frame.allocs - out.transmit.allocs);
  }

  {
    obs::MetricsRegistry registry;
    auto selector = core::make_selector(c.selector, core::IdSpace(c.id_bits),
                                        c.seed * 43 + 1);
    selector->bind_metrics(registry, "n1.selector.");
    constexpr std::size_t kSelectorOps = 20000;
    out.select =
        measure(spans, parent, "core.select", kSelectorOps, [&](std::size_t) {
          for (std::size_t i = 0; i < kSelectorOps; ++i) {
            keep(selector->select());
          }
        });
    std::vector<core::TransactionId> heard;
    util::Xoshiro256 rng(c.seed);
    for (std::size_t i = 0; i < kSelectorOps; ++i) {
      heard.emplace_back(rng.below(std::uint64_t{1} << c.id_bits));
    }
    out.observe =
        measure(spans, parent, "core.observe", kSelectorOps, [&](std::size_t) {
          for (const core::TransactionId id : heard) selector->observe(id);
        });
  }

  {
    fault::FaultInjector injector(chaos_faults(), c.seed * 59 + 13);
    const util::SharedBytes payload(
        util::random_payload(radio::kRpcMaxFrameBytes, c.seed));
    constexpr std::size_t kInterceptOps = 20000;
    const std::size_t nodes = bench_topology(c).size();
    const auto batch = [&](std::size_t) {
      for (std::size_t i = 0; i < kInterceptOps; ++i) {
        const sim::NodeId from = sender(i);
        const auto to =
            static_cast<sim::NodeId>((from + 1 + i / c.senders) % nodes);
        keep(injector.intercept(from, to, payload));
      }
    };
    out.intercept =
        measure(spans, parent, "fault.intercept", kInterceptOps, batch);
  }

  {
    obs::MetricsRegistry registry;
    for (const obs::MetricValue& e : sample.metrics.entries) {
      switch (e.kind) {
        case obs::MetricKind::kCounter:
          registry.counter(e.name).inc(e.count);
          break;
        case obs::MetricKind::kGauge:
          registry.gauge(e.name).set(e.level);
          break;
        case obs::MetricKind::kHistogram:
          registry.histogram(e.name, e.bounds);
          break;
      }
    }
    constexpr std::size_t kSnapshots = 20;
    const auto batch = [&](std::size_t) {
      for (std::size_t i = 0; i < kSnapshots; ++i) keep(registry.snapshot());
    };
    out.snapshot_us =
        measure(spans, parent, "obs.snapshot", kSnapshots, batch).ns / 1e3;
  }

  {
    runner::SweepResult result;
    result.spec.name = w.name;
    result.spec.base = c;
    result.spec.trials = 1;
    runner::SweepPointResult point;
    point.label = w.name;
    point.config = c;
    point.trials = {sample};
    point.summary = runner::TrialRunner::summarize(point.trials);
    result.points.push_back(std::move(point));
    constexpr std::size_t kSinks = 4;
    std::size_t bytes = 0;
    const auto batch = [&](std::size_t) {
      for (std::size_t i = 0; i < kSinks; ++i) {
        bytes = runner::ResultSink::to_json(result).size();
      }
    };
    out.sink_us = measure(spans, parent, "runner.sink", kSinks, batch).ns / 1e3;
    out.artifact_kb = static_cast<double>(bytes) / 1024.0;
  }
  return out;
}

}  // namespace perfbench
