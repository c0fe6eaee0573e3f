// Heap-allocation budget tests for the hot paths.
//
// This binary — and only this binary among the test targets — links
// src/util/alloc_hook.cpp (the counting operator-new replacement), so it
// can assert the refactors' core claim directly: once warmed up, the event
// engine schedules and fires without allocating at all, a broadcast fans
// one pooled payload out to every listener instead of copying it per
// reception, the AFF receive path reassembles and delivers frames without
// allocating, and so does the send path from a traffic source's payload
// through the driver's encoder and the radio queue to the medium. The
// pre-refactor baseline was 1 alloc/event on the engine, 22
// allocs/transmit on a 5-listener fanout, 1.13 allocs per reassembled
// fragment, and 16 allocs per sent 80-byte packet. Allocation counts are
// deterministic, so every budget here is the measured count, not a
// tolerance around it; time is perfbench's job (perfbench/README.md).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <variant>
#include <vector>

#include "aff/driver.hpp"
#include "aff/fragmenter.hpp"
#include "aff/reassembler.hpp"
#include "aff/wire.hpp"
#include "apps/workload.hpp"
#include "core/selector.hpp"
#include "obs/metrics.hpp"
#include "radio/radio.hpp"
#include "sim/engine.hpp"
#include "sim/medium.hpp"
#include "sim/topology.hpp"
#include "util/alloc_hook.hpp"
#include "util/bytes.hpp"
#include "util/random.hpp"

namespace {

using namespace retri;  // NOLINT: test file, brevity wins

constexpr int kOps = 1000;

TEST(AllocHook, CountingReplacementIsLinked) {
  ASSERT_TRUE(util::alloc_hook_active())
      << "src/util/alloc_hook.cpp is not linked into this binary; every "
         "other assertion in this file would vacuously pass";
}

TEST(AllocHotPath, MetricsRecordingIsAllocationFree) {
  // Registration may allocate (names, slots); recording through the
  // returned handles must not — that is what lets the instrumented sim
  // hot path keep every other budget in this file.
  obs::MetricsRegistry registry;
  obs::Counter counter = registry.counter("frames");
  obs::Gauge gauge = registry.gauge("pending");
  obs::Histogram histogram = registry.histogram("bytes", {16.0, 64.0, 256.0});
  const std::uint64_t before = util::alloc_count();
  for (int i = 0; i < kOps; ++i) {
    counter.inc();
    counter.inc(3);
    gauge.set(i);
    histogram.record(static_cast<double>(i));
  }
  EXPECT_EQ(util::alloc_count() - before, 0u)
      << "metric recording allocated in steady state";
  EXPECT_EQ(counter.value(), static_cast<std::uint64_t>(kOps) * 4);
}

TEST(AllocHotPath, EngineSteadyStateIsAllocationFree) {
  sim::Simulator sim;
  auto batch = [&sim] {
    for (int i = 0; i < kOps; ++i) {
      sim.schedule_after(sim::Duration::microseconds(i), [] {});
    }
    sim.run();
  };
  batch();  // warmup: grow the slab and queue to capacity
  const std::uint64_t before = util::alloc_count();
  batch();
  EXPECT_EQ(util::alloc_count() - before, 0u)
      << "engine schedule+fire allocated in steady state";
}

TEST(AllocHotPath, EngineCancelPathIsAllocationFree) {
  sim::Simulator sim;
  std::vector<sim::EventHandle> handles(kOps);
  auto batch = [&sim, &handles] {
    for (int i = 0; i < kOps; ++i) {
      handles[static_cast<std::size_t>(i)] =
          sim.schedule_after(sim::Duration::microseconds(i), [] {});
    }
    for (auto& h : handles) h.cancel();
    sim.run();
  };
  batch();
  const std::uint64_t before = util::alloc_count();
  batch();
  EXPECT_EQ(util::alloc_count() - before, 0u)
      << "engine schedule+cancel allocated in steady state";
}

// Skewed schedule/cancel/step churn: near-future pushes, mid-range pushes
// tens of milliseconds out, far-future pushes a second out, a third
// cancelled (stale-skip), a quarter stepped mid-stream so the heap drains
// and refills at every depth. The event heap is one vector that keeps its
// capacity, so once one warmup batch has grown it and the slab to the
// batch's peak, the next batch allocates nothing (measured: 0, and 0 in
// each of the eight batches after it).
TEST(AllocHotPath, EngineChurnAfterWarmupStaysWithinBudget) {
  sim::Simulator sim;
  util::Xoshiro256 rng(42);
  std::vector<sim::EventHandle> handles(kOps);
  auto batch = [&sim, &rng, &handles] {
    for (sim::EventHandle& handle : handles) {
      std::int64_t off_us;
      switch (rng.below(8)) {
        case 7:  // far future: a second out
          off_us = 1'000'000 +
                   static_cast<std::int64_t>(rng.below(1'000'000));
          break;
        case 6:
        case 5:  // mid range: tens of milliseconds out
          off_us = 10'000 + static_cast<std::int64_t>(rng.below(10'000));
          break;
        default:  // near future: under a millisecond out
          off_us = static_cast<std::int64_t>(rng.below(1'000));
          break;
      }
      handle = sim.schedule_after(sim::Duration::microseconds(off_us), [] {});
      if (rng.below(3) == 0) handle.cancel();
      if (rng.below(4) == 0) sim.step();
    }
    sim.run();
  };
  batch();  // warmup: grow the slab and the heap
  const std::uint64_t before = util::alloc_count();
  batch();
  EXPECT_EQ(util::alloc_count() - before, 0u)
      << "engine churn allocated after one warmup batch";
}

// One transmit of a frame view copies it into a buffer recycled from the
// medium's pool: 0 allocations once warm, whatever the audience size and
// whether RF collisions are tracked. Deliveries themselves (pooled
// reception records, inline delivery closures, shared payload views) must
// not allocate. The by-value overload adds the caller's vector copy; its
// budget is the 2 per transmit it had before the pool (the payload copy
// plus a shared_ptr control block). Baseline before the first refactor:
// 22 for 5 listeners.
TEST(AllocHotPath, MediumFanoutSharesOnePayloadBuffer) {
  struct Shape {
    std::size_t nodes;
    bool rf_collisions;
  };
  for (const Shape shape : {Shape{5, false}, Shape{5, true}, Shape{64, false},
                            Shape{64, true}}) {
    SCOPED_TRACE(::testing::Message()
                 << shape.nodes << " nodes, rf_collisions "
                 << shape.rf_collisions);
    sim::Simulator sim;
    sim::MediumConfig config;
    config.rf_collisions = shape.rf_collisions;
    sim::BroadcastMedium medium(
        sim, sim::Topology::star_full_mesh(shape.nodes), config, 1);
    const util::Bytes frame = util::random_payload(27, 1);
    const sim::Duration airtime = sim::Duration::microseconds(100);
    auto pooled = [&] {
      for (int i = 0; i < kOps; ++i) {
        medium.transmit(0, util::BytesView(frame), airtime);
        sim.run();
      }
    };
    auto by_value = [&] {
      for (int i = 0; i < kOps; ++i) {
        medium.transmit(0, util::Bytes(frame), airtime);
        sim.run();
      }
    };
    pooled();  // warmup: payload pool, reception pool and active lists
    std::uint64_t before = util::alloc_count();
    pooled();
    EXPECT_EQ(util::alloc_count() - before, 0u)
        << "pooled medium transmit fanout allocated";
    before = util::alloc_count();
    by_value();
    EXPECT_LE(util::alloc_count() - before, 2u * kOps)
        << "by-value medium transmit allocated more than its budget";
  }
}

// A dense mixed workload on the engine and medium together: a 64-node
// full-mesh star with RF collisions, half-duplex radios, 2% per-link loss,
// a jittered ~1 ms transmit chain per node, a node toggling power every
// 5 ms, and an interceptor that drops 1% of deliveries and duplicates 1%
// with a delayed copy. Every subsystem the simulation core serves runs in
// one 2 s loop from a cold simulator.
constexpr std::size_t kMixedNodes = 64;
constexpr std::uint64_t kMixedSeed = 20010416;
constexpr std::int64_t kPeriodUs = 1000;
constexpr std::int64_t kJitterUs = 700;
constexpr std::int64_t kAirtimeUs = 200;
constexpr std::int64_t kChurnPeriodUs = 5000;

class DropDupInterceptor final : public sim::DeliveryInterceptor {
 public:
  explicit DropDupInterceptor(std::uint64_t seed) : rng_(seed) {}

  std::vector<Injected> intercept(sim::NodeId /*from*/, sim::NodeId /*to*/,
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

struct MixedRun {
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;
};

MixedRun run_mixed_star64() {
  sim::Simulator sim;
  sim::MediumConfig config;
  config.rf_collisions = true;
  config.half_duplex = true;
  config.per_link_loss = 0.02;
  config.propagation_delay = sim::Duration::nanoseconds(500);
  sim::BroadcastMedium medium(sim, sim::Topology::star_full_mesh(kMixedNodes),
                              config, kMixedSeed);
  DropDupInterceptor faults(kMixedSeed ^ 0x5eedULL);
  medium.set_interceptor(&faults);
  std::uint64_t rx_bytes = 0;
  for (sim::NodeId node = 0; node < kMixedNodes; ++node) {
    medium.attach(node, [&rx_bytes](sim::NodeId, const util::Bytes& frame) {
      rx_bytes += frame.size();
    });
  }

  const sim::TimePoint horizon =
      sim::TimePoint::origin() + sim::Duration::seconds(2);
  const util::Bytes frame = util::random_payload(27, kMixedSeed);
  util::Xoshiro256 traffic_rng(kMixedSeed ^ 0xabcdULL);

  // Self-perpetuating per-node timer chains: each firing transmits and
  // schedules the node's next slot with fresh jitter until the horizon.
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
      const auto jitter = static_cast<std::int64_t>(
          rng->below(static_cast<std::uint64_t>(kJitterUs)));
      const sim::TimePoint next =
          sim->now() + sim::Duration::microseconds(kPeriodUs + jitter);
      if (next > horizon) return;
      const TxChain chain = *this;
      sim->schedule_at(next, [chain] { chain.fire(); });
    }
  };
  for (sim::NodeId node = 0; node < kMixedNodes; ++node) {
    const TxChain chain{&sim, &medium, &frame, &traffic_rng, horizon, node};
    const auto offset = static_cast<std::int64_t>(
        traffic_rng.below(static_cast<std::uint64_t>(kPeriodUs)));
    sim.schedule_at(
        sim::TimePoint::origin() + sim::Duration::microseconds(offset),
        [chain] { chain.fire(); });
  }

  // Churn: each firing toggles one random node's power. A disabled
  // listener exercises lost_disabled; a disabled sender keeps its chain.
  struct Churn {
    sim::Simulator* sim;
    sim::BroadcastMedium* medium;
    util::Xoshiro256* rng;
    sim::TimePoint horizon;

    void fire() const {
      const auto node = static_cast<sim::NodeId>(rng->below(kMixedNodes));
      medium->set_enabled(node, !medium->enabled(node));
      const sim::TimePoint next =
          sim->now() + sim::Duration::microseconds(kChurnPeriodUs);
      if (next > horizon) return;
      const Churn churn = *this;
      sim->schedule_at(next, [churn] { churn.fire(); });
    }
  };
  util::Xoshiro256 churn_rng(kMixedSeed ^ 0xc0ffeeULL);
  const Churn churn{&sim, &medium, &churn_rng, horizon};
  sim.schedule_at(
      sim::TimePoint::origin() + sim::Duration::microseconds(kChurnPeriodUs),
      [churn] { churn.fire(); });

  MixedRun run;
  const std::uint64_t fired_before = sim.events_fired();
  const std::uint64_t allocs_before = util::alloc_count();
  sim.run_until(horizon);
  run.allocs = util::alloc_count() - allocs_before;
  run.events = sim.events_fired() - fired_before;
  EXPECT_GT(rx_bytes, 0u) << "no frame reached a listener";
  return run;
}

// Budget: the measured 96,263 allocations over 145,989 fired events (each
// by-value transmit's vector copy and each intercept's result vector; the
// medium's own payload buffers are pooled, and the event heap is one
// vector). Before the pool: 147,054; before the event heap: 96,359.
TEST(AllocHotPath, MixedStar64WorkloadStaysWithinBudget) {
  const MixedRun first = run_mixed_star64();
  ASSERT_GT(first.events, 0u);
  EXPECT_LE(static_cast<double>(first.allocs) /
                static_cast<double>(first.events),
            0.6593852961524499)
      << first.allocs << " allocations over " << first.events << " events";
  EXPECT_EQ(run_mixed_star64().events, first.events)
      << "the mixed workload fired a different number of events when rerun";
}

// The AFF receive path: one round of frames from kRxPackets packets of the
// §5.1 size, fragmented in instrumented mode under distinct AFF ids and
// interleaved round-robin, as a receiver hears several senders at once.
constexpr std::size_t kRxPackets = 6;
constexpr std::size_t kRxPacketBytes = 80;

std::vector<util::Bytes> interleaved_round(const aff::WireConfig& wire) {
  const aff::Fragmenter fragmenter(
      aff::FragmenterConfig{wire, radio::RadioConfig{}.max_frame_bytes});
  std::vector<std::vector<util::Bytes>> per_packet;
  for (std::size_t p = 0; p < kRxPackets; ++p) {
    const util::Bytes packet = util::random_payload(kRxPacketBytes, 40 + p);
    per_packet.push_back(fragmenter
                             .fragment(packet, core::TransactionId(p),
                                       (std::uint64_t{p + 1} << 32) | p)
                             .value());
  }
  std::vector<util::Bytes> frames;
  for (std::size_t i = 0; i < per_packet[0].size(); ++i) {
    for (const auto& packet_frames : per_packet) {
      frames.push_back(packet_frames[i]);
    }
  }
  return frames;
}

TEST(AllocHotPath, ReassemblerSecondPassIsAllocationFree) {
  const aff::WireConfig wire{8, true};
  std::vector<aff::DecodedFragment> fragments;
  const std::vector<util::Bytes> frames = interleaved_round(wire);
  for (const util::Bytes& frame : frames) {
    fragments.push_back(*aff::decode(wire, frame));
  }
  aff::Reassembler reassembler;
  std::size_t delivered = 0;
  reassembler.set_deliver(
      [&delivered](std::uint64_t, util::BytesView) { ++delivered; });
  const auto pass = [&](std::int64_t t_ms) {
    const sim::TimePoint now =
        sim::TimePoint::origin() + sim::Duration::milliseconds(t_ms);
    for (const aff::DecodedFragment& d : fragments) {
      if (const auto* intro = std::get_if<aff::IntroFragment>(&d.body)) {
        reassembler.on_intro(intro->id.value(), intro->total_len,
                             intro->checksum, now);
      } else {
        const auto& data = std::get<aff::DataFragment>(d.body);
        reassembler.on_data(data.id.value(), data.offset, data.payload, now);
      }
    }
  };
  pass(0);  // warmup: grow the slab, the index and every slot's buffers
  const std::uint64_t before = util::alloc_count();
  pass(1);
  EXPECT_EQ(util::alloc_count() - before, 0u)
      << "reassembly allocated in steady state";
  EXPECT_EQ(delivered, 2 * kRxPackets);
}

// An instrumented receiver behind a Radio, truth reassembly on: medium
// delivery, radio receive, decode, both reassemblies, CRC, selector
// observe and view delivery. Frames are transmitted before counting, each
// in a full-frame airtime slot so the round lands in one engine bucket;
// only sim.run() delivering them is measured.
TEST(AllocHotPath, AffDriverReceiveIsAllocationFree) {
  sim::Simulator sim;
  sim::BroadcastMedium medium(sim, sim::Topology::full_mesh(2), {}, 1);
  radio::Radio radio(medium, 0, radio::RadioConfig{}, radio::EnergyModel{}, 2);
  core::UniformSelector selector(core::IdSpace(8), 3);
  aff::AffDriverConfig config;
  config.wire = aff::WireConfig{8, true};
  ASSERT_TRUE(config.truth_reassembly);
  aff::AffDriver driver(radio, selector, config, 0);
  std::size_t aff_packets = 0;
  std::size_t truth_packets = 0;
  driver.set_packet_handler([&](util::BytesView) { ++aff_packets; });
  driver.set_truth_packet_handler([&](util::BytesView) { ++truth_packets; });

  const std::vector<util::Bytes> frames = interleaved_round(config.wire);
  const sim::Duration slot = radio.airtime(radio.config().max_frame_bytes);
  const auto round = [&] {
    for (const util::Bytes& frame : frames) {
      medium.transmit(1, util::Bytes(frame), slot);
    }
    const std::uint64_t before = util::alloc_count();
    sim.run();
    return util::alloc_count() - before;
  };
  round();  // warmup
  aff_packets = truth_packets = 0;
  EXPECT_EQ(round(), 0u) << "AFF receive allocated in steady state";
  EXPECT_EQ(aff_packets, kRxPackets);
  EXPECT_EQ(truth_packets, kRxPackets);
}

// The AFF send path end to end: an instrumented driver encodes each
// packet's frames into its one reused buffer, the radio queues them in
// capacity-keeping ring slots, the medium copies each into a pooled buffer,
// and a peer receiver with truth on reassembles and delivers them. A round
// of sends drained by sim.run() allocates nothing after one warm-up round.
TEST(AllocHotPath, AffDriverSendIsAllocationFree) {
  sim::Simulator sim;
  sim::BroadcastMedium medium(sim, sim::Topology::full_mesh(2), {}, 1);
  radio::Radio tx_radio(medium, 0, radio::RadioConfig{}, radio::EnergyModel{},
                        2);
  radio::Radio rx_radio(medium, 1, radio::RadioConfig{}, radio::EnergyModel{},
                        3);
  core::UniformSelector tx_selector(core::IdSpace(8), 4);
  core::UniformSelector rx_selector(core::IdSpace(8), 5);
  aff::AffDriverConfig config;
  config.wire = aff::WireConfig{8, true};
  ASSERT_TRUE(config.truth_reassembly);
  aff::AffDriver sender(tx_radio, tx_selector, config, 1);
  aff::AffDriver receiver(rx_radio, rx_selector, config, 0);
  std::size_t aff_packets = 0;
  std::size_t truth_packets = 0;
  receiver.set_packet_handler([&](util::BytesView) { ++aff_packets; });
  receiver.set_truth_packet_handler([&](util::BytesView) { ++truth_packets; });

  std::vector<util::Bytes> packets;
  for (std::size_t p = 0; p < kRxPackets; ++p) {
    packets.push_back(util::random_payload(kRxPacketBytes, 60 + p));
  }
  const auto round = [&] {
    const std::uint64_t before = util::alloc_count();
    for (const util::Bytes& packet : packets) {
      EXPECT_TRUE(sender.send_packet(packet).ok());
    }
    sim.run();
    return util::alloc_count() - before;
  };
  round();  // warmup
  aff_packets = truth_packets = 0;
  EXPECT_EQ(round(), 0u) << "AFF send allocated in steady state";
  EXPECT_EQ(aff_packets, kRxPackets);
  EXPECT_EQ(truth_packets, kRxPackets);
}

// A saturating TrafficSource feeding the same stack: each poll is one
// EventHandle, each packet refills one payload buffer. After a 2 s warm-up
// round, the next 2 s of simulated traffic, drained by sim.run(), allocate
// nothing.
TEST(AllocHotPath, SaturatingTrafficSourceIsAllocationFree) {
  sim::Simulator sim;
  sim::BroadcastMedium medium(sim, sim::Topology::full_mesh(2), {}, 1);
  radio::Radio tx_radio(medium, 1, radio::RadioConfig{}, radio::EnergyModel{},
                        2);
  radio::Radio rx_radio(medium, 0, radio::RadioConfig{}, radio::EnergyModel{},
                        3);
  core::UniformSelector tx_selector(core::IdSpace(8), 4);
  core::UniformSelector rx_selector(core::IdSpace(8), 5);
  aff::AffDriverConfig config;
  config.wire = aff::WireConfig{8, true};
  aff::AffDriver sender(tx_radio, tx_selector, config, 1);
  aff::AffDriver receiver(rx_radio, rx_selector, config, 0);
  std::size_t truth_packets = 0;
  receiver.set_truth_packet_handler([&](util::BytesView) { ++truth_packets; });
  apps::TrafficSource source(
      sim, sender, std::make_unique<apps::SaturatingWorkload>(kRxPacketBytes),
      6);

  const auto round = [&] {
    const std::uint64_t before = util::alloc_count();
    source.start(sim.now() + sim::Duration::seconds(2));
    sim.run();
    return util::alloc_count() - before;
  };
  round();  // warmup
  const std::uint64_t sent_before = source.packets_sent();
  truth_packets = 0;
  EXPECT_EQ(round(), 0u) << "saturating source allocated in steady state";
  EXPECT_GT(source.packets_sent(), sent_before);
  EXPECT_EQ(truth_packets, source.packets_sent() - sent_before);
}

TEST(AllocHotPath, SharedBytesClonesOnlyWhenSharedAndMutated) {
  util::SharedBytes payload{util::random_payload(64, 9)};
  const util::SharedBytes alias = payload;
  EXPECT_EQ(payload.use_count(), 2);

  // Reading never clones.
  const std::uint64_t before_read = util::alloc_count();
  EXPECT_EQ(alias.view().size(), 64u);
  EXPECT_EQ(util::alloc_count() - before_read, 0u);

  // Mutating while shared clones exactly once and detaches.
  payload.mutable_bytes()[0] ^= 0xff;
  EXPECT_EQ(payload.use_count(), 1);
  EXPECT_EQ(alias.use_count(), 1);
  EXPECT_NE(payload.bytes()[0], alias.bytes()[0]);

  // Mutating an unshared buffer allocates nothing.
  const std::uint64_t before_unshared = util::alloc_count();
  payload.mutable_bytes()[1] ^= 0xff;
  EXPECT_EQ(util::alloc_count() - before_unshared, 0u);
}

}  // namespace
