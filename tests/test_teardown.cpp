// Teardown: a component that hands `this` to the simulator or to a radio
// takes it back in its destructor, cancelling its timers and clearing the
// callbacks it installed (DESIGN.md §5e). Each case builds one component
// on a live radio or medium and arms it, then destroys it mid-run while a
// peer keeps transmitting into its radio. For the next two simulated
// seconds nothing of the dead component may run: a timer or callback that
// still fired would toggle the receiver, flip a node, change a link or
// send a frame, and under ASan it is a heap-use-after-free.
#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <vector>

#include <gtest/gtest.h>

#include "aff/driver.hpp"
#include "apps/codebook.hpp"
#include "apps/diffusion.hpp"
#include "apps/interest.hpp"
#include "core/selector.hpp"
#include "fault/churn.hpp"
#include "net/addressed_frag.hpp"
#include "net/central_alloc.hpp"
#include "net/dynamic_alloc.hpp"
#include "radio/duty_cycle.hpp"
#include "radio/radio.hpp"
#include "sim/mobility.hpp"
#include "util/bytes.hpp"

namespace retri {
namespace {

sim::TimePoint at_ms(std::int64_t ms) {
  return sim::TimePoint::origin() + sim::Duration::milliseconds(ms);
}

// The component dies at kDeath, inside an awake window of the duty cycle
// case, and the run goes on for two more seconds.
const sim::TimePoint kDeath = at_ms(1010);
const sim::TimePoint kEnd = at_ms(3010);
const sim::Duration kPeerPeriod = sim::Duration::milliseconds(20);

// Node 0 carries the component's radio, node 1 the peer that transmits
// into it every 20 ms, and node 2 a bystander that the churn case governs
// and the Radio case takes.
struct Rig {
  Rig()
      : medium(sim, sim::Topology::full_mesh(3), {}, 7),
        radio(medium, 0, {}, {}, 100),
        peer(medium, 1, {}, {}, 101) {}

  sim::Simulator sim;
  sim::BroadcastMedium medium;
  radio::Radio radio;
  radio::Radio peer;
  core::UniformSelector selector{core::IdSpace(8), 5};
};

// The component under test, type-erased so that one suite covers them
// all; resetting it runs the component's destructor.
using Owner = std::shared_ptr<void>;

struct Armed {
  Owner owner;
  // True when the component has a timer pending or its callback installed
  // and in use at kDeath, so the case cannot pass vacuously.
  std::function<bool()> armed;
};

struct TeardownCase {
  const char* name;
  // Builds the component on the rig at time 0 and arms it.
  std::function<Armed(Rig&)> build;
  // The peer's i-th frame: one the component would act on.
  util::Bytes (*peer_frame)(std::size_t i);
};

void PrintTo(const TeardownCase& c, std::ostream* os) { *os << c.name; }

util::Bytes junk_frame(std::size_t i) {
  return {0xab, static_cast<std::uint8_t>(i)};
}

std::uint8_t low_byte(std::size_t i) { return static_cast<std::uint8_t>(i); }

// Keeps the peer sending its case's frames until kEnd.
struct PeerTraffic {
  Rig& rig;
  util::Bytes (*frame)(std::size_t);
  std::size_t next = 0;

  void tick() {
    if (rig.sim.now() >= kEnd) return;
    rig.peer.send(frame(next++));
    rig.sim.schedule_after(kPeerPeriod, [this] { tick(); });
  }
};

// What the dead component could change, read at one instant.
struct Observed {
  bool listening = false;
  std::vector<bool> enabled;
  std::vector<bool> links;

  bool operator==(const Observed&) const = default;
};

Observed observe(const Rig& rig) {
  Observed o;
  o.listening = rig.radio.listening();
  const std::size_t n = rig.medium.topology().size();
  for (sim::NodeId a = 0; a < n; ++a) {
    o.enabled.push_back(rig.medium.enabled(a));
    for (sim::NodeId b = 0; b < n; ++b) {
      o.links.push_back(rig.medium.topology().hears(a, b));
    }
  }
  return o;
}

class TeardownTest : public ::testing::TestWithParam<TeardownCase> {};

TEST_P(TeardownTest, NothingOfTheDeadComponentRuns) {
  Rig rig;
  Armed component = GetParam().build(rig);
  PeerTraffic traffic{rig, GetParam().peer_frame};
  traffic.tick();
  rig.sim.run_until(kDeath);

  ASSERT_TRUE(component.armed()) << "the component was not armed at death";
  // The component's radio still hears the peer, so it keeps receiving.
  ASSERT_TRUE(rig.radio.listening());
  ASSERT_TRUE(rig.medium.topology().hears(0, 1));
  ASSERT_TRUE(rig.medium.enabled(0) && rig.medium.enabled(1));

  const Observed at_death = observe(rig);
  const radio::RadioCounters radio_at_death = rig.radio.counters();
  const std::size_t queued_at_death = rig.radio.queue_depth();
  const std::uint64_t peer_sent_at_death = rig.peer.counters().frames_sent;
  const std::uint64_t medium_sent_at_death = rig.medium.stats().frames_sent;
  component.owner.reset();

  // Probe every 5 ms: none of what the component drove may change.
  std::uint64_t changes = 0;
  std::function<void()> probe = [&] {
    if (!(observe(rig) == at_death)) ++changes;
    if (rig.sim.now() >= kEnd) return;
    rig.sim.schedule_after(sim::Duration::milliseconds(5),
                           [&probe] { probe(); });
  };
  probe();
  rig.sim.run_until(kEnd);

  EXPECT_EQ(changes, 0u) << "a receiver, node or link changed after death";
  // The component's radio sends what was queued at death and nothing more,
  // and the only other frames on the air are the peer's.
  EXPECT_EQ(rig.radio.counters().frames_sent,
            radio_at_death.frames_sent + queued_at_death);
  EXPECT_EQ(rig.medium.stats().frames_sent - medium_sent_at_death,
            rig.peer.counters().frames_sent - peer_sent_at_death +
                queued_at_death);
  EXPECT_GT(rig.radio.counters().frames_received,
            radio_at_death.frames_received);
}

TeardownCase radio_case() {
  return {"Radio",
          [](Rig& rig) {
            auto radio = std::make_shared<radio::Radio>(
                rig.medium, 2, radio::RadioConfig{}, radio::EnergyModel{},
                102);
            radio::Radio* r = radio.get();
            // 1 ms before death: the first frame goes on the air (4 ms of
            // airtime) and the second waits behind it.
            rig.sim.schedule_at(at_ms(1009), [r] {
              r->send(util::Bytes(20, 0x11));
              r->send(util::Bytes(20, 0x22));
            });
            return Armed{radio, [r] {
                           return r->counters().frames_sent == 1 &&
                                  r->queue_depth() == 1;
                         }};
          },
          junk_frame};
}

TeardownCase aff_driver_case() {
  return {"AffDriver",
          [](Rig& rig) {
            aff::AffDriverConfig config;
            config.wire.id_bits = 8;
            auto driver = std::make_shared<aff::AffDriver>(
                rig.radio, rig.selector, config, 0);
            EXPECT_TRUE(driver->send_packet(util::random_payload(80, 1)).ok());
            aff::AffDriver* d = driver.get();
            return Armed{driver, [d] {
                           return d->aff_reassembler().pending_count() > 0;
                         }};
          },
          [](std::size_t i) {
            return aff::encode_intro(
                aff::WireConfig{8, false},
                {core::TransactionId(low_byte(i)), 80, 7});
          }};
}

TeardownCase diffusion_case() {
  return {"DiffusionNode",
          [](Rig& rig) {
            auto node = std::make_shared<apps::DiffusionNode>(
                rig.radio, rig.selector, apps::DiffusionConfig{}, 1);
            node->subscribe({{"t", "x"}}, [](std::uint16_t, std::uint32_t) {});
            apps::DiffusionNode* n = node.get();
            return Armed{node, [n] { return n->live_gradients() > 0; }};
          },
          [](std::size_t i) {
            // A fresh interest each time, which the node would relay.
            util::Bytes frame = {0x52, low_byte(i), 0, 0, 0, 9, 3};
            const util::Bytes attrs = apps::serialize_attributes({{"t", "y"}});
            frame.insert(frame.end(), attrs.begin(), attrs.end());
            return frame;
          }};
}

TeardownCase interest_sensor_case() {
  return {"InterestSensor",
          [](Rig& rig) {
            auto sensor = std::make_shared<apps::InterestSensor>(
                rig.radio, rig.selector, apps::SensorConfig{}, 1,
                [] { return std::uint16_t{5}; });
            sensor->start(kEnd + sim::Duration::seconds(10));
            apps::InterestSensor* s = sensor.get();
            return Armed{sensor,
                         [s] { return s->stats().readings_sent > 0; }};
          },
          [](std::size_t i) {
            // Readings and reinforcements in turn.
            if (i % 2 == 0) {
              return util::Bytes{0x31, low_byte(i), 0, 0, 0, 2, 0x12, 0x34};
            }
            return util::Bytes{0x32, low_byte(i), 0, 0, 0, 1};
          }};
}

TeardownCase interest_sink_case() {
  return {"InterestSink",
          [](Rig& rig) {
            auto sink = std::make_shared<apps::InterestSink>(
                rig.radio, apps::SinkConfig{});
            apps::InterestSink* s = sink.get();
            return Armed{sink, [s] { return s->stats().readings_heard > 0; }};
          },
          [](std::size_t i) {
            // An interesting reading, which the sink would reinforce.
            return util::Bytes{0x31, low_byte(i), 0, 0, 0, 2, 0xff, 0xff};
          }};
}

TeardownCase addressed_driver_case() {
  return {"AddressedDriver",
          [](Rig& rig) {
            auto driver = std::make_shared<net::AddressedDriver>(
                rig.radio, net::Address(5), net::AddressedConfig{});
            EXPECT_TRUE(driver->send_packet(util::random_payload(80, 2)).ok());
            net::AddressedDriver* d = driver.get();
            return Armed{driver, [d] {
                           return d->reassembler().pending_count() > 0;
                         }};
          },
          [](std::size_t i) {
            // An intro from address 6, sequence i: it opens an entry and
            // arms the expiry timer.
            return util::Bytes{0x11, 0x00, 0x06, 0x00, low_byte(i), 0x00,
                               0x50, 0,    0,    0,    1};
          }};
}

TeardownCase central_server_case() {
  return {"CentralAllocServer",
          [](Rig& rig) {
            auto server =
                std::make_shared<net::CentralAllocServer>(rig.radio, 10);
            net::CentralAllocServer* s = server.get();
            return Armed{server,
                         [s] { return s->stats().requests_served > 0; }};
          },
          [](std::size_t i) {
            return util::Bytes{0x25, 0, 0, 0, low_byte(i)};
          }};
}

TeardownCase central_client_case() {
  return {"CentralAllocClient",
          [](Rig& rig) {
            // No server answers: the client retries every 500 ms.
            auto client = std::make_shared<net::CentralAllocClient>(
                rig.radio, net::CentralClientConfig{}, 8);
            client->start();
            net::CentralAllocClient* c = client.get();
            return Armed{client, [c] {
                           return !c->has_address() &&
                                  c->stats().requests_sent > 0;
                         }};
          },
          [](std::size_t i) {
            // Grants for someone else's nonce.
            return util::Bytes{0x26, 0, 0, 0, low_byte(i), 0, 9};
          }};
}

TeardownCase dyn_alloc_case() {
  return {"DynAllocNode",
          [](Rig& rig) {
            // Claims wait past kDeath, so the confirm timer is pending.
            net::DynAllocConfig config;
            config.claim_wait = sim::Duration::seconds(2);
            auto node =
                std::make_shared<net::DynAllocNode>(rig.radio, config, 7);
            node->start();
            net::DynAllocNode* n = node.get();
            return Armed{node, [n] {
                           return !n->has_address() &&
                                  n->stats().claims_sent > 0;
                         }};
          },
          [](std::size_t i) {
            // Claims that lose every tie-break (the highest nonce).
            return util::Bytes{0x21, 0, low_byte(i), 0xff, 0xff, 0xff, 0xff};
          }};
}

TeardownCase duty_cycle_case() {
  return {"DutyCycleController",
          [](Rig& rig) {
            radio::DutyCycleConfig config;
            config.on_fraction = 0.5;
            auto duty =
                std::make_shared<radio::DutyCycleController>(rig.radio, config);
            radio::DutyCycleController* d = duty.get();
            return Armed{duty, [d] {
                           // It has slept, so it has been toggling.
                           return d->awake_time() <
                                  kDeath - sim::TimePoint::origin();
                         }};
          },
          junk_frame};
}

TeardownCase churn_case() {
  return {"ChurnSchedule",
          [](Rig& rig) {
            fault::ChurnConfig config;
            config.mean_uptime = sim::Duration::milliseconds(50);
            config.mean_downtime = sim::Duration::milliseconds(50);
            auto churn = std::make_shared<fault::ChurnSchedule>(
                rig.medium, config, std::vector<sim::NodeId>{2}, 11,
                kEnd + sim::Duration::seconds(10));
            fault::ChurnSchedule* c = churn.get();
            return Armed{churn, [c] { return c->crashes() > 0; }};
          },
          junk_frame};
}

TeardownCase mobility_case() {
  return {"RandomWaypointMobility",
          [](Rig& rig) {
            // Seed 1 moves a link before kDeath and leaves nodes 0 and 1
            // in range at kDeath.
            sim::MobilityConfig config;
            config.field_side = 50.0;
            config.radio_range = 30.0;
            config.speed_min = 5.0;
            config.speed_max = 10.0;
            config.tick = sim::Duration::milliseconds(50);
            auto mobility = std::make_shared<sim::RandomWaypointMobility>(
                rig.medium, config, 1);
            sim::RandomWaypointMobility* m = mobility.get();
            const std::uint64_t placed = m->link_changes();
            return Armed{mobility,
                         [m, placed] { return m->link_changes() > placed; }};
          },
          junk_frame};
}

INSTANTIATE_TEST_SUITE_P(
    Components, TeardownTest,
    ::testing::Values(radio_case(), aff_driver_case(), diffusion_case(),
                      interest_sensor_case(), interest_sink_case(),
                      addressed_driver_case(), central_server_case(),
                      central_client_case(), dyn_alloc_case(),
                      duty_cycle_case(), churn_case(), mobility_case()),
    [](const ::testing::TestParamInfo<TeardownCase>& param_info) {
      return std::string(param_info.param.name);
    });

}  // namespace
}  // namespace retri
