// Construction-time config validation: malformed configurations must fail
// loudly with std::invalid_argument naming the offending field, never run
// a silently-nonsensical simulation. One suite per validated() overload.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "aff/driver.hpp"
#include "aff/reassembler.hpp"
#include "aff/wire.hpp"
#include "apps/interest.hpp"
#include "core/selector.hpp"
#include "net/addressed_frag.hpp"
#include "radio/radio.hpp"
#include "radio/duty_cycle.hpp"
#include "sim/medium.hpp"
#include "sim/mobility.hpp"
#include "sim/topology.hpp"
#include "util/validate.hpp"

namespace retri {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

TEST(MediumConfigValidation, RejectsBadLossAndDelay) {
  sim::MediumConfig config;
  config.per_link_loss = kNan;
  EXPECT_THROW((void)sim::validated(config), std::invalid_argument);

  config = sim::MediumConfig{};
  config.per_link_loss = -0.01;
  EXPECT_THROW((void)sim::validated(config), std::invalid_argument);

  config = sim::MediumConfig{};
  config.per_link_loss = 1.01;
  EXPECT_THROW((void)sim::validated(config), std::invalid_argument);

  config = sim::MediumConfig{};
  config.propagation_delay = sim::Duration::milliseconds(-1);
  EXPECT_THROW((void)sim::validated(config), std::invalid_argument);

  EXPECT_NO_THROW((void)sim::validated(sim::MediumConfig{}));
  config = sim::MediumConfig{};
  config.per_link_loss = 1.0;  // boundary is legal
  EXPECT_NO_THROW((void)sim::validated(config));
}

TEST(MediumConfigValidation, ConstructorEnforcesIt) {
  sim::Simulator sim;
  sim::MediumConfig config;
  config.per_link_loss = 2.0;
  EXPECT_THROW(
      sim::BroadcastMedium(sim, sim::Topology::full_mesh(2), config, 1),
      std::invalid_argument);
}

TEST(ReassemblerConfigValidation, RejectsZeroTimeoutAndCapacity) {
  aff::ReassemblerConfig config;
  config.timeout = sim::Duration::nanoseconds(0);
  EXPECT_THROW((void)aff::validated(config), std::invalid_argument);

  config = aff::ReassemblerConfig{};
  config.timeout = sim::Duration::seconds(-1);
  EXPECT_THROW((void)aff::validated(config), std::invalid_argument);

  config = aff::ReassemblerConfig{};
  config.max_entries = 0;
  EXPECT_THROW((void)aff::validated(config), std::invalid_argument);

  EXPECT_NO_THROW((void)aff::validated(aff::ReassemblerConfig{}));
  config = aff::ReassemblerConfig{};
  config.max_entries = 1;  // boundary is legal
  EXPECT_NO_THROW((void)aff::validated(config));
}

TEST(ReassemblerConfigValidation, ConstructorEnforcesIt) {
  aff::ReassemblerConfig config;
  config.max_entries = 0;
  EXPECT_THROW(aff::Reassembler{config}, std::invalid_argument);
}

TEST(AffDriverConfigValidation, RejectsBadIdBitsTimeoutsAndCapacity) {
  aff::AffDriverConfig config;
  config.wire.id_bits = 0;
  EXPECT_THROW((void)aff::validated(config), std::invalid_argument);

  config = aff::AffDriverConfig{};
  config.wire.id_bits = 65;
  EXPECT_THROW((void)aff::validated(config), std::invalid_argument);

  config = aff::AffDriverConfig{};
  config.reassembly_timeout = sim::Duration::nanoseconds(0);
  EXPECT_THROW((void)aff::validated(config), std::invalid_argument);

  config = aff::AffDriverConfig{};
  config.max_reassembly_entries = 0;
  EXPECT_THROW((void)aff::validated(config), std::invalid_argument);

  EXPECT_NO_THROW((void)aff::validated(aff::AffDriverConfig{}));
  config = aff::AffDriverConfig{};
  config.wire.id_bits = 64;  // boundary is legal
  EXPECT_NO_THROW((void)aff::validated(config));
}

/// The message of the std::invalid_argument `make` throws; empty when it
/// throws nothing.
template <typename Make>
std::string invalid_argument_message(Make&& make) {
  try {
    make();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(AffDriverConfigValidation, ConstructorRejectsSelectorWiderThanWire) {
  // A 10-bit selector on an 8-bit wire would have its ids masked to 8 bits
  // on the wire; the check must hold in every build, not only under
  // assert.
  sim::Simulator sim;
  sim::BroadcastMedium medium(sim, sim::Topology::full_mesh(1), {}, 1);
  radio::Radio radio(medium, 0, radio::RadioConfig{}, radio::EnergyModel{}, 1);
  core::UniformSelector wide(core::IdSpace(10), 2);
  aff::AffDriverConfig config;
  config.wire.id_bits = 8;
  EXPECT_EQ(invalid_argument_message(
                [&] { aff::AffDriver driver(radio, wide, config, 0); }),
            "AffDriverConfig.wire.id_bits must equal the selector's id width "
            "of 10 bits, got 8");
  config.wire.id_bits = 10;
  EXPECT_NO_THROW(aff::AffDriver(radio, wide, config, 0));
}

TEST(AddressedConfigValidation, ConstructorRejectsSourceWiderThanAddrBits) {
  // A 9-bit source address on an 8-bit address field would be masked on
  // the wire, and reassembly would key another node's packets under it.
  sim::Simulator sim;
  sim::BroadcastMedium medium(sim, sim::Topology::full_mesh(1), {}, 1);
  radio::Radio radio(medium, 0, radio::RadioConfig{}, radio::EnergyModel{}, 1);
  net::AddressedConfig config;
  config.addr_bits = 8;
  EXPECT_EQ(invalid_argument_message([&] {
              net::AddressedDriver driver(radio, net::Address(0x1ff), config);
            }),
            "AddressedConfig.addr_bits must cover the source address 511, "
            "got 8");
  EXPECT_NO_THROW(net::AddressedDriver(radio, net::Address(0xff), config));
}

TEST(ValidatorPrimitives, PositiveAndNonNegative) {
  util::Validator v("Thing");
  EXPECT_NO_THROW(v.positive("x", 0.5));
  EXPECT_THROW(v.positive("x", 0.0), std::invalid_argument);
  EXPECT_THROW(v.positive("x", -1.0), std::invalid_argument);
  EXPECT_THROW(v.positive("x", kNan), std::invalid_argument);

  EXPECT_NO_THROW(v.non_negative("y", 0.0));  // boundary is legal
  EXPECT_THROW(v.non_negative("y", -0.1), std::invalid_argument);
  EXPECT_THROW(v.non_negative("y", kNan), std::invalid_argument);
}

TEST(WireConfigValidation, RejectsBadIdBits) {
  aff::WireConfig config;
  config.id_bits = 0;
  EXPECT_THROW((void)aff::validated(config), std::invalid_argument);
  config.id_bits = 65;
  EXPECT_THROW((void)aff::validated(config), std::invalid_argument);
  config.id_bits = 64;  // boundary is legal
  EXPECT_NO_THROW((void)aff::validated(config));
}

TEST(SensorConfigValidation, RejectsInvertedPeriods) {
  apps::SensorConfig config;
  config.base_period = sim::Duration::seconds(0);
  EXPECT_THROW((void)apps::validated(config), std::invalid_argument);

  // The cross-field constraint: reinforcement must not slow sensing down.
  config = apps::SensorConfig{};
  config.reinforced_period = config.base_period + sim::Duration::seconds(1);
  EXPECT_THROW((void)apps::validated(config), std::invalid_argument);

  config = apps::SensorConfig{};
  config.recent_ids = 0;
  EXPECT_THROW((void)apps::validated(config), std::invalid_argument);

  EXPECT_NO_THROW((void)apps::validated(apps::SensorConfig{}));
}

TEST(DutyCycleConfigValidation, RejectsBadPeriodAndFraction) {
  radio::DutyCycleConfig config;
  config.period = sim::Duration::nanoseconds(0);
  EXPECT_THROW((void)radio::validated(config), std::invalid_argument);

  config = radio::DutyCycleConfig{};
  config.on_fraction = 1.5;
  EXPECT_THROW((void)radio::validated(config), std::invalid_argument);

  config = radio::DutyCycleConfig{};
  config.phase = sim::Duration::milliseconds(-1);
  EXPECT_THROW((void)radio::validated(config), std::invalid_argument);

  // Always-off and always-on are both legal operating points (the energy
  // ablation sweeps straight through them).
  config = radio::DutyCycleConfig{};
  config.on_fraction = 0.0;
  EXPECT_NO_THROW((void)radio::validated(config));
  config.on_fraction = 1.0;
  EXPECT_NO_THROW((void)radio::validated(config));
}

TEST(MobilityConfigValidation, RejectsInvertedSpeedRange) {
  sim::MobilityConfig config;
  config.field_side = 0.0;
  EXPECT_THROW((void)sim::validated(config), std::invalid_argument);

  config = sim::MobilityConfig{};
  config.speed_min = 3.0;  // > speed_max of 2.0
  EXPECT_THROW((void)sim::validated(config), std::invalid_argument);

  config = sim::MobilityConfig{};
  config.speed_min = 0.0;  // stationary low end is legal
  EXPECT_NO_THROW((void)sim::validated(config));
}

}  // namespace
}  // namespace retri
