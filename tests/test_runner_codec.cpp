// runner codec, the encodings the memo store keys and stores (hence the
// ServeCodec suite name): the canonical cell must carry every config field
// exactly (64-bit seeds, nanosecond durations), and every result body the
// memo store persists must survive encode → parse → decode → re-encode
// byte-identically. Byte-comparing the re-encoding is the strongest
// equality available and is exactly the property the cache's
// bit-identical-serving guarantee rests on.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "obs/metrics.hpp"
#include "runner/codec.hpp"
#include "runner/experiment.hpp"
#include "sim/time.hpp"
#include "util/json_parse.hpp"

namespace runner = retri::runner;
namespace util = retri::util;

namespace {

runner::ExperimentConfig gnarly_config() {
  runner::ExperimentConfig config;
  config.senders = 7;
  config.topology = runner::TopologyKind::kHiddenTerminal;
  config.id_bits = 12;
  config.selector =
      retri::core::listening_selector(/*heed_notifications=*/true);
  config.selector.listening.fixed_window = 9;
  config.selector.counter_salt = 0xfeedfacecafebeefull;  // 64-bit round-trip
  config.selector.permutation_period = 12345678901234ull;
  config.attacker.mode = retri::fault::AttackerMode::kEchoCollide;
  config.attacker.flood_interval = retri::sim::Duration::nanoseconds(7777777);
  config.attacker.echo_delay = retri::sim::Duration::nanoseconds(333);
  config.attacker.echo_probability = 0.625;
  config.attacker.junk_bytes = 11;
  config.packet_bytes = 240;
  config.per_sender_packet_bytes = {24, 240, 80};
  config.send_duration = retri::sim::Duration::nanoseconds(1234567891011LL);
  config.drain_extra = retri::sim::Duration::nanoseconds(987654321LL);
  config.collision_notifications = true;
  config.tx_jitter = retri::sim::Duration::nanoseconds(2000001);
  config.sender_listen_duty = 0.37;
  config.duty_period = retri::sim::Duration::nanoseconds(100000007);
  config.density_model = retri::core::DensityModelKind::kPeakWindow;
  config.loss_rate = 0.15;
  config.channel = runner::Channel::kBurst;
  config.seed = 11400714819323198485ull;  // does not survive a double
  return config;
}

runner::ExperimentResult gnarly_result() {
  runner::ExperimentResult result;
  result.packets_offered = 12345;
  result.aff_delivered = 12001;
  result.truth_delivered = 12100;
  result.checksum_failures = 3;
  result.conflicting_writes = 1;
  result.notifications_sent = 42;
  result.receiver_density_estimate = 6.125;
  result.tx_energy_nj = 98765.4321;
  result.tx_bits = 1u << 22;
  result.frames_attempted = 54321;
  result.frames_lost_channel = 8123;
  retri::obs::MetricsRegistry registry;
  registry.counter("medium.frames").inc(54321);
  registry.gauge("queue.depth").set(7);
  auto histogram = registry.histogram("reasm.size", {1.0, 4.0, 16.0});
  histogram.record(2.0);
  histogram.record(100.0);
  result.metrics = registry.snapshot();
  result.aff_by_size = {{24, 4000}, {240, 8001}};
  result.truth_by_size = {{24, 4040}, {240, 8060}};
  return result;
}

}  // namespace

TEST(ServeCodec, ConfigRoundTripsByteIdentically) {
  // The cell is the cache-key input, so every field must come back out of
  // it exactly: a value rounded on the way in would alias two configs.
  const runner::ExperimentConfig config = gnarly_config();
  const std::string cell = runner::canonical_cell(config);
  EXPECT_EQ(runner::canonical_cell(config), cell);  // pure function

  const auto doc = util::parse_json(cell);
  ASSERT_TRUE(doc.ok());
  const util::JsonValue& v = doc.value();
  EXPECT_EQ(v.u64("seed"), config.seed);
  EXPECT_EQ(v.i64("send_ns"), config.send_duration.ns());
  EXPECT_EQ(v.i64("drain_ns"), config.drain_extra.ns());
  EXPECT_EQ(v.u64("id_bits"), config.id_bits);
  EXPECT_EQ(v.str("channel"), "burst");
  const util::JsonValue* per_sender = v.find("per_sender_packet_bytes");
  ASSERT_NE(per_sender, nullptr);
  ASSERT_EQ(per_sender->size(), config.per_sender_packet_bytes.size());
  for (std::size_t i = 0; i < per_sender->size(); ++i) {
    EXPECT_EQ((*per_sender)[i].as_u64(), config.per_sender_packet_bytes[i]);
  }
  const util::JsonValue* selector = v.find("selector");
  ASSERT_NE(selector, nullptr);
  EXPECT_EQ(selector->u64("counter_salt"), config.selector.counter_salt);
  EXPECT_EQ(selector->u64("permutation_period"),
            config.selector.permutation_period);
  const util::JsonValue* attacker = v.find("attacker");
  ASSERT_NE(attacker, nullptr);
  EXPECT_EQ(attacker->i64("flood_interval_ns"),
            config.attacker.flood_interval.ns());
}

TEST(ServeCodec, CanonicalCellChangesWithTheSeed) {
  runner::ExperimentConfig config = gnarly_config();
  const std::string cell = runner::canonical_cell(config);
  config.seed += 1;
  EXPECT_NE(runner::canonical_cell(config), cell);
}

TEST(ServeCodec, ResultRoundTripsByteIdentically) {
  const runner::ExperimentResult result = gnarly_result();
  const std::string body = runner::encode_result(result);

  const auto decoded = runner::decode_result_text(body);
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_EQ(runner::encode_result(decoded.value()), body);
  // The fingerprint — what runner::memoize re-derives on every hit — must be
  // preserved exactly through the codec.
  EXPECT_EQ(runner::fingerprint(decoded.value()), runner::fingerprint(result));
  EXPECT_EQ(decoded.value().metrics, result.metrics);
  EXPECT_EQ(decoded.value().aff_by_size, result.aff_by_size);
}

TEST(ServeCodec, ResultDecodeRejectsTruncatedBodies) {
  const std::string body = runner::encode_result(gnarly_result());
  EXPECT_FALSE(runner::decode_result_text(body.substr(0, body.size() / 2)).ok());
  EXPECT_FALSE(runner::decode_result_text("{}").ok());
}
