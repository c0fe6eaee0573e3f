// runner sweeps: grid expansion, the named-sweep registry behind
// retri_bench, parallel determinism at the sweep level, and ResultSink's
// JSON artifact (valid, byte-identical across worker counts, and built
// from the memo store's own encodings).
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "runner/codec.hpp"
#include "runner/result_sink.hpp"
#include "runner/seeds.hpp"
#include "runner/sweep.hpp"
#include "util/json_parse.hpp"

namespace runner = retri::runner;

namespace {

runner::SweepSpec tiny_spec() {
  runner::SweepSpec spec;
  spec.name = "tiny";
  spec.description = "unit-test grid";
  spec.trials = 2;
  spec.base.senders = 3;
  spec.base.packet_bytes = 40;
  spec.base.send_duration = retri::sim::Duration::seconds(1);
  spec.base.drain_extra = retri::sim::Duration::seconds(1);
  spec.base.seed = 7;
  spec.id_bits = {2, 3};
  spec.selectors = {retri::core::uniform_selector(),
                    retri::core::listening_selector()};
  return spec;
}

}  // namespace

TEST(SweepSpec, ExpandsCartesianGridInFixedOrder) {
  const auto spec = tiny_spec();
  EXPECT_EQ(spec.point_count(), 4u);
  const auto points = spec.expand();
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].label, "H=2 uniform");
  EXPECT_EQ(points[1].label, "H=2 listening");
  EXPECT_EQ(points[2].label, "H=3 uniform");
  EXPECT_EQ(points[3].label, "H=3 listening");
  EXPECT_EQ(points[2].config.id_bits, 3u);
  EXPECT_EQ(points[1].config.selector.policy,
            retri::core::SelectorPolicy::kListening);
  // Non-axis fields come from the base template.
  for (const auto& point : points) {
    EXPECT_EQ(point.config.senders, 3u);
    EXPECT_EQ(point.config.packet_bytes, 40u);
  }
}

TEST(SweepSpec, PointSeedsAreDistinctAndDeterministic) {
  const auto points_a = tiny_spec().expand();
  const auto points_b = tiny_spec().expand();
  std::set<std::uint64_t> seeds;
  for (std::size_t p = 0; p < points_a.size(); ++p) {
    EXPECT_EQ(points_a[p].config.seed, points_b[p].config.seed);
    seeds.insert(points_a[p].config.seed);
  }
  EXPECT_EQ(seeds.size(), points_a.size());
}

TEST(SweepSpec, NotifyPolicyImpliesCollisionNotifications) {
  runner::SweepSpec spec;
  spec.selectors = {
      retri::core::listening_selector(),
      retri::core::listening_selector(/*heed_notifications=*/true)};
  const auto points = spec.expand();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_FALSE(points[0].config.collision_notifications);
  EXPECT_TRUE(points[1].config.collision_notifications);
  EXPECT_EQ(points[0].label, "listening");
  EXPECT_EQ(points[1].label, "listening+notify");
}

TEST(SweepSpec, AttackerAxisOverridesOnlyTheMode) {
  runner::SweepSpec spec;
  spec.base.attacker.junk_bytes = 23;
  spec.attackers = {retri::fault::AttackerMode::kOff,
                    retri::fault::AttackerMode::kBlindFlood,
                    retri::fault::AttackerMode::kEchoCollide};
  const auto points = spec.expand();
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].config.attacker.mode, retri::fault::AttackerMode::kOff);
  EXPECT_EQ(points[1].config.attacker.mode,
            retri::fault::AttackerMode::kBlindFlood);
  EXPECT_EQ(points[2].config.attacker.mode,
            retri::fault::AttackerMode::kEchoCollide);
  EXPECT_EQ(points[1].label, "atk=blind_flood");
  for (const auto& point : points) {
    EXPECT_EQ(point.config.attacker.junk_bytes, 23u);  // base plan rides along
  }
}

TEST(SweepSpec, EmptyAxesYieldSingleBasePoint) {
  runner::SweepSpec spec;
  const auto points = spec.expand();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].label, "base");
}

TEST(NamedSweeps, RegistryCoversFiguresAndAblations) {
  const auto names = runner::named_sweeps();
  EXPECT_GE(names.size(), 8u);
  for (const std::string_view name : names) {
    const auto spec = runner::make_named_sweep(name);
    ASSERT_TRUE(spec.ok()) << name;
    EXPECT_EQ(spec.value().name, name);
    EXPECT_FALSE(spec.value().description.empty()) << name;
    EXPECT_GE(spec.value().point_count(), 2u) << name;
  }
  // An unknown name fails with an error that names every real sweep, so a
  // typo'd --sweep is self-correcting at the CLI.
  const auto unknown = runner::make_named_sweep("no_such_sweep");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.error().find("no_such_sweep"), std::string::npos);
  for (const std::string_view name : names) {
    EXPECT_NE(unknown.error().find(name), std::string::npos) << name;
  }
  // The validation grid: widths 1..10 x {uniform, listening}.
  EXPECT_EQ(runner::make_named_sweep("fig4").value().point_count(), 20u);
}

TEST(SweepRunner, ParallelSweepMatchesSerialAndExportsStableJson) {
  const auto spec = tiny_spec();

  runner::SweepOptions serial;
  serial.jobs = 1;
  std::size_t points_seen = 0;
  runner::SweepOptions parallel;
  parallel.jobs = 4;
  parallel.on_point_done = [&points_seen](const runner::SweepProgress& p) {
    EXPECT_EQ(p.points_total, 4u);
    ++points_seen;
  };

  const auto a = runner::SweepRunner(serial).run(spec);
  const auto b = runner::SweepRunner(parallel).run(spec);
  EXPECT_EQ(points_seen, 4u);

  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t p = 0; p < a.points.size(); ++p) {
    SCOPED_TRACE(a.points[p].label);
    ASSERT_EQ(a.points[p].trials.size(), 2u);
    for (std::size_t t = 0; t < a.points[p].trials.size(); ++t) {
      EXPECT_EQ(a.points[p].trials[t].aff_delivered,
                b.points[p].trials[t].aff_delivered);
      EXPECT_EQ(a.points[p].trials[t].truth_delivered,
                b.points[p].trials[t].truth_delivered);
      EXPECT_EQ(a.points[p].trials[t].delivery_ratio(),
                b.points[p].trials[t].delivery_ratio());
    }
    EXPECT_EQ(a.points[p].summary.collision_loss.outcomes(),
              b.points[p].summary.collision_loss.outcomes());
  }

  // The artifact is a pure function of the results: byte-identical across
  // worker counts, structurally valid JSON, schema-versioned.
  const std::string json_a = runner::ResultSink::to_json(a);
  const std::string json_b = runner::ResultSink::to_json(b);
  EXPECT_EQ(json_a, json_b);
  EXPECT_TRUE(retri::util::parse_json(json_a).ok());
  EXPECT_NE(json_a.find("\"schema\": \"retri.sweep-result\""),
            std::string::npos);
  EXPECT_NE(json_a.find("\"schema_version\": 7"), std::string::npos);
  EXPECT_NE(json_a.find("\"delivery_ratio\""), std::string::npos);
  // v3: per-trial metrics snapshots and the trial-order metrics fold.
  EXPECT_NE(json_a.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json_a.find("\"metrics_total\""), std::string::npos);
  EXPECT_NE(json_a.find("\"medium.frames_sent\""), std::string::npos);
  EXPECT_NE(json_a.find("\"ci95_hi\""), std::string::npos);
  EXPECT_NE(json_a.find("H=2 uniform"), std::string::npos);
  // Compact mode is valid too.
  EXPECT_TRUE(
      retri::util::parse_json(runner::ResultSink::to_json(a, false)).ok());
}

// One encoding per type: the artifact embeds, byte for byte, the config
// encoding the memo store keys cells by and the result body it stores, and
// each trial's embedded result decodes back to that trial.
TEST(ResultSink, EmbedsTheMemoEncodingsVerbatim) {
  runner::SweepSpec spec = tiny_spec();
  spec.base.send_duration = retri::sim::Duration::milliseconds(500);
  spec.base.drain_extra = retri::sim::Duration::milliseconds(500);
  const runner::SweepResult result = runner::SweepRunner(runner::SweepOptions{}).run(spec);
  const std::string artifact = runner::ResultSink::to_json(result, false);

  for (const runner::SweepPointResult& point : result.points) {
    SCOPED_TRACE(point.label);
    EXPECT_NE(
        artifact.find("\"config\":" + runner::canonical_cell(point.config)),
        std::string::npos);
    for (const runner::ExperimentResult& trial : point.trials) {
      EXPECT_NE(artifact.find("\"result\":" + runner::encode_result(trial)),
                std::string::npos);
    }
  }

  const auto doc = retri::util::parse_json(artifact);
  ASSERT_TRUE(doc.ok());
  const retri::util::JsonValue* points = doc.value().find("points");
  ASSERT_NE(points, nullptr);
  ASSERT_EQ(points->size(), result.points.size());
  for (std::size_t p = 0; p < result.points.size(); ++p) {
    const retri::util::JsonValue* trials = (*points)[p].find("trials");
    ASSERT_NE(trials, nullptr);
    ASSERT_EQ(trials->size(), result.points[p].trials.size());
    for (std::size_t t = 0; t < trials->size(); ++t) {
      const runner::ExperimentResult& trial = result.points[p].trials[t];
      const retri::util::JsonValue* body = (*trials)[t].find("result");
      ASSERT_NE(body, nullptr);
      const auto decoded = runner::decode_result(*body);
      ASSERT_TRUE(decoded.ok()) << decoded.error();
      EXPECT_EQ(runner::fingerprint(decoded.value()),
                runner::fingerprint(trial));
      EXPECT_EQ(decoded.value().metrics, trial.metrics);
      EXPECT_EQ((*trials)[t].u64("seed"),
                runner::derive_trial_seed(result.points[p].config.seed, t));
    }
  }
}
