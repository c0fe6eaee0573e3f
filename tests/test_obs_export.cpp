// Export-layer tests: the golden Perfetto fixture (byte-exact trace_event
// JSON from a hand-built recording), capture_trace's jobs invariance and
// span-stream integrity on a real experiment, the shared write path's
// error handling, and the metrics object's strict decoder.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "runner/observe.hpp"
#include "runner/seeds.hpp"
#include "sim/time.hpp"
#include "util/json.hpp"
#include "util/json_parse.hpp"

namespace obs = retri::obs;
namespace runner = retri::runner;
namespace sim = retri::sim;

namespace {

sim::TimePoint at_us(std::int64_t us) {
  return sim::TimePoint::at(sim::Duration::microseconds(us));
}

/// A 3-sender experiment small enough for test time but big enough to
/// exercise fragmentation, reassembly, and collisions.
runner::ExperimentConfig small_config() {
  runner::ExperimentConfig config;
  config.senders = 3;
  config.id_bits = 6;
  config.send_duration = sim::Duration::from_seconds(1.0);
  config.drain_extra = sim::Duration::from_seconds(1.0);
  config.seed = 42;
  return config;
}

// The golden fixture: a hand-built recording whose Perfetto serialization
// is pinned byte-for-byte. Guards the exporter's field set, event order,
// and number formatting — the jobs-invariance guarantee diffs whole files,
// so ANY formatting drift is a real compatibility break.
TEST(PerfettoGolden, HandBuiltRecordingSerializesByteExactly) {
  obs::SpanRecorder recorder;
  const obs::SpanId txn = recorder.begin("transaction", "aff", 1, at_us(10));
  recorder.annotate(txn, "bytes", 80);
  recorder.instant("frag_tx", "aff", 1, at_us(15), txn, 64);
  recorder.end(txn, at_us(30), "drained");
  recorder.instant("frame.deliver", "medium", 0, at_us(16));

  obs::MetricsRegistry registry;
  registry.counter("medium.frames_sent").inc(2);

  const obs::MetricsSnapshot metrics = registry.snapshot();
  const obs::PerfettoExporter exporter(recorder, &metrics);
  EXPECT_EQ(exporter.format_name(), "perfetto-json");

  const std::string expected =
      R"({"displayTimeUnit":"ms","traceEvents":[)"
      R"({"name":"process_name","ph":"M","pid":1,"args":{"name":"retri"}},)"
      R"({"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"node 0"}},)"
      R"({"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"node 1"}},)"
      R"({"name":"transaction","cat":"aff","pid":1,"tid":1,"ts":10,"ph":"b","id":1,"args":{"bytes":80}},)"
      R"({"name":"transaction","cat":"aff","pid":1,"tid":1,"ts":30,"ph":"e","id":1,"args":{"outcome":"drained"}},)"
      R"({"name":"frag_tx","cat":"aff","pid":1,"tid":1,"ts":15,"ph":"i","s":"t","args":{"span":1,"bytes":64}},)"
      R"({"name":"frame.deliver","cat":"medium","pid":1,"tid":0,"ts":16,"ph":"i","s":"t","args":{}}],)"
      R"("retri":{"schema":"retri.trace","schema_version":1,)"
      R"("span_count":1,"instant_count":2,"violations":[],)"
      R"("metrics":{"medium.frames_sent":2}}})";
  EXPECT_EQ(exporter.serialize(), expected);
}

TEST(PerfettoGolden, FractionalMicrosecondsSerializeCompactly) {
  obs::SpanRecorder recorder;
  recorder.instant("e", "medium", 0,
                   sim::TimePoint::at(sim::Duration::nanoseconds(2500)));
  const obs::PerfettoExporter exporter(recorder);
  EXPECT_NE(exporter.serialize().find("\"ts\":2.5,"), std::string::npos);
}

TEST(CaptureTrace, PerfettoJsonAndMetricsAreJobsInvariant) {
  const runner::ExperimentConfig config = small_config();
  runner::TraceCaptureOptions serial;
  serial.trials = 4;
  serial.jobs = 1;
  serial.trial_index = 2;
  runner::TraceCaptureOptions parallel = serial;
  parallel.jobs = 8;

  const runner::TraceCapture a = runner::capture_trace(config, serial);
  const runner::TraceCapture b = runner::capture_trace(config, parallel);

  EXPECT_EQ(a.perfetto_json, b.perfetto_json);
  EXPECT_EQ(a.summary.metrics_total, b.summary.metrics_total);
  ASSERT_EQ(a.trials.size(), b.trials.size());
  for (std::size_t i = 0; i < a.trials.size(); ++i) {
    EXPECT_EQ(a.trials[i].metrics, b.trials[i].metrics) << "trial " << i;
  }
}

TEST(CaptureTrace, SpanStreamSatisfiesIntegrityContract) {
  runner::TraceCaptureOptions options;
  const runner::TraceCapture capture =
      runner::capture_trace(small_config(), options);

  // The audit is the contract: no double ends, no unterminated spans, no
  // events referencing dead parents.
  EXPECT_TRUE(capture.violations.empty()) << capture.violations.front();
  EXPECT_GT(capture.span_count, 0u);
  EXPECT_GT(capture.instant_count, 0u);

  // Every span ends exactly once with a real outcome — in particular every
  // reassembly entry reaches one CloseReason — and parent links point at
  // earlier spans (the recorder hands out ids in begin order).
  obs::SpanRecorder spans;
  runner::ExperimentConfig traced = small_config();
  traced.seed = runner::derive_trial_seed(small_config().seed, 0);
  (void)runner::run_experiment(traced, &spans);
  std::size_t reassemblies = 0;
  for (std::size_t i = 0; i < spans.spans().size(); ++i) {
    const obs::Span& span = spans.spans()[i];
    EXPECT_TRUE(span.ended) << span.name;
    EXPECT_FALSE(span.outcome.empty()) << span.name;
    EXPECT_NE(span.outcome, "unterminated") << span.name;
    if (span.parent.valid()) {
      EXPECT_LT(span.parent.index, i + 1);
    }
    if (span.name == "reassembly") ++reassemblies;
  }
  EXPECT_GT(reassemblies, 0u);
  for (const obs::Instant& event : spans.instants()) {
    if (!event.parent.valid()) continue;
    ASSERT_LE(event.parent.index, spans.spans().size());
  }
}

TEST(CaptureTrace, RejectsOutOfRangeOptions) {
  runner::TraceCaptureOptions zero;
  zero.trials = 0;
  EXPECT_THROW(runner::capture_trace(small_config(), zero),
               std::invalid_argument);
  runner::TraceCaptureOptions oob;
  oob.trials = 2;
  oob.trial_index = 2;
  EXPECT_THROW(runner::capture_trace(small_config(), oob),
               std::invalid_argument);
}

TEST(Exporters, TraceRecorderExportsShareTheWritePath) {
  // The one trace recorder is the span recorder; its export goes through
  // write_text_file and names its format in any error.
  const obs::SpanRecorder spans;
  const obs::PerfettoExporter perfetto(spans);
  EXPECT_EQ(perfetto.format_name(), "perfetto-json");
  EXPECT_NE(perfetto.serialize().find("traceEvents"), std::string::npos);

  std::string error;
  EXPECT_FALSE(
      obs::export_to_file(perfetto, "/nonexistent-dir/trace.json", &error));
  EXPECT_NE(error.find("perfetto-json:"), std::string::npos);
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST(Exporters, WriteTextFileReportsUnopenablePath) {
  std::string error;
  EXPECT_FALSE(obs::write_text_file("/nonexistent-dir/x.json", "{}", &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

std::string metrics_text(const obs::MetricsSnapshot& snapshot) {
  retri::util::JsonWriter json;
  obs::write_metrics_object(json, snapshot);
  return json.str();
}

retri::util::Result<obs::MetricsSnapshot, std::string> decode_metrics_text(
    std::string_view text) {
  const auto doc = retri::util::parse_json(text);
  if (!doc.ok()) return doc.error().describe();
  return obs::decode_metrics_object(doc.value());
}

TEST(MetricsObject, CounterGaugeAndHistogramRoundTripExactly) {
  obs::MetricsRegistry registry;
  registry.counter("frames").inc(18446744073709551615ull);
  obs::Gauge depth = registry.gauge("depth");
  depth.set(9);
  depth.set(-3);
  obs::Histogram size = registry.histogram("size", {0.1, 2.5, 64});
  size.record(0.05);
  size.record(3.0);
  size.record(1e9);
  const obs::MetricsSnapshot snapshot = registry.snapshot();

  const std::string text = metrics_text(snapshot);
  EXPECT_EQ(text,
            R"({"frames":18446744073709551615,"depth":{"value":-3,"peak":9},)"
            R"("size":{"bounds":[0.1,2.5,64],"counts":[1,0,1,1],"total":3}})");
  const auto decoded = decode_metrics_text(text);
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_EQ(decoded.value(), snapshot);
  EXPECT_EQ(metrics_text(decoded.value()), text);
}

TEST(MetricsObject, DecoderRejectsWhatTheWriterCannotProduce) {
  EXPECT_TRUE(decode_metrics_text(
                  R"({"c":0,"h":{"bounds":[],"counts":[4],"total":4}})")
                  .ok());
  // A histogram needs exactly bounds + 1 counts.
  EXPECT_FALSE(
      decode_metrics_text(R"({"h":{"bounds":[1,2],"counts":[0,0],"total":0}})")
          .ok());
  // Members of no known shape.
  EXPECT_FALSE(decode_metrics_text(R"({"x":"seven"})").ok());
  EXPECT_FALSE(decode_metrics_text(R"({"x":{"value":1}})").ok());
  EXPECT_FALSE(decode_metrics_text(R"({"x":[1,2,3]})").ok());
  EXPECT_FALSE(decode_metrics_text("[]").ok());
  // Counters are whole, non-negative numbers.
  EXPECT_FALSE(decode_metrics_text(R"({"c":-1})").ok());
  EXPECT_FALSE(decode_metrics_text(R"({"c":1e3})").ok());
  const auto fractional = decode_metrics_text(R"({"medium.frames_sent":2.5})");
  ASSERT_FALSE(fractional.ok());
  EXPECT_NE(fractional.error().find("medium.frames_sent"), std::string::npos);
}

}  // namespace
