// Unit tests for the obs layer's recording primitives: MetricsRegistry
// handle semantics (inert defaults, re-registration),
// snapshot/accumulate algebra, and the SpanRecorder integrity contract
// (double ends, finish(), parent-liveness audit).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/time.hpp"

namespace obs = retri::obs;
namespace sim = retri::sim;

namespace {

sim::TimePoint at_us(std::int64_t us) {
  return sim::TimePoint::at(sim::Duration::microseconds(us));
}

TEST(Metrics, DefaultHandlesAreInert) {
  obs::Counter counter;
  counter.inc();
  counter.inc(41);
  EXPECT_EQ(counter.value(), 0u);

  obs::Gauge gauge;
  gauge.set(7);
  EXPECT_EQ(gauge.level(), 0);
  EXPECT_EQ(gauge.peak(), 0);

  obs::Histogram histogram;
  histogram.record(12.0);  // must not crash; no slot, no effect
}

TEST(Metrics, CounterRoundTrip) {
  obs::MetricsRegistry registry;
  obs::Counter frames = registry.counter("frames");
  frames.inc();
  frames.inc(4);
  EXPECT_EQ(frames.value(), 5u);
  EXPECT_EQ(registry.snapshot().counter("frames"), 5u);
}

TEST(Metrics, GaugeTracksLevelAndPeak) {
  obs::MetricsRegistry registry;
  obs::Gauge pending = registry.gauge("pending");
  pending.set(3);
  pending.set(9);
  pending.set(2);
  EXPECT_EQ(pending.level(), 2);
  EXPECT_EQ(pending.peak(), 9);
}

TEST(Metrics, HistogramBucketsByUpperBound) {
  obs::MetricsRegistry registry;
  obs::Histogram h = registry.histogram("bytes", {10.0, 20.0});
  h.record(5.0);    // <= 10 → bucket 0
  h.record(10.0);   // <= 10 → bucket 0 (bounds are inclusive upper bounds)
  h.record(15.0);   // <= 20 → bucket 1
  h.record(100.0);  // overflow bucket
  const obs::MetricsSnapshot snap = registry.snapshot();
  const obs::MetricValue* entry = snap.find("bytes");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->kind, obs::MetricKind::kHistogram);
  ASSERT_EQ(entry->buckets.size(), 3u);
  EXPECT_EQ(entry->buckets[0], 2u);
  EXPECT_EQ(entry->buckets[1], 1u);
  EXPECT_EQ(entry->buckets[2], 1u);
  EXPECT_EQ(entry->count, 4u);
}

TEST(Metrics, ReRegisteringReturnsTheSameSlot) {
  obs::MetricsRegistry registry;
  obs::Counter a = registry.counter("shared");
  obs::Counter b = registry.counter("shared");
  a.inc();
  b.inc();
  EXPECT_EQ(a.value(), 2u);
  EXPECT_EQ(registry.snapshot().entries.size(), 1u);
}

TEST(Metrics, KindMismatchThrows) {
  obs::MetricsRegistry registry;
  registry.counter("x");
  EXPECT_THROW(registry.gauge("x"), std::invalid_argument);
  registry.histogram("h", {1.0});
  EXPECT_THROW(registry.histogram("h", {2.0}), std::invalid_argument);
}

TEST(Metrics, AccumulateSumsCountersAndMaxesGauges) {
  obs::MetricsRegistry a;
  a.counter("frames").inc(3);
  a.gauge("pending").set(5);
  a.histogram("bytes", {10.0}).record(4.0);

  obs::MetricsRegistry b;
  b.counter("frames").inc(7);
  b.gauge("pending").set(2);
  b.histogram("bytes", {10.0}).record(40.0);
  b.counter("only_in_b").inc();

  obs::MetricsSnapshot total = a.snapshot();
  obs::accumulate(total, b.snapshot());
  EXPECT_EQ(total.counter("frames"), 10u);
  const obs::MetricValue* gauge = total.find("pending");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->peak, 5);
  const obs::MetricValue* hist = total.find("bytes");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->buckets[0], 1u);
  EXPECT_EQ(hist->buckets[1], 1u);
  EXPECT_EQ(total.counter("only_in_b"), 1u);
}

TEST(Metrics, AccumulateIsFoldOrderDeterministic) {
  // Folding the same per-trial snapshots in trial order must give one
  // answer regardless of which thread produced them — the property the
  // --jobs invariance of metrics_total rests on.
  obs::MetricsRegistry t0, t1, t2;
  t0.counter("c").inc(1);
  t1.counter("c").inc(2);
  t2.counter("c").inc(4);
  obs::MetricsSnapshot a;
  for (const auto* reg : {&t0, &t1, &t2}) {
    obs::accumulate(a, reg->snapshot());
  }
  obs::MetricsSnapshot b;
  for (const auto* reg : {&t0, &t1, &t2}) {
    obs::accumulate(b, reg->snapshot());
  }
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.counter("c"), 7u);
}

TEST(Spans, BeginEndRoundTrip) {
  obs::SpanRecorder recorder;
  const obs::SpanId id = recorder.begin("transaction", "aff", 1, at_us(10));
  recorder.annotate(id, "bytes", 80);
  EXPECT_TRUE(recorder.open(id));
  recorder.end(id, at_us(30), "drained");
  EXPECT_FALSE(recorder.open(id));
  ASSERT_EQ(recorder.spans().size(), 1u);
  const obs::Span& span = recorder.spans().front();
  EXPECT_EQ(span.outcome, "drained");
  ASSERT_EQ(span.attrs.size(), 1u);
  EXPECT_EQ(span.attrs.front().key, "bytes");
  EXPECT_TRUE(recorder.audit().empty());
}

TEST(Spans, DoubleEndIsAViolationFirstEndWins) {
  obs::SpanRecorder recorder;
  const obs::SpanId id = recorder.begin("transaction", "aff", 1, at_us(10));
  recorder.end(id, at_us(20), "drained");
  recorder.end(id, at_us(25), "again");
  EXPECT_EQ(recorder.spans().front().outcome, "drained");
  EXPECT_EQ(recorder.audit().size(), 1u);
}

TEST(Spans, FinishClosesStragglersAsUnterminated) {
  obs::SpanRecorder recorder;
  recorder.begin("reassembly", "aff", 0, at_us(10));
  recorder.finish(at_us(99));
  EXPECT_EQ(recorder.open_count(), 0u);
  EXPECT_EQ(recorder.spans().front().outcome, "unterminated");
  EXPECT_TRUE(recorder.spans().front().ended);
}

TEST(Spans, AuditFlagsInstantParentedOutsideParentLifetime) {
  obs::SpanRecorder recorder;
  const obs::SpanId id = recorder.begin("transaction", "aff", 1, at_us(10));
  recorder.instant("frag_tx", "aff", 1, at_us(15), id);  // inside: fine
  recorder.end(id, at_us(20), "drained");
  recorder.instant("frag_tx", "aff", 1, at_us(25), id);  // after end: flagged
  const std::vector<std::string> violations = recorder.audit();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations.front().find("frag_tx"), std::string::npos);
}

TEST(Spans, NoneHandleIsInert) {
  obs::SpanRecorder recorder;
  recorder.annotate(obs::SpanId::none(), "k", 1);
  recorder.end(obs::SpanId::none(), at_us(5), "x");
  recorder.instant("e", "medium", 0, at_us(5));  // unparented: always legal
  EXPECT_TRUE(recorder.audit().empty());
  EXPECT_TRUE(recorder.spans().empty());
}

}  // namespace
