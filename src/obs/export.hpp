// Artifact export: one checked file writer, the Perfetto trace exporter,
// and the one JSON encoding of a MetricsSnapshot.
//
// write_text_file is the single write/close-checked file writer, so an
// unwritable --out path exits 2 identically in retri_bench, retri_chaos,
// and retri_trace.
//
// PerfettoExporter emits Chrome trace_event JSON (the "JSON Array Format"
// with a top-level object), loadable by chrome://tracing and Perfetto's
// legacy importer:
//   - spans become async "b"/"e" pairs keyed by span id (async events may
//     overlap on one track, which concurrent transactions do);
//   - instants become "i" events, parented spans referenced via args;
//   - pid is constant 1 (one simulated network), tid is the obs track
//     (conventionally the node id), named via "M" metadata events;
//   - ts is microseconds as a round-trippable double, so identical
//     recordings serialize byte-identically (the jobs-invariance check
//     diffs whole files).
#pragma once

#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/json.hpp"
#include "util/json_parse.hpp"
#include "util/result.hpp"

namespace retri::obs {

/// Writes `content` to `path`, folding open, write, flush, AND close
/// errors into the verdict (close can surface deferred ENOSPC that flush
/// missed). Returns false and fills `error` (if non-null) on any failure.
/// This is the single file-writing path shared by ResultSink::write_file,
/// bench::export_result, retri_chaos --out, and retri_trace --out.
bool write_text_file(const std::string& path, std::string_view content,
                     std::string* error = nullptr);

/// Exports a span recording (plus an optional metrics snapshot, embedded
/// under the top-level "retri" key Chrome ignores) as trace_event JSON.
/// Both referenced objects must outlive the exporter.
class PerfettoExporter {
 public:
  explicit PerfettoExporter(const SpanRecorder& spans,
                            const MetricsSnapshot* metrics = nullptr)
      : spans_(spans), metrics_(metrics) {}

  /// Short format tag for CLI messages.
  std::string_view format_name() const noexcept { return "perfetto-json"; }
  /// The complete artifact body. Pure: no I/O, no clocks.
  std::string serialize() const;

 private:
  const SpanRecorder& spans_;
  const MetricsSnapshot* metrics_;
};

/// write_text_file for a PerfettoExporter. Returns true on success; on
/// failure fills `error` with "perfetto-json: <reason>".
bool export_to_file(const PerfettoExporter& exporter, const std::string& path,
                    std::string* error = nullptr);

/// The one JSON encoding of a MetricsSnapshot: an object keyed by metric
/// name in snapshot order, counters as integer members, gauges as {value,
/// peak}, histograms as {bounds, counts, total}. The trace artifact, the
/// sweep artifact and the memo store's result bodies all embed it.
void write_metrics_object(util::JsonWriter& json, const MetricsSnapshot& m);

/// Strict inverse of write_metrics_object: each member's shape names its
/// kind, and anything write_metrics_object cannot have produced (a
/// non-integer count, a histogram whose counts are not bounds + 1 long, a
/// member of any other shape) is an error naming the metric.
util::Result<MetricsSnapshot, std::string> decode_metrics_object(
    const util::JsonValue& doc);

}  // namespace retri::obs
