#include "obs/export.hpp"

#include <algorithm>
#include <fstream>
#include <vector>

#include "util/parse_number.hpp"

namespace retri::obs {

bool write_text_file(const std::string& path, std::string_view content,
                     std::string* error) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    if (error) *error = "cannot open " + path + " for writing";
    return false;
  }
  out.write(content.data(),
            static_cast<std::streamsize>(content.size()));
  out.put('\n');
  out.flush();
  // close() can surface errors flush() missed (e.g. deferred ENOSPC), so
  // fold both into the stream state before deciding.
  out.close();
  if (out.fail()) {
    if (error) *error = "write to " + path + " failed";
    return false;
  }
  return true;
}

bool export_to_file(const PerfettoExporter& exporter, const std::string& path,
                    std::string* error) {
  std::string write_error;
  if (write_text_file(path, exporter.serialize(), &write_error)) return true;
  if (error) {
    *error = std::string(exporter.format_name()) + ": " + write_error;
  }
  return false;
}

void write_metrics_object(util::JsonWriter& json, const MetricsSnapshot& m) {
  json.begin_object();
  for (const MetricValue& entry : m.entries) {
    switch (entry.kind) {
      case MetricKind::kCounter:
        json.member(entry.name, entry.count);
        break;
      case MetricKind::kGauge:
        json.key(entry.name).begin_object();
        json.member("value", entry.level);
        json.member("peak", entry.peak);
        json.end_object();
        break;
      case MetricKind::kHistogram:
        json.key(entry.name).begin_object();
        json.key("bounds").begin_array();
        for (const double bound : entry.bounds) json.value(bound);
        json.end_array();
        json.key("counts").begin_array();
        for (const std::uint64_t count : entry.buckets) json.value(count);
        json.end_array();
        json.member("total", entry.count);
        json.end_object();
        break;
    }
  }
  json.end_object();
}

namespace {

/// A JSON number holding a whole integer that fits T, token for token.
template <typename T>
bool whole(const util::JsonValue& v, T& out) {
  return v.is_number() && util::parse_int(v.raw(), out);
}

/// Decodes one member of a metrics object into `entry` (name already set);
/// returns "" or what is wrong with it.
std::string decode_metric(const util::JsonValue& v, MetricValue& entry) {
  if (v.is_number()) {
    entry.kind = MetricKind::kCounter;
    return whole(v, entry.count) ? "" : "counter is not a whole number";
  }
  const util::JsonValue* value = v.find("value");
  const util::JsonValue* peak = v.find("peak");
  if (v.size() == 2 && value != nullptr && peak != nullptr) {
    entry.kind = MetricKind::kGauge;
    return whole(*value, entry.level) && whole(*peak, entry.peak)
               ? ""
               : "gauge value/peak are not whole numbers";
  }
  const util::JsonValue* bounds = v.find("bounds");
  const util::JsonValue* counts = v.find("counts");
  const util::JsonValue* total = v.find("total");
  if (v.size() != 3 || bounds == nullptr || !bounds->is_array() ||
      counts == nullptr || !counts->is_array() || total == nullptr) {
    return "not a counter, gauge or histogram";
  }
  entry.kind = MetricKind::kHistogram;
  if (counts->size() != bounds->size() + 1) {
    return "histogram needs bounds + 1 counts";
  }
  for (const util::JsonValue& bound : bounds->items()) {
    double parsed = 0.0;
    if (!bound.is_number() || !util::parse_double(bound.raw(), parsed)) {
      return "histogram bound is not a number";
    }
    entry.bounds.push_back(parsed);
  }
  entry.buckets.resize(counts->size());
  for (std::size_t i = 0; i < counts->size(); ++i) {
    if (!whole((*counts)[i], entry.buckets[i])) {
      return "histogram count is not a whole number";
    }
  }
  return whole(*total, entry.count) ? ""
                                     : "histogram total is not a whole number";
}

constexpr int kTraceSchemaVersion = 1;

/// Microseconds since origin, the trace_event clock unit. Nanosecond sim
/// time divides exactly into a double's 53-bit mantissa for any plausible
/// run length, and to_chars round-trips it byte-stably.
double ts_us(util::TimePoint t) {
  return static_cast<double>(t.since_origin().ns()) / 1000.0;
}

void write_attrs(util::JsonWriter& json, const std::vector<SpanAttr>& attrs) {
  for (const SpanAttr& attr : attrs) json.member(attr.key, attr.value);
}

void write_common(util::JsonWriter& json, std::string_view name,
                  std::string_view category, std::uint32_t track,
                  util::TimePoint time) {
  json.member("name", name);
  json.member("cat", category);
  json.member("pid", 1);
  json.member("tid", track);
  json.member("ts", ts_us(time));
}

}  // namespace

util::Result<MetricsSnapshot, std::string> decode_metrics_object(
    const util::JsonValue& doc) {
  if (!doc.is_object()) return std::string("expected an object");
  MetricsSnapshot out;
  out.entries.reserve(doc.size());
  for (const auto& [name, value] : doc.members()) {
    MetricValue& entry = out.entries.emplace_back();
    entry.name = name;
    const std::string error = decode_metric(value, entry);
    if (!error.empty()) return "\"" + name + "\": " + error;
  }
  return out;
}

std::string PerfettoExporter::serialize() const {
  util::JsonWriter json(/*pretty=*/false);
  json.begin_object();
  json.member("displayTimeUnit", "ms");
  json.key("traceEvents").begin_array();

  // Track-name metadata first: one simulated network process, one thread
  // lane per obs track (conventionally the node id).
  std::vector<std::uint32_t> tracks;
  for (const Span& span : spans_.spans()) tracks.push_back(span.track);
  for (const Instant& event : spans_.instants()) tracks.push_back(event.track);
  std::sort(tracks.begin(), tracks.end());
  tracks.erase(std::unique(tracks.begin(), tracks.end()), tracks.end());

  json.begin_object();
  json.member("name", "process_name");
  json.member("ph", "M");
  json.member("pid", 1);
  json.key("args").begin_object();
  json.member("name", "retri");
  json.end_object();
  json.end_object();
  for (const std::uint32_t track : tracks) {
    json.begin_object();
    json.member("name", "thread_name");
    json.member("ph", "M");
    json.member("pid", 1);
    json.member("tid", track);
    json.key("args").begin_object();
    json.member("name", "node " + std::to_string(track));
    json.end_object();
    json.end_object();
  }

  // Spans as async begin/end pairs: async events share an id and may
  // overlap on one track, which concurrent transactions do. Emitted in
  // span-creation order — begin immediately followed by end — which is
  // deterministic and all the trace_event format requires (viewers sort
  // by ts themselves).
  const std::vector<Span>& spans = spans_.spans();
  for (std::uint32_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    json.begin_object();
    write_common(json, span.name, span.category, span.track, span.start);
    json.member("ph", "b");
    json.member("id", i + 1);
    json.key("args").begin_object();
    if (span.parent.valid()) json.member("parent_span", span.parent.index);
    write_attrs(json, span.attrs);
    json.end_object();
    json.end_object();
    if (!span.ended) continue;  // finish() made this unreachable in practice
    json.begin_object();
    write_common(json, span.name, span.category, span.track, span.end);
    json.member("ph", "e");
    json.member("id", i + 1);
    json.key("args").begin_object();
    json.member("outcome", span.outcome);
    json.end_object();
    json.end_object();
  }

  for (const Instant& event : spans_.instants()) {
    json.begin_object();
    write_common(json, event.name, event.category, event.track, event.time);
    json.member("ph", "i");
    json.member("s", "t");  // thread-scoped instant
    json.key("args").begin_object();
    if (event.parent.valid()) json.member("span", event.parent.index);
    write_attrs(json, event.attrs);
    json.end_object();
    json.end_object();
  }
  json.end_array();

  // Chrome/Perfetto ignore unknown top-level keys; ours carries the metric
  // snapshot and the span-integrity verdict alongside the timeline.
  json.key("retri").begin_object();
  json.member("schema", "retri.trace");
  json.member("schema_version", kTraceSchemaVersion);
  json.member("span_count", spans_.spans().size());
  json.member("instant_count", spans_.instants().size());
  const std::vector<std::string> violations = spans_.audit();
  json.key("violations").begin_array();
  for (const std::string& violation : violations) json.value(violation);
  json.end_array();
  if (metrics_ != nullptr) {
    json.key("metrics");
    write_metrics_object(json, *metrics_);
  }
  json.end_object();

  json.end_object();
  return json.str();
}

}  // namespace retri::obs
