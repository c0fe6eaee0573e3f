// Per-layer numbers for the traced run.
//
// Two kinds: the census — deterministic per-trial counts read from the
// trial's own metrics snapshot — and unit costs — timed calls into each
// module's public functions on inputs built from the workload's config.
// Count × unit cost, net of nested calls, is a layer's attributed self
// cost; benchmark.cpp divides it by the trial time.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "runner/experiment.hpp"
#include "util/time.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Host steady-clock nanoseconds (monotonic, arbitrary origin).
double now_ns();
/// The same clock as a TimePoint, for the benchmark's own wall-clock spans:
/// an obs::SpanRecorder kept in memory and exported when the run ends.
retri::util::TimePoint wall_now();
/// Category of every span the benchmark records.
inline constexpr const char* kSpanCategory = "perfbench";

/// Per-trial counter sums, keyed by counter suffix: the entry named
/// exactly so, plus every per-node entry ending in "." + suffix.
using Census = std::map<std::string, double, std::less<>>;

/// Adds `snapshot`'s census counters into `census`. Returns the names of
/// required counters the snapshot lacks, so a renamed or removed counter
/// fails the run instead of reading 0.
std::vector<std::string> add_census(const retri::obs::MetricsSnapshot& snapshot,
                                    Census& census);

struct UnitCost {
  double ns = 0;      // per operation, best of several batches
  double allocs = 0;  // per operation, exact
};

struct UnitCosts {
  UnitCost reassemble;   // Reassembler::on_intro / on_data, per fragment
  double reassemble_crc_per_op = 0;  // crc32 calls nested per fragment
  UnitCost decode;       // aff::decode, per frame
  UnitCost fragment;     // Fragmenter::fragment, per packet (one crc32 nested)
  UnitCost crc32;        // util::crc32 at the packet size
  UnitCost transmit;     // BroadcastMedium::transmit + Simulator::run
  UnitCost radio_frame;  // Radio::send run to delivery, net of transmit
  UnitCost select;       // IdSelector::select
  UnitCost observe;      // IdSelector::observe
  UnitCost intercept;    // FaultInjector::intercept, every family on
  double snapshot_us = 0;  // MetricsRegistry::snapshot at a trial's size
  double sink_us = 0;      // ResultSink::to_json of one trial
  double artifact_kb = 0;  // its size
};

/// Times every unit-cost batch inside a span under `parent`. `sample` is
/// one untraced trial of the workload, whose snapshot sizes the registry
/// and whose result feeds the sink.
UnitCosts measure_unit_costs(const Workload& w,
                             const retri::runner::ExperimentResult& sample,
                             retri::obs::SpanRecorder& spans,
                             retri::obs::SpanId parent);

}  // namespace perfbench
