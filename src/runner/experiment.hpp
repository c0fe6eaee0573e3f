// The paper's §5.1 validation experiment as a library.
//
// Encapsulates the experimental design every bench shares: N transmitters
// saturating a shared channel with fixed-size packets toward one receiver,
// instrumented so the receiver can count both AFF-delivered packets and the
// ground truth ("would have been received based on the unique id").
// Historically this lived in bench/harness.{hpp,cpp}; it moved under
// src/runner so the parallel TrialRunner/SweepRunner layers — and their
// tests — can drive experiments without linking bench code.
//
// One ExperimentConfig → run_experiment() call is a pure function of the
// config (including config.seed): it constructs a private Simulator, radios
// and drivers, so concurrent calls never share mutable state. That property
// is what lets TrialRunner fan trials across threads.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/density.hpp"
#include "core/selector.hpp"
#include "fault/attacker.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/time.hpp"
#include "util/result.hpp"

namespace retri::runner {

enum class TopologyKind {
  kStarFullMesh,    // §5.1: all radios in range of each other
  kHiddenTerminal,  // §3.2: senders mutually inaudible
};

/// Channel model realizing ExperimentConfig::loss_rate.
enum class Channel {
  /// i.i.d. per-delivery loss (MediumConfig's native per_link_loss), the
  /// pre-fault-layer behavior.
  kIndependent,
  /// A Gilbert–Elliott fault plan with the same stationary average but
  /// correlated losses (mean burst length ~5 deliveries).
  kBurst,
  /// The full hostile plan scaled from loss_rate: burst loss plus
  /// corruption, duplication, delay jitter, and sender crash/restart churn.
  kChaos,
};

std::string_view to_string(TopologyKind kind) noexcept;
std::string_view to_string(core::DensityModelKind kind) noexcept;
/// "independent", "burst" or "chaos": the name the CLI accepts and the
/// config encoding carries.
std::string_view to_string(Channel channel) noexcept;

/// Inverse of to_string(Channel); an unknown name returns an error that
/// lists all three.
util::Result<Channel, std::string> parse_channel(std::string_view name);

struct ExperimentConfig {
  std::size_t senders = 5;
  TopologyKind topology = TopologyKind::kStarFullMesh;
  unsigned id_bits = 8;
  /// Structured id-selection policy (see core::SelectorSpec). CLI strings
  /// enter through core::parse_selector_spec; defaults to uniform.
  core::SelectorSpec selector;
  std::size_t packet_bytes = 80;
  /// Distinct packet sizes per sender for the mixed-length ablation;
  /// empty means every sender uses packet_bytes.
  std::vector<std::size_t> per_sender_packet_bytes;
  sim::Duration send_duration = sim::Duration::seconds(30);
  sim::Duration drain_extra = sim::Duration::seconds(15);
  bool collision_notifications = false;
  /// Per-frame random backoff bound — the timing jitter real radios have.
  /// Without it every saturating sender transmits in perfect lockstep, a
  /// degenerate synchronization no physical testbed exhibits.
  sim::Duration tx_jitter = sim::Duration::milliseconds(2);
  /// Fraction of time each SENDER's receiver is on (1.0 = always
  /// listening). Below 1, senders run duty-cycled listening with staggered
  /// phases — the §3.2 energy/listening tradeoff. The experiment receiver
  /// always listens (it is the measurement instrument).
  double sender_listen_duty = 1.0;
  sim::Duration duty_period = sim::Duration::milliseconds(100);
  /// Which density estimator the drivers run.
  core::DensityModelKind density_model = core::DensityModelKind::kEwma;
  /// Average per-delivery frame-loss probability of the channel (0 = the
  /// paper's ideal channel). `channel` says how the average is realized.
  double loss_rate = 0.0;
  Channel channel = Channel::kIndependent;
  /// Adversarial collision attacker (fault::AttackerNode). Off by default;
  /// when active the experiment adds one extra off-path node that hears
  /// (and is heard by) everyone, forging identifier collisions during the
  /// send window.
  fault::AttackerPlan attacker;
  std::uint64_t seed = 1;
};

/// Returns `config` unchanged or throws std::invalid_argument naming the
/// offending field. run_experiment applies this before building the stack.
ExperimentConfig validated(ExperimentConfig config);

struct ExperimentResult {
  std::uint64_t packets_offered = 0;    // sum over senders
  std::uint64_t aff_delivered = 0;      // realistic path at the receiver
  std::uint64_t truth_delivered = 0;    // instrumented ground truth
  std::uint64_t checksum_failures = 0;
  std::uint64_t conflicting_writes = 0;
  std::uint64_t notifications_sent = 0;
  double receiver_density_estimate = 0.0;
  double tx_energy_nj = 0.0;            // summed over transmitters
  std::uint64_t tx_bits = 0;            // payload bits on the air
  std::uint64_t frames_attempted = 0;   // medium deliveries attempted
  /// Channel-induced frame losses (independent random + fault-layer
  /// drops), excluding RF collisions / half-duplex / powered-off, so the
  /// burst-loss ablation can verify the measured loss matches loss_rate.
  std::uint64_t frames_lost_channel = 0;
  /// Every metric the trial's components registered (medium, fault
  /// injector, every driver/reassembler/selector), snapshotted after the
  /// simulation drained. Deterministic for a given config: registration
  /// order is construction order and recording is event-ordered, so the
  /// snapshot is byte-identical across --jobs counts.
  obs::MetricsSnapshot metrics;
  /// Deliveries keyed by packet size — in mixed-length workloads the size
  /// identifies the sender class, letting ablations attribute loss to long
  /// vs. short transactions without violating address-freedom.
  std::map<std::size_t, std::uint64_t> aff_by_size;
  std::map<std::size_t, std::uint64_t> truth_by_size;

  /// Collision-loss rate for one packet-size class, clamped to [0, 1]:
  /// duplicate AFF deliveries under id collisions can push aff_by_size
  /// above truth_by_size, which would otherwise read as negative loss.
  double class_loss(std::size_t size) const {
    const auto truth = truth_by_size.find(size);
    if (truth == truth_by_size.end() || truth->second == 0) return 0.0;
    const auto aff = aff_by_size.find(size);
    const double delivered =
        aff == aff_by_size.end() ? 0.0 : static_cast<double>(aff->second);
    return std::clamp(1.0 - delivered / static_cast<double>(truth->second),
                      0.0, 1.0);
  }

  /// Fraction of ground-truth-deliverable packets the AFF path delivered —
  /// Figure 4's y-axis is 1 minus this.
  double delivery_ratio() const {
    if (truth_delivered == 0) return 0.0;
    return static_cast<double>(aff_delivered) /
           static_cast<double>(truth_delivered);
  }
  double collision_loss_rate() const { return 1.0 - delivery_ratio(); }

  /// Measured per-delivery channel loss (should track config.loss_rate).
  double observed_frame_loss() const {
    if (frames_attempted == 0) return 0.0;
    return static_cast<double>(frames_lost_channel) /
           static_cast<double>(frames_attempted);
  }
};

/// Runs one trial of the validation experiment. Thread-compatible: distinct
/// configs may run concurrently (all simulation state is trial-local).
///
/// When `spans` is non-null the whole protocol timeline is recorded into
/// it: transaction spans (id selection → radio drain) on the sender side,
/// reassembly spans (entry creation → delivered/checksum_failed/timeout/
/// evicted) on the receive side, fragment instants parented to both, and
/// the medium's frame events as ground-truth instants. The recorder is
/// finished (stragglers closed "unterminated") at the simulation horizon,
/// so the stream is complete and deterministic when this returns.
ExperimentResult run_experiment(const ExperimentConfig& config,
                                obs::SpanRecorder* spans = nullptr);

/// Canonical integer-field digest of a trial result, e.g.
/// "offered=129 aff=127 ... aff_sizes{80:127,} truth_sizes{80:129,}".
/// Deliberately excludes the floating-point fields (energy, density): those
/// can differ in the last ulp across optimization levels (FMA contraction),
/// while the integer fields are exact. The golden-fingerprint determinism
/// test compares these against committed constants, so the format is part
/// of the repo's compatibility surface — changing it means regenerating the
/// constants in test_golden_fingerprints.cpp.
std::string fingerprint(const ExperimentResult& result);

}  // namespace retri::runner
