// Parameter sweeps as data.
//
// Every figure and ablation bench is "a grid of ExperimentConfigs × N
// trials"; SweepSpec captures the grid declaratively (axes over identifier
// width, selector spec, attacker mode, sender count, listening duty,
// density estimator) instead of as a bespoke for-loop per binary.
// SweepRunner flattens the whole grid — every (point, trial) pair — into
// one batch of cells for memoize (runner/memo.hpp), so a sweep saturates
// the machine even when individual points have few trials, while each
// result lands in its (point, trial) slot and determinism is preserved
// exactly as in TrialRunner. Given a store (SweepOptions::cache_dir), the
// same run serves the cells the store already holds. make_named_sweep() is
// the registry behind the unified `retri_bench` CLI (fig1–fig4 and the
// ablation grids).
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "runner/memo.hpp"
#include "runner/trial_runner.hpp"
#include "util/result.hpp"

namespace retri::runner {

/// One expanded grid point: a concrete config plus a human-readable label
/// naming the axis values that distinguish it from its neighbours.
struct SweepPoint {
  std::string label;
  ExperimentConfig config;
};

struct SweepSpec {
  std::string name;
  std::string description;
  /// Template config; axis values override its fields per point, and its
  /// seed is the sweep's base seed (each point derives its own).
  ExperimentConfig base;
  unsigned trials = 10;

  /// Grid axes. An empty axis means "use the base config's value"; the
  /// expansion is the Cartesian product of the non-empty axes. A listening
  /// selector with heed_notifications implies collision_notifications at
  /// that point.
  std::vector<unsigned> id_bits;
  std::vector<core::SelectorSpec> selectors;
  /// Adversary axis: each value overrides base.attacker.mode (the rest of
  /// the attacker plan comes from base.attacker).
  std::vector<fault::AttackerMode> attackers;
  std::vector<std::size_t> senders;
  std::vector<double> duties;
  std::vector<core::DensityModelKind> density_models;
  /// Channel axes (see ExperimentConfig::channel / loss_rate): grid the
  /// channel model and/or its average frame-loss rate.
  std::vector<Channel> channels;
  std::vector<double> loss_rates;

  /// Number of points the grid expands to.
  std::size_t point_count() const noexcept;

  /// Expands the Cartesian grid in a fixed order (id_bits outermost,
  /// density innermost). Point p's config seed is derive_point_seed(
  /// base.seed, p), so reordering axis values reseeds deterministically.
  std::vector<SweepPoint> expand() const;
};

/// Per-point completion notification (fires when a point's last trial is
/// simulated or served from the store).
struct SweepProgress {
  std::size_t points_done = 0;
  std::size_t points_total = 0;
  std::size_t point_index = 0;  // the point that just finished
  std::string_view label;
};

struct SweepOptions {
  unsigned jobs = 1;
  /// Serialized under a mutex; may run on worker threads.
  std::function<void(const SweepProgress&)> on_point_done;
  /// Directory of the on-disk memo store; empty = no store. Cell (point p,
  /// trial t) is keyed by canonical_cell of p's config with seed
  /// derive_trial_seed(p's seed, t), under kCodeVersion, and stored as a
  /// "sweep-trial" entry. The result is the same with or without a store.
  std::string cache_dir;
};

struct SweepPointResult {
  std::string label;
  ExperimentConfig config;
  std::vector<ExperimentResult> trials;  // in trial order
  TrialSummary summary;
};

struct SweepResult {
  SweepSpec spec;
  std::vector<SweepPointResult> points;  // in grid-expansion order
  MemoStats memo;  // cells served from the store vs simulated
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {});

  /// Runs every (point, trial) cell in the grid that the store, if any,
  /// does not hold. Results are bit-identical for any jobs value, cold or
  /// warm.
  SweepResult run(const SweepSpec& spec) const;

 private:
  SweepOptions options_;
};

/// Names accepted by make_named_sweep, in presentation order.
std::vector<std::string_view> named_sweeps();

/// Builds the registered sweep grid for `name` (see named_sweeps()). An
/// unknown name returns an error message that lists every available sweep
/// — CLIs print it verbatim. The caller typically overrides trials,
/// base.seed, base.send_duration, and base.senders from CLI flags.
util::Result<SweepSpec, std::string> make_named_sweep(std::string_view name);

}  // namespace retri::runner
