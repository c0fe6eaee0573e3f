// The paper's claims as data, checked over named-sweep results.
//
// A Claim names the sweep whose grid it reads (make_named_sweep), the paper
// section it reproduces, and a comparison between two 95% confidence
// intervals (stats::TrialSet::ci95). The subject interval is a statistic of
// each point the claim is about. The reference is either a model value at
// that point's own config — Eq. 4 at its H and T, or its configured
// frame-loss rate — as a zero-width interval, or the same kind of interval
// from a partner point of the same grid. No bound is a tuned constant.
//
// `retri_bench --sweep NAME` prints every claim over NAME after its table;
// the `repro` ctest label runs each claimed sweep at the registry defaults
// and fails on any claim that does not hold.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "runner/sweep.hpp"
#include "stats/summary.hpp"

namespace retri::runner {

/// How a subject interval A must sit against a reference interval B.
enum class Relation {
  kBelow,     // A.hi < B.lo
  kAbove,     // A.lo > B.hi
  kNotAbove,  // A.lo <= B.hi
  kOverlaps,  // |mean(A) - mean(B)| <= half-width(A) + half-width(B)
};

/// One comparison at one subject point. `measured` and `bound` are the two
/// numbers the relation compares: the facing interval ends, or for
/// kOverlaps the distance between means and the sum of half-widths.
struct ClaimCheck {
  std::string at;  // the subject point's label
  double measured = 0.0;
  double bound = 0.0;
  Relation relation = Relation::kBelow;

  bool holds() const noexcept;
  /// Signed distance from the relation's edge; negative when it fails.
  double margin() const noexcept;
};

enum class Verdict { kHolds, kFails, kNotEvaluated };

std::string_view to_string(Verdict verdict) noexcept;

struct ClaimOutcome {
  /// kNotEvaluated when no point is a subject, a subject's partner is
  /// absent from the grid, or an interval rests on fewer than 2 trials.
  Verdict verdict = Verdict::kNotEvaluated;
  std::vector<ClaimCheck> checks;  // empty when not evaluated

  /// The check with the smallest margin (the worst one when the claim
  /// fails); null when there are no checks.
  const ClaimCheck* tightest() const noexcept;
};

/// A per-trial statistic of one point, one outcome per trial.
using PointStatistic = stats::TrialSet (*)(const SweepPointResult& point);

struct Claim {
  std::string_view id;
  std::string_view section;  // paper section, or "ours"
  std::string_view sweep;    // a make_named_sweep name
  std::string_view statement;
  /// The points the claim is about.
  bool (*subject)(const ExperimentConfig& config);
  PointStatistic statistic;
  Relation relation;
  /// Reference, exactly one of: a model value at the subject's config...
  double (*model)(const ExperimentConfig& config);
  /// ...or `partner_statistic` at the point whose grid coordinates are the
  /// subject's after `to_partner` (null: the subject point itself).
  void (*to_partner)(ExperimentConfig& config);
  PointStatistic partner_statistic;
};

/// Every claim, grouped by sweep.
std::span<const Claim> claims();

/// Evaluates `claim` over `result`, a run of any grid (normally the
/// claim's own sweep, possibly with --selector or --senders applied).
ClaimOutcome evaluate(const Claim& claim, const SweepResult& result);

}  // namespace retri::runner
