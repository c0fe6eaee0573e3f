// Transaction density estimation.
//
// The paper defines transaction density T as "the average number of
// concurrent transactions visible at any single point in the network" and
// notes the listening heuristic needs it: '"recently" [is] within the most
// recent 2T transactions; each node can estimate T based on the number of
// concurrent transactions it observes' (§5.1).
//
// DensityEstimator observes begin/end events for transactions a node can
// see (its own plus overheard ones) and maintains both the instantaneous
// concurrency and an exponentially-weighted moving average of it, sampled
// at each event. The EWMA is what the ListeningSelector consumes.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string_view>

namespace retri::core {

/// Interface every density estimator implements. The paper leaves the
/// estimation method open ("we are investigating more accurate ways of
/// estimating the typical transaction density T", §8); the AFF driver takes
/// any DensityModel so the alternatives can be compared experimentally
/// (the density_estimators named sweep).
class DensityModel {
 public:
  virtual ~DensityModel() = default;

  /// A visible transaction began (first fragment of a new id heard or sent).
  virtual void on_begin() = 0;
  /// A visible transaction ended (last fragment, timeout, or delivery).
  virtual void on_end() = 0;
  /// Current estimate of T; always >= 1 (the observer's own transaction
  /// counts itself).
  virtual double estimate() const = 0;
  virtual std::string_view name() const = 0;
};

/// Exponentially weighted moving average of the concurrency sampled at
/// each begin event. The default: smooth, cheap, adapts both ways.
class DensityEstimator final : public DensityModel {
 public:
  /// alpha is the EWMA weight on the newest sample, in (0, 1].
  explicit DensityEstimator(double alpha = 0.1);

  void on_begin() noexcept override;
  void on_end() noexcept override;
  double estimate() const noexcept override;
  std::string_view name() const override { return "ewma"; }

  /// Transactions currently believed active.
  std::uint64_t active() const noexcept { return active_; }
  std::uint64_t begins() const noexcept { return begins_; }

 private:
  double alpha_;
  std::uint64_t active_ = 0;
  std::uint64_t begins_ = 0;
  double ewma_ = 0.0;
  bool seeded_ = false;
};

/// The instantaneous active count, unsmoothed. Reacts immediately but
/// jitters with every event; the minimal estimator a node could run.
class InstantaneousDensity final : public DensityModel {
 public:
  void on_begin() noexcept override { ++active_; }
  void on_end() noexcept override {
    if (active_ > 0) --active_;
  }
  double estimate() const noexcept override {
    return active_ == 0 ? 1.0 : static_cast<double>(active_);
  }
  std::string_view name() const override { return "instant"; }

 private:
  std::uint64_t active_ = 0;
};

/// Peak concurrency among the last `window` begin events — a conservative
/// estimator for provisioning: the listening window it feeds will rarely
/// be too small, at the cost of avoiding more identifiers than necessary.
class PeakWindowDensity final : public DensityModel {
 public:
  explicit PeakWindowDensity(std::size_t window = 16);

  void on_begin() override;
  void on_end() noexcept override {
    if (active_ > 0) --active_;
  }
  double estimate() const override;
  std::string_view name() const override { return "peak"; }

 private:
  std::size_t window_;
  std::uint64_t active_ = 0;
  std::deque<std::uint64_t> samples_;  // concurrency at recent begins
};

/// Which DensityModel a driver should construct.
enum class DensityModelKind { kEwma, kInstantaneous, kPeakWindow };

std::unique_ptr<DensityModel> make_density_model(DensityModelKind kind);

}  // namespace retri::core
