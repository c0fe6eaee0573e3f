#include "runner/sweep.hpp"

#include <iterator>
#include <mutex>
#include <utility>

#include "runner/codec.hpp"
#include "runner/seeds.hpp"
#include "stats/table.hpp"

namespace retri::runner {
namespace {

// runner::fingerprint is re-derived from every decoded hit, so a body that
// decodes cleanly but no longer describes the trial it is filed under is
// rejected.
constexpr CellKind<ExperimentConfig, ExperimentResult> kSweepTrial{
    "sweep-trial",
    &canonical_cell,
    [](const ExperimentConfig& config) { return run_experiment(config); },
    &encode_result,
    &decode_result_text,
    &fingerprint};

template <typename T>
std::vector<T> axis_or(const std::vector<T>& axis, const T& base_value) {
  if (!axis.empty()) return axis;
  return {base_value};
}

void append_label(std::string& label, std::string_view part) {
  if (!label.empty()) label.push_back(' ');
  label += part;
}

}  // namespace

std::size_t SweepSpec::point_count() const noexcept {
  auto dim = [](std::size_t n) { return n == 0 ? std::size_t{1} : n; };
  return dim(id_bits.size()) * dim(selectors.size()) * dim(attackers.size()) *
         dim(senders.size()) * dim(duties.size()) *
         dim(density_models.size()) * dim(channels.size()) *
         dim(loss_rates.size());
}

std::vector<SweepPoint> SweepSpec::expand() const {
  const std::vector<unsigned> bits_axis = axis_or(id_bits, base.id_bits);
  const std::vector<core::SelectorSpec> selector_axis =
      axis_or(selectors, base.selector);
  const std::vector<fault::AttackerMode> attacker_axis =
      axis_or(attackers, base.attacker.mode);
  const std::vector<std::size_t> sender_axis = axis_or(senders, base.senders);
  const std::vector<double> duty_axis =
      axis_or(duties, base.sender_listen_duty);
  const std::vector<core::DensityModelKind> density_axis =
      axis_or(density_models, base.density_model);
  const std::vector<Channel> channel_axis = axis_or(channels, base.channel);
  const std::vector<double> loss_axis = axis_or(loss_rates, base.loss_rate);

  std::vector<SweepPoint> points;
  points.reserve(point_count());
  for (const unsigned bits : bits_axis) {
   for (const core::SelectorSpec& selector : selector_axis) {
    for (const fault::AttackerMode attack : attacker_axis) {
      for (const std::size_t sender_count : sender_axis) {
        for (const double duty : duty_axis) {
          for (const core::DensityModelKind density : density_axis) {
            for (const Channel channel : channel_axis) {
              for (const double loss : loss_axis) {
                SweepPoint point;
                point.config = base;
                point.config.id_bits = bits;
                point.config.selector = selector;
                point.config.attacker.mode = attack;
                point.config.senders = sender_count;
                point.config.sender_listen_duty = duty;
                point.config.density_model = density;
                point.config.channel = channel;
                point.config.loss_rate = loss;
                // The notify selector only makes sense with receiver
                // notifications enabled; couple them so grids stay
                // expressible as plain axis lists.
                if (selector.policy == core::SelectorPolicy::kListening &&
                    selector.listening.heed_notifications) {
                  point.config.collision_notifications = true;
                }
                point.config.seed = derive_point_seed(base.seed, points.size());

                std::string& label = point.label;
                if (bits_axis.size() > 1) {
                  append_label(label, "H=" + std::to_string(bits));
                }
                if (selector_axis.size() > 1) {
                  append_label(label, core::describe(selector));
                }
                if (attacker_axis.size() > 1) {
                  append_label(label,
                               "atk=" + std::string(fault::to_string(attack)));
                }
                if (sender_axis.size() > 1) {
                  append_label(label, "T=" + std::to_string(sender_count));
                }
                if (duty_axis.size() > 1) {
                  append_label(label, "duty=" + stats::fmt(duty, 2));
                }
                if (density_axis.size() > 1) {
                  append_label(label, std::string(to_string(density)));
                }
                if (channel_axis.size() > 1) {
                  append_label(label, to_string(channel));
                }
                if (loss_axis.size() > 1) {
                  append_label(label, "loss=" + stats::fmt(loss, 2));
                }
                if (label.empty()) label = "base";
                points.push_back(std::move(point));
              }
            }
          }
        }
      }
    }
   }
  }
  return points;
}

SweepRunner::SweepRunner(SweepOptions options) : options_(std::move(options)) {}

SweepResult SweepRunner::run(const SweepSpec& spec) const {
  const std::vector<SweepPoint> points = spec.expand();
  const unsigned trials = spec.trials == 0 ? 1 : spec.trials;

  // Cell i is trial i % trials of point i / trials. Every (point, trial)
  // pair is one cell, so points with few trials never serialize the
  // sweep's tail.
  std::vector<ExperimentConfig> cells;
  cells.reserve(points.size() * trials);
  for (const SweepPoint& point : points) {
    for (unsigned t = 0; t < trials; ++t) {
      cells.push_back(point.config);
      cells.back().seed = derive_trial_seed(point.config.seed, t);
    }
  }

  std::mutex progress_mutex;
  std::size_t points_done = 0;
  std::vector<unsigned> remaining(points.size(), trials);
  const auto on_cell = [&](std::size_t i) {
    const std::size_t p = i / trials;
    const std::lock_guard<std::mutex> lock(progress_mutex);
    if (--remaining[p] == 0) {
      ++points_done;
      if (options_.on_point_done) {
        options_.on_point_done(
            {points_done, points.size(), p, points[p].label});
      }
    }
  };

  SweepResult out;
  out.spec = spec;
  std::vector<ExperimentResult> results;
  out.memo = memoize(kSweepTrial, cells, options_.cache_dir, options_.jobs,
                     results, on_cell);

  out.points.resize(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    SweepPointResult& point = out.points[p];
    point.label = points[p].label;
    point.config = points[p].config;
    const auto first =
        results.begin() + static_cast<std::ptrdiff_t>(p * trials);
    point.trials.assign(std::make_move_iterator(first),
                        std::make_move_iterator(first + trials));
    point.summary = TrialRunner::summarize(point.trials);
  }
  return out;
}

std::vector<std::string_view> named_sweeps() {
  return {"fig1",        "fig2",        "fig3",
          "fig4",        "hidden_terminal", "txn_lengths",
          "duty_cycle",  "density_estimators", "scaling",
          "burst_loss",  "chaos",       "selectors"};
}

util::Result<SweepSpec, std::string> make_named_sweep(std::string_view name) {
  SweepSpec spec;
  spec.name = std::string(name);
  if (name == "fig1") {
    // Simulation analog of Figure 1: tiny (16-bit) payloads across
    // identifier widths — where header overhead dominates efficiency.
    spec.description = "16-bit payloads across identifier widths (uniform)";
    spec.base.packet_bytes = 2;
    spec.id_bits = {2, 4, 6, 8, 10, 12};
  } else if (name == "fig2") {
    // Simulation analog of Figure 2: 128-bit payloads.
    spec.description = "128-bit payloads across identifier widths (uniform)";
    spec.base.packet_bytes = 16;
    spec.id_bits = {2, 4, 8, 12, 16};
  } else if (name == "fig3") {
    // Load sweep: offered load (sender count) x identifier width.
    spec.description = "collision loss vs offered load and identifier width";
    spec.senders = {2, 4, 8, 16};
    spec.id_bits = {4, 8};
  } else if (name == "fig4") {
    // The §5.1 validation grid: widths 1..10, uniform vs listening.
    spec.description =
        "observed collision rate vs identifier width, uniform vs listening";
    spec.id_bits = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    spec.selectors = {core::uniform_selector(), core::listening_selector()};
  } else if (name == "hidden_terminal") {
    spec.description =
        "listening under hidden terminals, with and without notifications";
    spec.base.topology = TopologyKind::kHiddenTerminal;
    spec.id_bits = {2, 3, 4, 5, 6};
    spec.selectors = {core::uniform_selector(), core::listening_selector(),
                      core::listening_selector(/*heed_notifications=*/true)};
  } else if (name == "txn_lengths") {
    spec.description =
        "mixed short/long transactions (24B/240B) across identifier widths";
    spec.base.per_sender_packet_bytes = {24, 240};
    spec.id_bits = {2, 4, 6};
  } else if (name == "duty_cycle") {
    spec.description = "listening value vs sender listen duty factor (H=4)";
    spec.base.id_bits = 4;
    spec.base.selector = core::listening_selector();
    spec.duties = {0.0, 0.25, 0.5, 0.75, 1.0};
  } else if (name == "density_estimators") {
    spec.description = "density estimator choice under listening (H=3,4,6)";
    spec.base.selector = core::listening_selector();
    spec.id_bits = {3, 4, 6};
    spec.density_models = {core::DensityModelKind::kEwma,
                           core::DensityModelKind::kInstantaneous,
                           core::DensityModelKind::kPeakWindow};
  } else if (name == "scaling") {
    spec.description = "sender-count scaling x identifier width (uniform)";
    spec.senders = {2, 5, 10, 20};
    spec.id_bits = {4, 8};
  } else if (name == "burst_loss") {
    // Gilbert–Elliott ablation: the same average frame-loss rate arranged
    // independently vs. in bursts. Bursty arrangements clump the losses
    // into fewer packets, so multi-fragment packet survival should be no
    // worse than under independent loss at equal averages.
    spec.description =
        "independent vs Gilbert-Elliott burst loss at equal average "
        "frame-loss rates (H=8)";
    spec.base.id_bits = 8;
    spec.channels = {Channel::kIndependent, Channel::kBurst};
    spec.loss_rates = {0.05, 0.15, 0.30};
  } else if (name == "chaos") {
    // Identifier widths under the full hostile channel: how much of
    // Figure 4's shape survives burst loss, corruption, duplication,
    // delay jitter, and sender churn.
    spec.description =
        "identifier widths under the chaos channel "
        "(burst+corrupt+dup+delay+churn)";
    spec.base.channel = Channel::kChaos;
    spec.base.loss_rate = 0.15;
    spec.id_bits = {2, 4, 6, 8};
  } else if (name == "selectors") {
    // The selector-zoo ablation: every identifier-selection policy against
    // every attacker mode across offered load, at a width (H=6) narrow
    // enough that collisions — accidental or forged — actually happen.
    spec.description =
        "selector zoo x attacker mode x offered load (H=6)";
    spec.base.id_bits = 6;
    spec.selectors = {core::uniform_selector(),
                      core::listening_selector(),
                      core::counter_selector(),
                      core::hashed_counter_selector(),
                      core::permutation_selector(),
                      core::hybrid_selector()};
    spec.attackers = {fault::AttackerMode::kOff,
                      fault::AttackerMode::kBlindFlood,
                      fault::AttackerMode::kEchoCollide};
    spec.senders = {4, 8, 16};
  } else {
    // Name the alternatives in the error: the CLI surfaces this string
    // verbatim, so a typo'd --sweep tells the user what would have worked.
    std::string error = "unknown sweep \"" + std::string(name) +
                        "\"; available sweeps:";
    for (const std::string_view known : named_sweeps()) {
      error += ' ';
      error += known;
    }
    return error;
  }
  return spec;
}

}  // namespace retri::runner
