#include "fault/churn.hpp"

#include <algorithm>

namespace retri::fault {
namespace {

ChurnConfig validated_churn(ChurnConfig config) {
  FaultPlan probe;
  probe.churn = config;
  return validated(probe).churn;
}

}  // namespace

ChurnSchedule::ChurnSchedule(sim::BroadcastMedium& medium, ChurnConfig config,
                             std::vector<sim::NodeId> nodes,
                             std::uint64_t seed, sim::TimePoint stop_at)
    : medium_(medium),
      config_(validated_churn(config)),
      stop_at_(stop_at) {
  if (!config_.active()) return;
  util::SplitMix64 mix(seed);
  nodes_.reserve(nodes.size());
  for (const sim::NodeId id : nodes) {
    nodes_.push_back(Node{id, util::Xoshiro256(mix.next()), {}});
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) schedule_crash(i);
}

ChurnSchedule::~ChurnSchedule() {
  for (Node& node : nodes_) node.timer.cancel();
}

sim::Duration ChurnSchedule::dwell(std::size_t index, sim::Duration mean) {
  const double seconds = nodes_[index].rng.exponential(mean.to_seconds());
  return std::max(sim::Duration::from_seconds(seconds),
                  sim::Duration::nanoseconds(1));
}

void ChurnSchedule::schedule_crash(std::size_t index) {
  const sim::TimePoint at =
      medium_.simulator().now() + dwell(index, config_.mean_uptime);
  if (at >= stop_at_) return;  // no crashes after the schedule's horizon
  nodes_[index].timer = medium_.simulator().schedule_at(at, [this, index]() {
    medium_.set_enabled(nodes_[index].id, false);
    ++crashes_;
    schedule_restart(index);
  });
}

void ChurnSchedule::schedule_restart(std::size_t index) {
  // Restarts may land past stop_at so a node crashed near the horizon
  // still comes back up; only new crashes are horizon-limited.
  nodes_[index].timer = medium_.simulator().schedule_after(
      dwell(index, config_.mean_downtime), [this, index]() {
        medium_.set_enabled(nodes_[index].id, true);
        ++restarts_;
        schedule_crash(index);
      });
}

}  // namespace retri::fault
