// ChurnSchedule: deterministic node crash/restart churn.
//
// Drives BroadcastMedium::set_enabled from simulator events: each governed
// node alternates exponential up/down dwell times drawn from a per-node
// stream (derived from one seed), crashing and restarting until `stop_at`.
// A node that is down when the schedule ends is restarted one downtime
// later, so every node is eventually powered again and drain phases see a
// stable topology.
//
// Deliveries to a crashed node are counted by the medium as lost_disabled,
// so churn composes with the conservation laws unchanged.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/plan.hpp"
#include "sim/medium.hpp"
#include "util/random.hpp"

namespace retri::fault {

class ChurnSchedule {
 public:
  /// Governs `nodes` with dwell times from `config`, scheduling no crash
  /// at or after `stop_at`. Inactive configs schedule nothing. Destroying
  /// the schedule cancels every node's pending crash or restart, which
  /// stops the churn and leaves each node as it is. Throws
  /// std::invalid_argument on negative dwell means (via fault::validated).
  ChurnSchedule(sim::BroadcastMedium& medium, ChurnConfig config,
                std::vector<sim::NodeId> nodes, std::uint64_t seed,
                sim::TimePoint stop_at);
  ~ChurnSchedule();

  ChurnSchedule(const ChurnSchedule&) = delete;
  ChurnSchedule& operator=(const ChurnSchedule&) = delete;

  std::uint64_t crashes() const noexcept { return crashes_; }
  std::uint64_t restarts() const noexcept { return restarts_; }

 private:
  struct Node {
    sim::NodeId id;
    util::Xoshiro256 rng;
    sim::EventHandle timer;  // its one pending crash or restart
  };

  void schedule_crash(std::size_t index);
  void schedule_restart(std::size_t index);
  sim::Duration dwell(std::size_t index, sim::Duration mean);

  sim::BroadcastMedium& medium_;
  ChurnConfig config_;
  sim::TimePoint stop_at_;
  std::vector<Node> nodes_;
  std::uint64_t crashes_ = 0;
  std::uint64_t restarts_ = 0;
};

}  // namespace retri::fault
