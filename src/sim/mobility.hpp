// Node mobility — the "dynamic sensor network" of the title.
//
// "Sensors will experience changes in their position, reachability,
// available energy, and even task details" (§1). RandomWaypointMobility
// gives each node a position in a square field and a sequence of random
// waypoints; every tick it advances positions and rewrites the medium's
// topology from the disk connectivity rule (hear anyone within range).
// RETRI needs no reaction to any of this — that is the point — while
// address-assignment protocols must re-run (bench/ablate_dynamic_alloc).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/medium.hpp"
#include "util/random.hpp"

namespace retri::sim {

struct MobilityConfig {
  /// Side of the square field nodes roam in (meters).
  double field_side = 100.0;
  /// Disk connectivity radius (meters).
  double radio_range = 30.0;
  /// Uniform speed range (meters/second).
  double speed_min = 0.5;
  double speed_max = 2.0;
  /// Position/topology update cadence.
  Duration tick = Duration::milliseconds(500);
  /// Movement ceases after this time (bounds the event queue).
  TimePoint stop_at = TimePoint::origin() + Duration::seconds(3'000'000'000);
};

/// Returns `config` unchanged or throws std::invalid_argument naming the
/// offending field. The RandomWaypointMobility constructor applies this.
MobilityConfig validated(MobilityConfig config);

struct Position {
  double x = 0.0;
  double y = 0.0;
};

class RandomWaypointMobility {
 public:
  /// Scatters the medium's nodes uniformly in the field and starts moving
  /// them. The medium's topology is rewritten on every tick.
  RandomWaypointMobility(BroadcastMedium& medium, MobilityConfig config,
                         std::uint64_t seed);
  ~RandomWaypointMobility();

  RandomWaypointMobility(const RandomWaypointMobility&) = delete;
  RandomWaypointMobility& operator=(const RandomWaypointMobility&) = delete;

  void stop() { running_ = false; }

  Position position(NodeId node) const { return positions_.at(node); }
  /// Directed link flips (appear or disappear) since construction.
  std::uint64_t link_changes() const noexcept { return link_changes_; }
  std::uint64_t ticks() const noexcept { return ticks_; }

  /// Current distance between two nodes.
  double distance(NodeId a, NodeId b) const;

 private:
  struct Waypoint {
    Position target;
    double speed = 1.0;
  };

  void schedule_tick();
  void advance(double dt_seconds);
  void rebuild_topology();
  Waypoint pick_waypoint();

  BroadcastMedium& medium_;
  MobilityConfig config_;
  util::Xoshiro256 rng_;
  std::vector<Position> positions_;
  std::vector<Waypoint> waypoints_;
  std::uint64_t link_changes_ = 0;
  std::uint64_t ticks_ = 0;
  bool running_ = true;
  EventHandle tick_timer_;  // the pending tick
};

}  // namespace retri::sim
