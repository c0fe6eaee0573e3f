#include "sim/mobility.hpp"

#include <cassert>
#include <cmath>

#include "util/validate.hpp"

namespace retri::sim {

MobilityConfig validated(MobilityConfig config) {
  util::Validator v{"MobilityConfig"};
  v.positive("field_side", config.field_side);
  v.positive("radio_range", config.radio_range);
  v.non_negative("speed_min", config.speed_min);
  v.positive("speed_max", config.speed_max);
  if (config.speed_max < config.speed_min) {
    v.fail_bare("speed_max", "be >= speed_min");
  }
  v.positive_seconds("tick", config.tick.to_seconds());
  return config;
}

RandomWaypointMobility::RandomWaypointMobility(BroadcastMedium& medium,
                                               MobilityConfig config,
                                               std::uint64_t seed)
    : medium_(medium),
      config_(validated(config)),
      rng_(seed) {
  assert(config_.field_side > 0.0);
  assert(config_.radio_range > 0.0);
  assert(config_.speed_min > 0.0 && config_.speed_min <= config_.speed_max);
  assert(config_.tick > Duration::nanoseconds(0));

  const std::size_t n = medium_.topology().size();
  positions_.resize(n);
  waypoints_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    positions_[i] = {rng_.uniform() * config_.field_side,
                     rng_.uniform() * config_.field_side};
    waypoints_[i] = pick_waypoint();
  }
  rebuild_topology();
  schedule_tick();
}

RandomWaypointMobility::~RandomWaypointMobility() { tick_timer_.cancel(); }

RandomWaypointMobility::Waypoint RandomWaypointMobility::pick_waypoint() {
  Waypoint w;
  w.target = {rng_.uniform() * config_.field_side,
              rng_.uniform() * config_.field_side};
  w.speed = config_.speed_min +
            rng_.uniform() * (config_.speed_max - config_.speed_min);
  return w;
}

double RandomWaypointMobility::distance(NodeId a, NodeId b) const {
  const double dx = positions_.at(a).x - positions_.at(b).x;
  const double dy = positions_.at(a).y - positions_.at(b).y;
  return std::sqrt(dx * dx + dy * dy);
}

void RandomWaypointMobility::advance(double dt_seconds) {
  for (std::size_t i = 0; i < positions_.size(); ++i) {
    Position& p = positions_[i];
    Waypoint& w = waypoints_[i];
    const double dx = w.target.x - p.x;
    const double dy = w.target.y - p.y;
    const double dist = std::sqrt(dx * dx + dy * dy);
    const double step = w.speed * dt_seconds;
    if (dist <= step) {
      p = w.target;  // arrived: choose the next leg
      w = pick_waypoint();
    } else {
      p.x += dx / dist * step;
      p.y += dy / dist * step;
    }
  }
}

void RandomWaypointMobility::rebuild_topology() {
  Topology& topology = medium_.topology();
  const std::size_t n = positions_.size();
  const double r2 = config_.radio_range * config_.radio_range;
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = static_cast<NodeId>(a + 1); b < n; ++b) {
      const double dx = positions_[a].x - positions_[b].x;
      const double dy = positions_[a].y - positions_[b].y;
      const bool in_range = dx * dx + dy * dy <= r2;
      const bool linked = topology.hears(a, b);
      if (in_range && !linked) {
        topology.add_bidi(a, b);
        link_changes_ += 2;
      } else if (!in_range && linked) {
        topology.remove_link(a, b);
        topology.remove_link(b, a);
        link_changes_ += 2;
      }
    }
  }
}

void RandomWaypointMobility::schedule_tick() {
  if (medium_.simulator().now() >= config_.stop_at) return;
  tick_timer_ = medium_.simulator().schedule_after(config_.tick, [this]() {
    if (!running_) return;
    ++ticks_;
    advance(config_.tick.to_seconds());
    rebuild_topology();
    schedule_tick();
  });
}

}  // namespace retri::sim
