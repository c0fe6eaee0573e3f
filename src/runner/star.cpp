#include "runner/star.hpp"

#include <cmath>
#include <utility>

#include "sim/topology.hpp"

namespace retri::runner {
namespace {

/// Mean Gilbert–Elliott bad-state dwell for the "burst" channel, in
/// deliveries. Chosen so a typical burst swallows a whole multi-fragment
/// packet rather than scattering independent frame losses.
constexpr double kBurstMeanLength = 5.0;

/// GE plan with loss_bad=1, loss_good=0 whose stationary average equals
/// `loss_rate` — the "same average, correlated arrangement" counterpart of
/// independent loss the ablation compares against.
fault::FaultPlan burst_plan(double loss_rate) {
  fault::FaultPlan plan;
  if (loss_rate <= 0.0) return plan;
  const double pi_bad = std::fmin(loss_rate, 0.95);
  plan.burst.loss_bad = 1.0;
  plan.burst.loss_good = 0.0;
  plan.burst.p_bad_to_good = 1.0 / kBurstMeanLength;
  plan.burst.p_good_to_bad =
      pi_bad * plan.burst.p_bad_to_good / (1.0 - pi_bad);
  return plan;
}

/// The fixed hostile plan behind the "chaos" channel: burst loss at the
/// configured average plus mild corruption, duplication, delay jitter,
/// and sender churn. Fixed (not randomized) so sweep points stay
/// comparable across axes; the randomized soak is runner::run_chaos_trial.
fault::FaultPlan chaos_plan(double loss_rate) {
  fault::FaultPlan plan = burst_plan(loss_rate <= 0.0 ? 0.1 : loss_rate);
  plan.corrupt_prob = 0.05;
  plan.corrupt_byte_prob = 0.05;
  plan.truncate_prob = 0.03;
  plan.duplicate_prob = 0.05;
  plan.max_duplicates = 2;
  plan.delay_prob = 0.2;
  plan.max_delay = sim::Duration::milliseconds(20);
  plan.churn.mean_uptime = sim::Duration::seconds(4);
  plan.churn.mean_downtime = sim::Duration::milliseconds(500);
  return plan;
}

/// The attacker occupies the node id one past the last sender, so victim
/// node numbering (receiver 0, senders 1..N) is identical with and without
/// an attacker and the per-node seed streams never shift.
sim::NodeId attacker_node(const ExperimentConfig& config) {
  return static_cast<sim::NodeId>(config.senders + 1);
}

sim::Topology make_topology(const ExperimentConfig& config) {
  const bool attacked = config.attacker.active();
  switch (config.topology) {
    case TopologyKind::kStarFullMesh:
      // An attacker in the full-mesh testbed is just one more node in
      // range of everyone.
      return attacked ? sim::Topology::full_mesh(config.senders + 2)
                      : sim::Topology::star_full_mesh(config.senders);
    case TopologyKind::kHiddenTerminal: {
      if (!attacked) return sim::Topology::hidden_terminal(config.senders);
      // Hidden-terminal senders stay mutually inaudible, but the attacker
      // is positioned to hear (and reach) every node — the worst case for
      // the victims: their listening heuristic cannot see each other, yet
      // the adversary sees all of them.
      sim::Topology topo(config.senders + 2);
      const sim::NodeId atk = attacker_node(config);
      for (std::size_t i = 1; i <= config.senders; ++i) {
        topo.add_bidi(0, static_cast<sim::NodeId>(i));
      }
      for (sim::NodeId node = 0; node < atk; ++node) topo.add_bidi(atk, node);
      return topo;
    }
  }
  return sim::Topology::star_full_mesh(config.senders);
}

}  // namespace

StarSpec star_spec(const ExperimentConfig& config) {
  StarSpec spec;
  spec.config = config;
  // Fault-layer channels route loss_rate through a FaultInjector instead
  // of the medium's i.i.d. knob.
  switch (config.channel) {
    case Channel::kIndependent:
      spec.medium.per_link_loss = config.loss_rate;
      break;
    case Channel::kBurst:
      spec.faults = burst_plan(config.loss_rate);
      break;
    case Channel::kChaos:
      spec.faults = chaos_plan(config.loss_rate);
      break;
  }
  spec.medium_seed = config.seed;
  spec.injector_seed = config.seed * 59 + 13;
  spec.churn_seed = config.seed * 61 + 17;
  return spec;
}

Star::Star(const StarSpec& spec, obs::Hooks hooks)
    : medium(sim, make_topology(spec.config), spec.medium, spec.medium_seed,
             hooks) {
  const ExperimentConfig& config = spec.config;
  const sim::TimePoint send_end =
      sim::TimePoint::origin() + config.send_duration;

  if (spec.faults) {
    injector = std::make_unique<fault::FaultInjector>(
        *spec.faults, spec.injector_seed, hooks);
    medium.set_interceptor(injector.get());
  }

  aff::AffDriverConfig driver_config;
  driver_config.wire.id_bits = config.id_bits;
  driver_config.wire.instrumented = true;
  driver_config.reassembly_timeout = spec.reassembly_timeout;
  driver_config.max_reassembly_entries = spec.max_reassembly_entries;
  driver_config.send_collision_notifications = config.collision_notifications;
  driver_config.density_model = config.density_model;

  // The adversary, if any, takes the medium's interception seam (chaining
  // any fault injector already on it) and forges traffic through a real
  // radio at the extra node make_topology reserved for it. Constructed
  // before the victim stacks so "attacker.*" metrics precede theirs in the
  // registry; when the plan is off, nothing here runs and the star is
  // byte-identical to one built before attackers existed.
  if (config.attacker.active()) {
    attacker = std::make_unique<fault::AttackerNode>(
        medium, attacker_node(config), config.attacker, driver_config.wire,
        config.seed * 67 + 19, hooks);
    attacker->set_inner(injector.get());
    medium.set_interceptor(attacker.get());
  }

  // Every node's radio, selector and source stream derives from
  // config.seed by its own multiplier, so no two streams coincide.
  const radio::EnergyModel energy = radio::EnergyModel::rpc_like();
  radio::RadioConfig radio_config;
  radio_config.max_backoff = config.tx_jitter;
  const core::IdSpace ids(config.id_bits);

  receiver.radio = std::make_unique<radio::Radio>(
      medium, 0, radio_config, energy, config.seed * 31 + 7);
  receiver.selector =
      core::make_selector(config.selector, ids, config.seed * 37 + 11);
  receiver.driver = std::make_unique<aff::AffDriver>(
      *receiver.radio, *receiver.selector, driver_config, 0, hooks);

  aff::AffDriverConfig sender_config = driver_config;
  sender_config.truth_reassembly = spec.sender_truth;
  senders.resize(config.senders);
  for (std::size_t i = 0; i < config.senders; ++i) {
    const auto node = static_cast<sim::NodeId>(i + 1);
    Node& s = senders[i];
    s.radio = std::make_unique<radio::Radio>(medium, node, radio_config,
                                             energy, config.seed * 41 + node);
    s.selector =
        core::make_selector(config.selector, ids, config.seed * 43 + node);
    s.driver = std::make_unique<aff::AffDriver>(*s.radio, *s.selector,
                                                sender_config, node, hooks);
    const std::size_t bytes = config.per_sender_packet_bytes.empty()
                                  ? config.packet_bytes
                                  : config.per_sender_packet_bytes
                                        [i % config.per_sender_packet_bytes.size()];
    std::unique_ptr<apps::Workload> workload;
    if (spec.poisson_mean > sim::Duration()) {
      workload = std::make_unique<apps::PoissonWorkload>(spec.poisson_mean,
                                                         bytes);
    } else {
      workload = std::make_unique<apps::SaturatingWorkload>(bytes);
    }
    s.source = std::make_unique<apps::TrafficSource>(
        sim, *s.driver, std::move(workload), config.seed * 47 + node);
    s.source->start(send_end);
  }

  // The attacker operates for exactly the send window — the drain period
  // measures how the victims recover once the adversary goes quiet.
  if (attacker != nullptr) attacker->start(send_end);

  // Churn crashes and restarts senders; the receiver (the measurement
  // instrument) always stays up.
  if (injector != nullptr && injector->plan().churn.active()) {
    std::vector<sim::NodeId> churn_nodes;
    for (std::size_t i = 0; i < config.senders; ++i) {
      churn_nodes.push_back(static_cast<sim::NodeId>(i + 1));
    }
    churn = std::make_unique<fault::ChurnSchedule>(
        medium, injector->plan().churn, std::move(churn_nodes),
        spec.churn_seed, send_end);
  }

  // Duty-cycled sender listening (§3.2): staggered phases so the senders'
  // sleep schedules are mutually unsynchronized, like unattended motes.
  if (config.sender_listen_duty < 1.0) {
    for (std::size_t i = 0; i < config.senders; ++i) {
      radio::DutyCycleConfig dc;
      dc.period = config.duty_period;
      dc.on_fraction = config.sender_listen_duty;
      dc.phase = config.duty_period * static_cast<std::int64_t>(i) /
                 static_cast<std::int64_t>(config.senders);
      dc.stop_at = send_end;
      duty.push_back(std::make_unique<radio::DutyCycleController>(
          *senders[i].radio, dc));
    }
  }
}

}  // namespace retri::runner
