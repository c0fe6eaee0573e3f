#include "workloads.hpp"

#include "sim/time.hpp"

namespace perfbench {
namespace {

using retri::runner::ExperimentConfig;
using retri::sim::Duration;

/// Every workload sends for 10 s of simulated time and drains for 5 s.
ExperimentConfig base_config() {
  ExperimentConfig c;
  c.send_duration = Duration::seconds(10);
  c.drain_extra = Duration::seconds(5);
  c.id_bits = 8;
  c.packet_bytes = 80;
  return c;
}

std::vector<Workload> make_workloads() {
  std::vector<Workload> out;

  // §5.1: five saturating senders, full mesh, ideal channel.
  Workload star;
  star.name = "paper_star5";
  star.config = base_config();
  star.config.senders = 5;
  star.seeds = 48;
  star.reference_digest = 0x56935bfb184f506dULL;
  out.push_back(star);

  // §3.2 hidden terminals: 16 senders that only the receiver hears.
  Workload hidden;
  hidden.name = "hidden16";
  hidden.config = base_config();
  hidden.config.senders = 16;
  hidden.config.topology = retri::runner::TopologyKind::kHiddenTerminal;
  hidden.seeds = 40;
  hidden.reference_digest = 0xb5cf6c2dba6c2984ULL;
  out.push_back(hidden);

  return out;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = make_workloads();
  return all;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

ExperimentConfig trial_config(const Workload& w, std::uint64_t seed) {
  ExperimentConfig c = w.config;
  c.seed = seed;
  return c;
}

ExperimentConfig setup_config(const Workload& w, std::uint64_t seed) {
  ExperimentConfig c = trial_config(w, seed);
  c.send_duration = Duration::nanoseconds(1);
  c.drain_extra = Duration::nanoseconds(0);
  return c;
}

std::uint64_t digest(const std::vector<std::string>& fingerprints) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](unsigned char c) {
    h ^= c;
    h *= 0x100000001b3ULL;
  };
  for (const std::string& fp : fingerprints) {
    for (const char c : fp) mix(static_cast<unsigned char>(c));
    mix('\n');
  }
  return h;
}

}  // namespace perfbench
