// The selector registry translation unit. Every selector-policy string
// literal in src/ and bench/ lives HERE (to_string / parse_selector_spec);
// retri_lint's no-raw-selector-policy rule enforces that everything else
// goes through SelectorPolicy / SelectorSpec.
#include "core/selector.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/bitops.hpp"
#include "util/validate.hpp"

namespace retri::core {

void IdSelector::bind_metrics(obs::MetricsRegistry& registry,
                              std::string_view prefix) {
  const std::string base(prefix);
  selects_ = registry.counter(base + "selects");
  observes_ = registry.counter(base + "observes");
  collision_notices_ = registry.counter(base + "collision_notices");
  density_updates_ = registry.counter(base + "density_updates");
  on_bind_metrics(registry, prefix);
}

// --- registry ---------------------------------------------------------------

std::string_view to_string(SelectorPolicy policy) noexcept {
  switch (policy) {
    case SelectorPolicy::kUniform: return "uniform";
    case SelectorPolicy::kListening: return "listening";
    case SelectorPolicy::kCounter: return "counter";
    case SelectorPolicy::kHashedCounter: return "hashed_counter";
    case SelectorPolicy::kPermutation: return "permutation";
    case SelectorPolicy::kHybrid: return "hybrid";
  }
  return "?";
}

namespace {

/// The one name that is not a bare policy: a listening spec that heeds
/// notifications. Kept out of to_string so the enum stays 1:1 with names.
constexpr std::string_view kListeningNotifyName = "listening+notify";

}  // namespace

std::string_view describe(const SelectorSpec& spec) noexcept {
  if (spec.policy == SelectorPolicy::kListening &&
      spec.listening.heed_notifications) {
    return kListeningNotifyName;
  }
  return to_string(spec.policy);
}

SelectorSpec uniform_selector() { return SelectorSpec{}; }

SelectorSpec listening_selector(bool heed_notifications) {
  SelectorSpec spec;
  spec.policy = SelectorPolicy::kListening;
  spec.listening.heed_notifications = heed_notifications;
  return spec;
}

SelectorSpec counter_selector(std::uint64_t salt) {
  SelectorSpec spec;
  spec.policy = SelectorPolicy::kCounter;
  spec.counter_salt = salt;
  return spec;
}

SelectorSpec hashed_counter_selector(std::uint64_t salt) {
  SelectorSpec spec;
  spec.policy = SelectorPolicy::kHashedCounter;
  spec.counter_salt = salt;
  return spec;
}

SelectorSpec permutation_selector(std::uint64_t period) {
  SelectorSpec spec;
  spec.policy = SelectorPolicy::kPermutation;
  spec.permutation_period = period;
  return spec;
}

SelectorSpec hybrid_selector(std::uint64_t period) {
  SelectorSpec spec;
  spec.policy = SelectorPolicy::kHybrid;
  spec.permutation_period = period;
  return spec;
}

std::vector<std::string_view> named_selectors() {
  return {to_string(SelectorPolicy::kUniform),
          to_string(SelectorPolicy::kListening),
          kListeningNotifyName,
          to_string(SelectorPolicy::kCounter),
          to_string(SelectorPolicy::kHashedCounter),
          to_string(SelectorPolicy::kPermutation),
          to_string(SelectorPolicy::kHybrid)};
}

util::Result<SelectorSpec, std::string> parse_selector_spec(
    std::string_view name) {
  if (name == to_string(SelectorPolicy::kUniform)) return uniform_selector();
  if (name == to_string(SelectorPolicy::kListening)) {
    return listening_selector(false);
  }
  if (name == kListeningNotifyName) return listening_selector(true);
  if (name == to_string(SelectorPolicy::kCounter)) return counter_selector();
  if (name == to_string(SelectorPolicy::kHashedCounter)) {
    return hashed_counter_selector();
  }
  if (name == to_string(SelectorPolicy::kPermutation)) {
    return permutation_selector();
  }
  if (name == to_string(SelectorPolicy::kHybrid)) return hybrid_selector();
  // Name the alternatives in the error: CLIs print this verbatim, so a
  // typo'd --selector tells the user what would have worked.
  std::string error = "unknown id selection policy \"" + std::string(name) +
                      "\"; available policies:";
  for (const std::string_view known : named_selectors()) {
    error += ' ';
    error += known;
  }
  return error;
}

ListeningConfig validated(ListeningConfig config) {
  util::Validator v{"ListeningConfig"};
  v.non_negative("initial_density", config.initial_density);
  v.at_least("notification_multiplier", config.notification_multiplier, 1);
  return config;
}

SelectorSpec validated(SelectorSpec spec) {
  spec.listening = validated(spec.listening);
  return spec;
}

// --- AvoidWindow ------------------------------------------------------------

AvoidWindow::AvoidWindow(ListeningConfig config)
    : config_(validated(config)),
      density_(std::max(1.0, config.initial_density)) {}

std::size_t AvoidWindow::window() const noexcept {
  if (config_.fixed_window != 0) return config_.fixed_window;
  return static_cast<std::size_t>(std::ceil(2.0 * density_));
}

void AvoidWindow::set_density(double t) {
  density_ = std::max(1.0, t);
  // Shrink immediately if the window contracted.
  trim(recent_, window());
  if (config_.heed_notifications) {
    trim(quarantined_, window() * config_.notification_multiplier);
  }
}

void AvoidWindow::trim(std::deque<TransactionId>& q, std::size_t cap) {
  while (q.size() > cap) {
    const TransactionId oldest = q.front();
    q.pop_front();
    auto it = avoid_counts_.find(oldest);
    assert(it != avoid_counts_.end());
    if (--it->second == 0) avoid_counts_.erase(it);
  }
}

void AvoidWindow::push_recent(std::deque<TransactionId>& q, TransactionId id,
                              std::size_t cap) {
  q.push_back(id);
  ++avoid_counts_[id];
  trim(q, cap);
}

void AvoidWindow::observe(TransactionId id) {
  push_recent(recent_, id, window());
}

void AvoidWindow::notify_collision(TransactionId id) {
  if (!config_.heed_notifications) return;
  push_recent(quarantined_, id, window() * config_.notification_multiplier);
}

// --- UniformSelector --------------------------------------------------------

UniformSelector::UniformSelector(IdSpace space, std::uint64_t seed)
    : IdSelector(space), rng_(seed) {}

std::string_view UniformSelector::name() const {
  return to_string(SelectorPolicy::kUniform);
}

TransactionId UniformSelector::do_select() {
  if (space_.bits() >= 64) return TransactionId(rng_.next());
  return TransactionId(rng_.below(space_.size()));
}

// --- ListeningSelector ------------------------------------------------------

ListeningSelector::ListeningSelector(IdSpace space, std::uint64_t seed,
                                     ListeningConfig config)
    : IdSelector(space), rng_(seed), window_(config) {}

std::string_view ListeningSelector::name() const {
  return to_string(SelectorPolicy::kListening);
}

void ListeningSelector::do_set_density(double t) {
  window_.set_density(t);
  update_avoided_gauge();
}

void ListeningSelector::on_bind_metrics(obs::MetricsRegistry& registry,
                                        std::string_view prefix) {
  avoided_gauge_ = registry.gauge(std::string(prefix) + "avoided");
  update_avoided_gauge();
}

void ListeningSelector::update_avoided_gauge() {
  avoided_gauge_.set(static_cast<std::int64_t>(window_.avoided()));
}

void ListeningSelector::do_observe(TransactionId id) {
  window_.observe(id);
  update_avoided_gauge();
}

void ListeningSelector::do_notify_collision(TransactionId id) {
  window_.notify_collision(id);
  update_avoided_gauge();
}

TransactionId ListeningSelector::do_select() {
  const std::uint64_t pool = space_.size();

  // Nothing to avoid, or avoidance covers the whole pool: plain uniform.
  if (window_.avoided() == 0 || window_.avoided() >= pool) {
    if (space_.bits() >= 64) return TransactionId(rng_.next());
    return TransactionId(rng_.below(pool));
  }

  // Small pool: enumerate the complement for exact uniform selection even
  // when the avoid set covers most of it.
  constexpr std::uint64_t kEnumerateLimit = 4096;
  if (pool <= kEnumerateLimit) {
    std::vector<TransactionId> candidates;
    candidates.reserve(static_cast<std::size_t>(pool) - window_.avoided());
    for (std::uint64_t v = 0; v < pool; ++v) {
      const TransactionId id(v);
      if (!window_.avoiding(id)) candidates.push_back(id);
    }
    assert(!candidates.empty());
    return candidates[static_cast<std::size_t>(rng_.below(candidates.size()))];
  }

  // Large pool: rejection sampling — exactly uniform over the complement.
  // The avoid set is at most a few windows (<< 4096) while the pool exceeds
  // 4096, so acceptance probability is > 1/2 and the attempt bound is
  // effectively never reached; it exists to guarantee termination.
  constexpr int kMaxAttempts = 128;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    const TransactionId id(space_.bits() >= 64 ? rng_.next()
                                               : rng_.below(pool));
    if (!window_.avoiding(id)) return id;
  }
  return TransactionId(space_.bits() >= 64 ? rng_.next() : rng_.below(pool));
}

// --- CounterSelector --------------------------------------------------------

CounterSelector::CounterSelector(IdSpace space, std::uint64_t seed,
                                 std::uint64_t salt)
    : IdSelector(space),
      next_(util::SplitMix64(seed ^ (salt * 0x9e3779b97f4a7c15ULL)).next()) {}

std::string_view CounterSelector::name() const {
  return to_string(SelectorPolicy::kCounter);
}

TransactionId CounterSelector::do_select() {
  return space_.clamp(next_++);
}

// --- HashedCounterSelector --------------------------------------------------

HashedCounterSelector::HashedCounterSelector(IdSpace space, std::uint64_t seed,
                                             std::uint64_t salt)
    : IdSelector(space), base_(util::SplitMix64(seed).next() ^ salt) {}

std::string_view HashedCounterSelector::name() const {
  return to_string(SelectorPolicy::kHashedCounter);
}

TransactionId HashedCounterSelector::do_select() {
  // splitmix64 as a hash of the salted draw index: one finalizer pass over
  // base_ + counter, masked into the space. Statistically uniform and
  // reproducible from (seed, salt, index) alone.
  return space_.clamp(util::SplitMix64(base_ + counter_++).next());
}

// --- PermutationSelector ----------------------------------------------------

PermutationSelector::PermutationSelector(IdSpace space, std::uint64_t seed,
                                         std::uint64_t period)
    : IdSelector(space),
      keys_(seed),
      period_(period == 0 ? space.size() : std::min(period, space.size())) {
  // Shifts need only be >= 1 and < bits to make x ^= x >> s invertible on
  // the H-bit domain; these splits diffuse high bits into low ones.
  shift_a_ = std::max(1u, space.bits() / 2);
  shift_b_ = std::max(1u, (space.bits() * 2) / 3);
  rekey();
}

std::string_view PermutationSelector::name() const {
  return to_string(SelectorPolicy::kPermutation);
}

void PermutationSelector::rekey() {
  // Odd multipliers are units mod 2^H, so each stage is a bijection on the
  // masked domain; the composition is a fresh pseudo-random permutation
  // per period.
  mul_a_ = keys_.next() | 1;
  add_c_ = keys_.next();
  mul_b_ = keys_.next() | 1;
}

std::uint64_t PermutationSelector::permute(std::uint64_t index) const noexcept {
  const std::uint64_t mask = util::low_mask(space_.bits());
  std::uint64_t x = index & mask;
  x = (x * mul_a_) & mask;
  x ^= x >> shift_a_;
  x = (x + add_c_) & mask;
  x = (x * mul_b_) & mask;
  x ^= x >> shift_b_;
  return x;
}

std::uint64_t PermutationSelector::walk_next() {
  if (index_ >= period_) {
    rekey();
    index_ = 0;
  }
  return permute(index_++);
}

TransactionId PermutationSelector::do_select() {
  return TransactionId(walk_next());
}

// --- HybridSelector ---------------------------------------------------------

HybridSelector::HybridSelector(IdSpace space, std::uint64_t seed,
                               ListeningConfig config, std::uint64_t period)
    : IdSelector(space), walk_(space, seed, period), window_(config) {}

std::string_view HybridSelector::name() const {
  return to_string(SelectorPolicy::kHybrid);
}

void HybridSelector::do_observe(TransactionId id) {
  window_.observe(id);
  update_avoided_gauge();
}

void HybridSelector::do_notify_collision(TransactionId id) {
  window_.notify_collision(id);
  update_avoided_gauge();
}

void HybridSelector::do_set_density(double t) {
  window_.set_density(t);
  update_avoided_gauge();
}

void HybridSelector::on_bind_metrics(obs::MetricsRegistry& registry,
                                     std::string_view prefix) {
  avoided_gauge_ = registry.gauge(std::string(prefix) + "avoided");
  skips_ = registry.counter(std::string(prefix) + "skips");
  update_avoided_gauge();
}

void HybridSelector::update_avoided_gauge() {
  avoided_gauge_.set(static_cast<std::int64_t>(window_.avoided()));
}

TransactionId HybridSelector::do_select() {
  // Within one period each avoided id appears at most once in the walk, so
  // avoided()+1 draws suffice; double that to survive a rekey boundary
  // mid-scan. If the avoid set covers the whole reachable pool the bound
  // trips and the last candidate is returned — selection must terminate,
  // exactly like the listening selector's rejection fallback.
  const std::size_t limit = 2 * (window_.avoided() + 1);
  std::uint64_t candidate = walk_.walk_next();
  for (std::size_t attempt = 0;
       attempt < limit && window_.avoiding(TransactionId(candidate));
       ++attempt) {
    skips_.inc();
    candidate = walk_.walk_next();
  }
  return TransactionId(candidate);
}

// --- factories --------------------------------------------------------------

std::unique_ptr<IdSelector> make_selector(const SelectorSpec& spec,
                                          IdSpace space, std::uint64_t seed) {
  const SelectorSpec checked = validated(spec);
  switch (checked.policy) {
    case SelectorPolicy::kUniform:
      return std::make_unique<UniformSelector>(space, seed);
    case SelectorPolicy::kListening:
      return std::make_unique<ListeningSelector>(space, seed,
                                                 checked.listening);
    case SelectorPolicy::kCounter:
      return std::make_unique<CounterSelector>(space, seed,
                                               checked.counter_salt);
    case SelectorPolicy::kHashedCounter:
      return std::make_unique<HashedCounterSelector>(space, seed,
                                                     checked.counter_salt);
    case SelectorPolicy::kPermutation:
      return std::make_unique<PermutationSelector>(
          space, seed, checked.permutation_period);
    case SelectorPolicy::kHybrid:
      return std::make_unique<HybridSelector>(
          space, seed, checked.listening, checked.permutation_period);
  }
  throw std::invalid_argument("SelectorSpec.policy out of range");
}

}  // namespace retri::core
