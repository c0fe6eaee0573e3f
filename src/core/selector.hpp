// Identifier selection policies — the selector zoo.
//
// The paper analyzes the "simplest and most pessimistic scenario in which
// every node picks its transaction identifiers uniformly from the
// identifier space without regard to any learned state" (§4.1) and measures
// a *listening* heuristic that avoids identifiers heard in use within the
// most recent 2T transactions (§3.2, §5.1), optionally assisted by receiver
// "identifier collision notifications" (§3.2).
//
// The zoo extends those two with the wider design space later work
// catalogs: per-node sequential counters and hashed counters (the IPv4-ID
// taxonomy's "sequential" and "hash-based" classes) and PERIDOT-style
// permutation walks — a seeded bijection over the id space, walked
// sequentially, which provably never self-collides within one period — plus
// a hybrid that walks the permutation while skipping ids the listening
// window currently avoids.
//
// IdSelector is the policy interface; the AFF driver, the interest
// reinforcement service, and the codebook all take one by reference so the
// benches can swap policies per run. SelectorSpec is the structured,
// serializable description of a policy choice (enum + per-policy
// parameters); make_selector(spec, ...) instantiates it and
// parse_selector_spec(name) is the registry lookup behind CLI strings.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/identifier.hpp"
#include "obs/metrics.hpp"
#include "util/random.hpp"
#include "util/result.hpp"

namespace retri::core {

/// Policy interface, template-method style: callers use the non-virtual
/// public surface (select/observe/notify_collision/set_density), which
/// counts into the bound metrics and forwards to the protected do_*
/// hooks policies override. Unbound selectors count nothing — the handles
/// are inert until bind_metrics() is called (the AFF driver binds its
/// selector under "n<node>.selector.").
class IdSelector {
 public:
  explicit IdSelector(IdSpace space) : space_(space) {}
  virtual ~IdSelector() = default;
  IdSelector(const IdSelector&) = delete;
  IdSelector& operator=(const IdSelector&) = delete;

  /// Picks an identifier for a new transaction.
  TransactionId select() {
    selects_.inc();
    return do_select();
  }

  /// Reports that `id` was heard in use by a peer (e.g. an overheard intro
  /// fragment). Stateless policies ignore this.
  void observe(TransactionId id) {
    observes_.inc();
    do_observe(id);
  }

  /// Reports a receiver-sent collision notification for `id` (§3.2's
  /// parenthetical heuristic). Stateless policies ignore this.
  void notify_collision(TransactionId id) {
    collision_notices_.inc();
    do_notify_collision(id);
  }

  /// Updates the policy's estimate of the transaction density T.
  void set_density(double t) {
    density_updates_.inc();
    do_set_density(t);
  }

  /// Registers this selector's counters under `prefix` (e.g.
  /// "n3.selector.") and gives the policy a chance to register its own
  /// metrics via on_bind_metrics. Idempotent per registry; rebinding to a
  /// different registry repoints the handles.
  void bind_metrics(obs::MetricsRegistry& registry, std::string_view prefix);

  virtual std::string_view name() const = 0;

  const IdSpace& space() const noexcept { return space_; }

 protected:
  virtual TransactionId do_select() = 0;
  virtual void do_observe(TransactionId id) { (void)id; }
  virtual void do_notify_collision(TransactionId id) { (void)id; }
  virtual void do_set_density(double t) { (void)t; }
  /// Policy hook for registering policy-specific metrics under `prefix`.
  virtual void on_bind_metrics(obs::MetricsRegistry& registry,
                               std::string_view prefix) {
    (void)registry;
    (void)prefix;
  }

  IdSpace space_;

 private:
  obs::Counter selects_;
  obs::Counter observes_;
  obs::Counter collision_notices_;
  obs::Counter density_updates_;
};

// --- structured policy description -----------------------------------------

enum class SelectorPolicy {
  kUniform,        // §4.1 baseline: uniform over the space, no memory
  kListening,      // §3.2/§5.1 listening heuristic (± notifications)
  kCounter,        // per-node sequential counter from a seeded start
  kHashedCounter,  // splitmix64 over a node-salted counter
  kPermutation,    // seeded bijection walked sequentially (PERIDOT-style)
  kHybrid,         // permutation walk skipping the listening avoid-set
};

/// Canonical registry name ("uniform", "counter", ...). The only sanctioned
/// source of selector-policy spellings; retri_lint bans raw policy string
/// literals outside this translation unit.
std::string_view to_string(SelectorPolicy policy) noexcept;

struct ListeningConfig {
  /// Starting density estimate before any set_density() update.
  double initial_density = 1.0;
  /// If nonzero, the avoidance window is exactly this many recent ids,
  /// ignoring density updates. Zero means adaptive: ceil(2 * T).
  std::size_t fixed_window = 0;
  /// If true, collision notifications quarantine the colliding id for
  /// `notification_multiplier` times the normal window.
  bool heed_notifications = false;
  std::size_t notification_multiplier = 2;
};

/// Returns `config` unchanged or throws std::invalid_argument naming the
/// offending field. The ListeningSelector constructor applies this.
ListeningConfig validated(ListeningConfig config);

/// The structured description of a selection policy: which policy, plus the
/// per-policy parameters. This is what ExperimentConfig carries, what the
/// runner codec writes into every memo key and sweep artifact, and what
/// sweeps grid over; the string names exist only at the CLI edge
/// (parse_selector_spec / describe).
struct SelectorSpec {
  SelectorPolicy policy = SelectorPolicy::kUniform;
  /// kListening / kHybrid: window and notification behavior.
  ListeningConfig listening;
  /// kCounter / kHashedCounter: mixed into the seeded start / hash base so
  /// two selectors with the same seed can still walk distinct sequences.
  std::uint64_t counter_salt = 0;
  /// kPermutation / kHybrid: walk length before rekeying to a fresh
  /// bijection. 0 means the full identifier space (clamped to it anyway).
  std::uint64_t permutation_period = 0;
};

/// Returns `spec` unchanged or throws std::invalid_argument naming the
/// offending field. make_selector applies this before construction.
SelectorSpec validated(SelectorSpec spec);

/// Registry name for `spec`: the policy name, except a listening spec with
/// heed_notifications reads "listening+notify". This replaces the old
/// name-mangling inside ListeningSelector::name() — the spec describes
/// itself; the selector object reports only its policy family.
std::string_view describe(const SelectorSpec& spec) noexcept;

// Convenience spec builders, one per registry entry.
SelectorSpec uniform_selector();
SelectorSpec listening_selector(bool heed_notifications = false);
SelectorSpec counter_selector(std::uint64_t salt = 0);
SelectorSpec hashed_counter_selector(std::uint64_t salt = 0);
SelectorSpec permutation_selector(std::uint64_t period = 0);
SelectorSpec hybrid_selector(std::uint64_t period = 0);

/// Names accepted by parse_selector_spec, in presentation order.
std::vector<std::string_view> named_selectors();

/// Builds the spec registered under `name` (see named_selectors()). An
/// unknown name returns an error message that lists every available policy
/// — CLIs print it verbatim (`retri_bench --selector help`).
util::Result<SelectorSpec, std::string> parse_selector_spec(
    std::string_view name);

// --- shared avoid-set bookkeeping ------------------------------------------

/// The listening heuristic's sliding avoid-set, extracted so the hybrid
/// selector can reuse it: a window of recently heard ids (2T adaptive or
/// fixed) plus an optional longer quarantine for notified collisions, with
/// an exact multiset membership count across both queues.
class AvoidWindow {
 public:
  /// Applies validated(config).
  explicit AvoidWindow(ListeningConfig config);

  /// Current avoidance window in transactions (2T, or the fixed override).
  std::size_t window() const noexcept;
  /// Number of distinct identifiers currently avoided.
  std::size_t avoided() const noexcept { return avoid_counts_.size(); }
  bool avoiding(TransactionId id) const { return avoid_counts_.contains(id); }

  void observe(TransactionId id);
  /// No-op unless config.heed_notifications.
  void notify_collision(TransactionId id);
  /// Updates the density estimate and trims both queues to the new window.
  void set_density(double t);

  const ListeningConfig& config() const noexcept { return config_; }

 private:
  void push_recent(std::deque<TransactionId>& q, TransactionId id,
                   std::size_t cap);
  void trim(std::deque<TransactionId>& q, std::size_t cap);

  ListeningConfig config_;
  double density_;
  std::deque<TransactionId> recent_;       // heard ids, newest at back
  std::deque<TransactionId> quarantined_;  // notified collisions
  // id -> number of occurrences across both deques (membership test).
  std::unordered_map<TransactionId, std::uint32_t> avoid_counts_;
};

// --- the zoo ----------------------------------------------------------------

/// The paper's analyzed baseline: uniform over the whole space, no memory.
class UniformSelector final : public IdSelector {
 public:
  UniformSelector(IdSpace space, std::uint64_t seed);

  std::string_view name() const override;

 private:
  TransactionId do_select() override;

  util::Xoshiro256 rng_;
};

/// The paper's listening heuristic: select uniformly from identifiers NOT
/// heard within the most recent 2T observed transactions.
///
/// Selection is exactly uniform over the complement of the avoid set: for
/// small identifier pools the complement is enumerated; for large pools
/// rejection sampling is used (which is also exactly uniform over the
/// complement, with a bounded-attempt fallback to plain uniform in the
/// pathological case of an avoid set covering almost the whole pool).
class ListeningSelector final : public IdSelector {
 public:
  ListeningSelector(IdSpace space, std::uint64_t seed,
                    ListeningConfig config = {});

  std::string_view name() const override;

  /// Current avoidance window in transactions (2T, or the fixed override).
  std::size_t window() const noexcept { return window_.window(); }
  /// Number of distinct identifiers currently avoided.
  std::size_t avoided() const noexcept { return window_.avoided(); }

 private:
  TransactionId do_select() override;
  void do_observe(TransactionId id) override;
  void do_notify_collision(TransactionId id) override;
  void do_set_density(double t) override;
  void on_bind_metrics(obs::MetricsRegistry& registry,
                       std::string_view prefix) override;

  /// Keeps the "avoided" gauge in sync with the window's distinct count.
  void update_avoided_gauge();

  util::Xoshiro256 rng_;
  AvoidWindow window_;
  obs::Gauge avoided_gauge_;
};

/// Per-node sequential counter: the taxonomy's "sequential" class. The
/// start offset is seeded (splitmix64 over seed and salt) so same-seed
/// nodes don't trivially stampede the same prefix; ids then increment mod
/// the space. Within one wrap the walk never self-collides, but two nodes
/// whose walks overlap collide *persistently* — the pathology this policy
/// exists to demonstrate.
class CounterSelector final : public IdSelector {
 public:
  CounterSelector(IdSpace space, std::uint64_t seed, std::uint64_t salt = 0);

  std::string_view name() const override;

 private:
  TransactionId do_select() override;

  std::uint64_t next_;
};

/// Hashed counter: splitmix64 over a node-salted counter, the taxonomy's
/// "hash-based" class. Statistically uniform like the baseline, but
/// stateless-per-draw and reproducible from (seed, salt, draw index).
class HashedCounterSelector final : public IdSelector {
 public:
  HashedCounterSelector(IdSpace space, std::uint64_t seed,
                        std::uint64_t salt = 0);

  std::string_view name() const override;

 private:
  TransactionId do_select() override;

  std::uint64_t base_;
  std::uint64_t counter_ = 0;
};

/// PERIDOT-style permutation walk: a seeded bijection over the identifier
/// space, walked sequentially. Injectivity guarantees ZERO self-collision
/// within one period; at the end of a period the selector rekeys to a fresh
/// bijection (drawn from its private stream) and walks again.
///
/// The bijection composes invertible primitives on the H-bit domain
/// (odd multiply mod 2^H, xorshift, add mod 2^H), so every id space width
/// in [1, 64] gets a true permutation — no rejection, no cycle-walking.
class PermutationSelector final : public IdSelector {
 public:
  /// `period` 0 means the full space; larger values are clamped to it.
  PermutationSelector(IdSpace space, std::uint64_t seed,
                      std::uint64_t period = 0);

  std::string_view name() const override;

  std::uint64_t period() const noexcept { return period_; }

 private:
  TransactionId do_select() override;
  void rekey();

  friend class HybridSelector;
  std::uint64_t permute(std::uint64_t index) const noexcept;
  /// Next id in the walk, rekeying at period boundaries.
  std::uint64_t walk_next();

  util::SplitMix64 keys_;
  std::uint64_t period_;
  std::uint64_t index_ = 0;
  std::uint64_t mul_a_ = 1;
  std::uint64_t add_c_ = 0;
  std::uint64_t mul_b_ = 1;
  unsigned shift_a_ = 1;
  unsigned shift_b_ = 1;
};

/// Hybrid listen+permute: the permutation walk, but ids currently in the
/// listening avoid-set are skipped (each skip advances the walk). Keeps the
/// permutation's zero-self-collision guarantee while also dodging ids
/// overheard from peers — the two collision sources the zoo separates.
class HybridSelector final : public IdSelector {
 public:
  HybridSelector(IdSpace space, std::uint64_t seed,
                 ListeningConfig config = {}, std::uint64_t period = 0);

  std::string_view name() const override;

  std::size_t window() const noexcept { return window_.window(); }
  std::size_t avoided() const noexcept { return window_.avoided(); }

 private:
  TransactionId do_select() override;
  void do_observe(TransactionId id) override;
  void do_notify_collision(TransactionId id) override;
  void do_set_density(double t) override;
  void on_bind_metrics(obs::MetricsRegistry& registry,
                       std::string_view prefix) override;

  void update_avoided_gauge();

  PermutationSelector walk_;
  AvoidWindow window_;
  obs::Gauge avoided_gauge_;
  obs::Counter skips_;
};

// --- factories --------------------------------------------------------------

/// Instantiates `spec` (validated) over `space`, seeded with `seed`.
std::unique_ptr<IdSelector> make_selector(const SelectorSpec& spec,
                                          IdSpace space, std::uint64_t seed);

}  // namespace retri::core
