// The paper's analytic model (§4), as a library.
//
//   E          = useful bits received / total bits transmitted        (Eq. 1)
//   E_static   = D / (D + H)                                          (Eq. 2)
//   E_aff      = D * P(success) / (D + H)                             (Eq. 3)
//   P(success) = (1 - 2^-H)^(2(T-1))                                  (Eq. 4)
//
// where D is data bits per transaction, H the identifier width in bits, and
// T the transaction density (mean concurrent transactions visible at one
// point). Eq. 4 is the worst case for uniform selection under the paper's
// equal-transaction-length assumption: each transaction overlaps the
// beginning or end of 2(T-1) others.
//
// The model is a library (not bench-inline math) so tests can property-check
// it — monotonicity in H, the T = 1 limit, agreement with Monte-Carlo over
// TransactionRegistry — and every bench samples the same implementation.
#pragma once

#include <optional>
#include <vector>

namespace retri::core::model {

/// Eq. 4: probability a transaction's identifier stays unique for its whole
/// duration. `density` is the paper's T (may be fractional; values <= 1
/// give certainty). `id_bits` in [1, 64].
double p_success(unsigned id_bits, double density) noexcept;

/// Eq. 2: efficiency of static allocation with an `addr_bits` header.
/// `data_bits` > 0.
double e_static(double data_bits, unsigned addr_bits) noexcept;

/// Eq. 3: efficiency of AFF with an `id_bits` header at density T.
double e_aff(double data_bits, unsigned id_bits, double density) noexcept;

/// The id width in [1, max_bits] maximizing e_aff for the given workload —
/// the peak of the Figure 1/2 curves. Ties break toward fewer bits.
unsigned optimal_id_bits(double data_bits, double density,
                         unsigned max_bits = 64) noexcept;

/// e_aff evaluated at optimal_id_bits.
double optimal_e_aff(double data_bits, double density,
                     unsigned max_bits = 64) noexcept;

/// True if an `addr_bits` static space can give distinct addresses to
/// `entities` concurrent holders (Figure 3's exhaustion point).
bool static_feasible(unsigned addr_bits, double entities) noexcept;

/// Static-allocation efficiency as a function of offered load: constant
/// D/(D+H) while feasible, NaN beyond exhaustion ("after which the
/// efficiency is undefined", §4.3).
double e_static_vs_load(double data_bits, unsigned addr_bits,
                        double load) noexcept;

struct CurvePoint {
  unsigned id_bits;
  double efficiency;
};

/// E_aff sampled at every integer id width in [min_bits, max_bits] — one
/// Figure 1/2 series.
std::vector<CurvePoint> aff_curve(double data_bits, double density,
                                  unsigned min_bits = 1,
                                  unsigned max_bits = 32);

/// Smallest id width whose collision probability does not exceed
/// `max_collision_rate` at density T, if any width in [1, max_bits] does.
/// A provisioning helper for library users ("give me <= 1% loss").
std::optional<unsigned> min_bits_for_loss(double max_collision_rate,
                                          double density,
                                          unsigned max_bits = 64) noexcept;

// -- Extension: a listening-aware success model -------------------------------
//
// The paper's §8 names "capturing the effects of listening ... in our
// model" as future work; this is our version of that extension.
// EXPERIMENTS.md's Ablation E sets the duty_cycle named sweep's measured
// loss beside 1 − p_success_listening(4, 5, q), the duty factor q standing
// in for hear_prob; no command prints that model column.
//
// `hear_prob` (q) is the probability a node hears any given peer's
// identifier announcement before selecting its own — q < 1 because of
// hidden terminals, RF loss, or duty-cycled listening (§3.2). Split each
// transaction's 2(T-1) worst-case overlaps into the T-1 peers that began
// BEFORE us and the T-1 that begin AFTER us:
//
//   - a peer that began before us collides only if we failed to hear it
//     AND picked its id:                   c_before = (1-q) / 2^H
//   - a peer that begins after us collides only if it failed to hear us
//     AND picks our id from its avoidance-reduced pool of
//     2^H - A_eff candidates, A_eff = min(q * 2T, 2^H - 1):
//                                          c_after = (1-q) / (2^H - A_eff)
//
//   P(success) = (1 - c_before)^(T-1) * (1 - c_after)^(T-1)
//
// Limits: q = 0 reduces exactly to Eq. 4; q = 1 gives certainty (perfect
// listening in a fully connected neighborhood leaves no collisions).
//
// Caveat: when the avoid set saturates the pool (q * 2T approaching 2^H),
// c_after grows — partial listening concentrates later pickers onto the
// few unavoided identifiers, and success probability can DIP below Eq. 4
// before recovering toward q = 1. This is not an artifact: the simulation
// shows the same synchronized-avoidance concentration in under-provisioned
// id spaces. Monotonic improvement in q is guaranteed only in the
// provisioned regime 2^H >> 2T.

/// Listening-aware success probability. hear_prob in [0, 1].
double p_success_listening(unsigned id_bits, double density,
                           double hear_prob) noexcept;

/// Eq. 3 with the listening-aware success model substituted.
double e_aff_listening(double data_bits, unsigned id_bits, double density,
                       double hear_prob) noexcept;

}  // namespace retri::core::model
