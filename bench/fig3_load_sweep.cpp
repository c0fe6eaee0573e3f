// Figure 3: Efficiency vs. offered load for 16-bit data.
//
// The model "from a different perspective" (§4.3): x-axis is the number of
// concurrent transactions T; each AFF series holds its identifier width
// fixed while static series stay flat until their address space is
// exhausted, "after which the efficiency is undefined". We print n/a
// beyond the exhaustion point, exactly as the paper's curve stops.
//
// A Monte-Carlo column (TransactionRegistry) accompanies the closed form at
// every point as a built-in sanity check of the analytic surface.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "core/model.hpp"
#include "core/transaction.hpp"
#include "harness.hpp"
#include "stats/table.hpp"
#include "util/random.hpp"

namespace model = retri::core::model;
using retri::core::IdSpace;
using retri::core::TransactionId;
using retri::core::TransactionRegistry;
using retri::core::TxHandle;
using retri::stats::Table;
using retri::stats::fmt;

namespace {

/// Monte-Carlo estimate of E_aff at (H, T) via the registry: simulates the
/// model's overlap process and scales D/(D+H) by the survival rate.
double monte_carlo_e_aff(double data_bits, unsigned id_bits, unsigned density,
                         std::uint64_t seed) {
  constexpr int kProbes = 20'000;
  retri::util::Xoshiro256 rng(seed);
  const IdSpace space(id_bits);
  int survived = 0;
  for (int p = 0; p < kProbes; ++p) {
    TransactionRegistry reg;
    const TxHandle probe = reg.begin(TransactionId(rng.below(space.size())));
    const unsigned peers = 2 * (density - 1);
    for (unsigned i = 0; i < peers; ++i) {
      reg.end(reg.begin(TransactionId(rng.below(space.size()))));
    }
    if (reg.end(probe)) ++survived;
  }
  const double p_ok = static_cast<double>(survived) / kProbes;
  return data_bits * p_ok / (data_bits + id_bits);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = retri::bench::parse_args(argc, argv);
  if (const int bad_flag = retri::bench::require_only(
          args, {"--seed", "--csv"}, stderr)) {
    return bad_flag;
  }
  constexpr double kDataBits = 16.0;
  const unsigned loads[] = {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024};

  std::puts("Figure 3: Efficiency vs. offered load (concurrent transactions),");
  std::puts("16-bit data. Static series become undefined past exhaustion.\n");

  Table table({"load T", "AFF H=9", "AFF H=9 (MC)", "AFF H=12", "AFF H=16",
               "static 8b", "static 16b"});
  for (const unsigned t : loads) {
    table.row({std::to_string(t),
               fmt(model::e_aff(kDataBits, 9, t)),
               fmt(monte_carlo_e_aff(kDataBits, 9, t, args.seed * 100 + t)),
               fmt(model::e_aff(kDataBits, 12, t)),
               fmt(model::e_aff(kDataBits, 16, t)),
               fmt(model::e_static_vs_load(kDataBits, 8, t)),
               fmt(model::e_static_vs_load(kDataBits, 16, t))});
  }
  if (args.csv) table.print_csv(std::cout);
  else table.print(std::cout);

  // Shape checks for the paper's claims about this figure.
  bool ok = true;
  // (1) Static is flat while feasible.
  ok &= model::e_static_vs_load(kDataBits, 16, 1.0) ==
        model::e_static_vs_load(kDataBits, 16, 65536.0);
  // (2) Static 8-bit is undefined past 256 concurrent holders.
  ok &= std::isnan(model::e_static_vs_load(kDataBits, 8, 257.0));
  // (3) AFF "does work beyond this point": positive efficiency at loads the
  //     8-bit static space cannot even address.
  ok &= model::e_aff(kDataBits, 9, 512.0) > 0.0;
  // (4) AFF efficiency decays monotonically with load.
  double prev = 2.0;
  for (const unsigned t : loads) {
    const double e = model::e_aff(kDataBits, 9, t);
    ok &= e <= prev;
    prev = e;
  }
  std::printf("\nshape checks (flat static, exhaustion point, graceful AFF decay): %s\n",
              ok ? "all hold (matches paper)" : "MISMATCH!");
  return ok ? 0 : 1;
}
