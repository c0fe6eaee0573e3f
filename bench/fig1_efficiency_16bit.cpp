// Figure 1: Efficiency of AFF vs. static allocation for 16-bit data.
//
// Reproduces the paper's analytic comparison: E_aff over identifier widths
// H = 1..32 for transaction densities T = 16, 256, 65536, against the flat
// E_static lines for 16- and 32-bit addresses. Also prints the §4.2 in-text
// numbers (50% / 33% static efficiency; optimal H = 9 at T = 16).
#include <cstdio>
#include <iostream>

#include "core/model.hpp"
#include "harness.hpp"
#include "stats/table.hpp"

namespace model = retri::core::model;
using retri::stats::Table;
using retri::stats::fmt;
using retri::stats::fmt_pct;

int main(int argc, char** argv) {
  const auto args = retri::bench::parse_args(argc, argv);
  if (const int bad_flag = retri::bench::require_only(
          args, {"--csv"}, stderr)) {
    return bad_flag;
  }
  constexpr double kDataBits = 16.0;
  const double densities[] = {16.0, 256.0, 65536.0};

  std::puts("Figure 1: Efficiency of AFF vs. static allocation, 16-bit data");
  std::puts("(series: E_aff at T = 16 / 256 / 65536; flat lines: static 16b, 32b)\n");

  Table table({"id bits", "E_aff T=16", "E_aff T=256", "E_aff T=65536",
               "E_static 16b", "E_static 32b"});
  for (unsigned h = 1; h <= 32; ++h) {
    table.row({std::to_string(h),
               fmt(model::e_aff(kDataBits, h, densities[0])),
               fmt(model::e_aff(kDataBits, h, densities[1])),
               fmt(model::e_aff(kDataBits, h, densities[2])),
               fmt(model::e_static(kDataBits, 16)),
               fmt(model::e_static(kDataBits, 32))});
  }
  if (args.csv) table.print_csv(std::cout);
  else table.print(std::cout);

  std::puts("\nIn-text values (§4.2):");
  Table summary({"quantity", "paper", "model"});
  summary.row({"E_static, 16-bit data, 16-bit address", "50%",
               fmt_pct(model::e_static(kDataBits, 16))});
  summary.row({"E_static, 16-bit data, 32-bit address", "33%",
               fmt_pct(model::e_static(kDataBits, 32))});
  summary.row({"optimal AFF id bits at T=16", "9",
               std::to_string(model::optimal_id_bits(kDataBits, 16.0))});
  summary.row({"optimal E_aff at T=16", "> 50%",
               fmt_pct(model::optimal_e_aff(kDataBits, 16.0))});
  for (const double t : densities) {
    summary.row({"optimal AFF id bits at T=" + std::to_string(static_cast<int>(t)),
                 "-", std::to_string(model::optimal_id_bits(kDataBits, t))});
  }
  summary.print(std::cout);

  const bool aff_wins_low_t =
      model::optimal_e_aff(kDataBits, 16.0) > model::e_static(kDataBits, 16);
  const bool aff_capped_high_t =
      model::optimal_e_aff(kDataBits, 65536.0, 32) <=
      model::e_static(kDataBits, 16) + 1e-12;
  std::printf("\nshape check: AFF beats 16-bit static at T=16: %s\n",
              aff_wins_low_t ? "yes (matches paper)" : "NO (mismatch!)");
  std::printf("shape check: no AFF headroom at T=64K:        %s\n",
              aff_capped_high_t ? "yes (matches paper)" : "NO (mismatch!)");
  return (aff_wins_low_t && aff_capped_high_t) ? 0 : 1;
}
