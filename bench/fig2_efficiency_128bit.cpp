// Figure 2: Efficiency of AFF vs. static allocation for 128-bit data.
//
// Same sweep as Figure 1 with D = 128. The paper's observations to
// reproduce: (a) static allocation becomes relatively more efficient
// because the address amortizes over more data; (b) the optimal AFF
// identifier width increases versus the 16-bit-data case; (c) at this
// design point AFF and static efficiency are not significantly different —
// AFF's remaining advantage is scaling, not the operating point.
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
  constexpr double kDataBits = 128.0;
  const double densities[] = {16.0, 256.0, 65536.0};

  std::puts("Figure 2: Efficiency of AFF vs. static allocation, 128-bit data\n");

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

  const unsigned h16 = model::optimal_id_bits(16.0, 16.0);
  const unsigned h128 = model::optimal_id_bits(kDataBits, 16.0);
  std::puts("\nObservations (§4.2-4.3):");
  Table summary({"quantity", "paper", "model"});
  summary.row({"E_static(128b data, 16b addr)", "higher than 50%",
               fmt_pct(model::e_static(kDataBits, 16))});
  summary.row({"optimal AFF bits, 16b data, T=16", "9", std::to_string(h16)});
  summary.row({"optimal AFF bits, 128b data, T=16", "grows",
               std::to_string(h128)});
  summary.row({"optimal E_aff at T=16", "-",
               fmt_pct(model::optimal_e_aff(kDataBits, 16.0))});
  summary.row({"gap to 16b static at T=16", "not significant",
               fmt(model::optimal_e_aff(kDataBits, 16.0) -
                   model::e_static(kDataBits, 16))});
  summary.print(std::cout);

  const bool optimum_grew = h128 > h16;
  const double gap = model::optimal_e_aff(kDataBits, 16.0) -
                     model::e_static(kDataBits, 16);
  const bool gap_small = gap > -0.05 && gap < 0.15;
  std::printf("\nshape check: optimal id bits grew with data size: %s\n",
              optimum_grew ? "yes (matches paper)" : "NO (mismatch!)");
  std::printf("shape check: AFF-vs-static gap small at 128b data: %s\n",
              gap_small ? "yes (matches paper)" : "NO (mismatch!)");
  return (optimum_grew && gap_small) ? 0 : 1;
}
