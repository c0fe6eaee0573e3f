// Ablation D (§4.4): does fewer bits mean less energy?
//
// The paper's caveat: header savings translate into energy savings only on
// radios whose cost is dominated by per-bit transmission (RPC-class). On an
// 802.11-class MAC that adds hundreds of fixed bits per frame, "that
// savings becomes meaningless". We transmit the same 16-bit-reading
// workload under three radio energy models and three header widths (AFF's
// optimal 9 bits, static-local 16, static-global 32) and report energy per
// delivered useful bit — expecting a large spread on RPC, negligible on
// 802.11.
#include <cstdio>
#include <iostream>
#include <string_view>

#include "core/model.hpp"
#include "harness.hpp"
#include "radio/energy.hpp"
#include "stats/table.hpp"

using retri::radio::EnergyMeter;
using retri::radio::EnergyModel;
using retri::stats::Table;
using retri::stats::fmt;
using retri::stats::fmt_pct;

namespace {

/// Energy to transmit `messages` readings of `data_bits` with a
/// `header_bits` header under the given radio model, one message per frame
/// (the paper's small periodic readings each fit one frame).
double tx_energy_nj(const EnergyModel& model, double data_bits,
                    unsigned header_bits, std::uint64_t messages) {
  EnergyMeter meter(model);
  const auto bits_per_message =
      static_cast<std::uint64_t>(data_bits) + header_bits;
  for (std::uint64_t i = 0; i < messages; ++i) meter.on_tx(bits_per_message);
  return meter.tx_nj();
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = retri::bench::parse_args(argc, argv);
  if (const int bad_flag = retri::bench::require_only(
          args, {"--csv"}, stderr)) {
    return bad_flag;
  }
  constexpr double kDataBits = 16.0;
  constexpr std::uint64_t kMessages = 100'000;
  constexpr double kDensity = 16.0;
  const unsigned aff_bits = retri::core::model::optimal_id_bits(kDataBits, kDensity);

  const struct {
    const char* name;
    EnergyModel model;
  } radios[] = {
      {"RPC-class (Radiometrix)", EnergyModel::rpc_like()},
      {"WINS-class", EnergyModel::wins_like()},
      {"802.11-class", EnergyModel::ieee80211_like()},
  };

  std::printf(
      "Ablation: energy per delivered useful bit, %llu messages of %.0f data "
      "bits\n(AFF header = optimal %u bits at T = %.0f, with Eq.4 collision "
      "loss applied;\n static headers are collision-free)\n\n",
      static_cast<unsigned long long>(kMessages), kDataBits, aff_bits,
      kDensity);

  Table table({"radio", "AFF 9b nJ/bit", "static 16b nJ/bit",
               "static 32b nJ/bit", "AFF saving vs 32b"});

  double rpc_saving = 0.0;
  double wifi_saving = 0.0;
  for (const auto& radio : radios) {
    // Useful bits delivered: AFF loses the Eq.4 collision fraction.
    const double p_ok = retri::core::model::p_success(aff_bits, kDensity);
    const double useful_aff = kDataBits * static_cast<double>(kMessages) * p_ok;
    const double useful_static = kDataBits * static_cast<double>(kMessages);

    const double aff =
        tx_energy_nj(radio.model, kDataBits, aff_bits, kMessages) / useful_aff;
    const double s16 =
        tx_energy_nj(radio.model, kDataBits, 16, kMessages) / useful_static;
    const double s32 =
        tx_energy_nj(radio.model, kDataBits, 32, kMessages) / useful_static;
    const double saving = 1.0 - aff / s32;

    table.row({radio.name, fmt(aff, 1), fmt(s16, 1), fmt(s32, 1),
               fmt_pct(saving)});
    if (std::string_view(radio.name).starts_with("RPC")) rpc_saving = saving;
    if (std::string_view(radio.name).starts_with("802.11")) wifi_saving = saving;
  }

  if (args.csv) table.print_csv(std::cout);
  else table.print(std::cout);

  const bool rpc_matters = rpc_saving > 0.20;
  const bool wifi_meaningless = wifi_saving < 0.05;
  std::printf("\nAFF energy saving vs 32-bit static: RPC %s, 802.11 %s\n",
              fmt_pct(rpc_saving).c_str(), fmt_pct(wifi_saving).c_str());
  std::printf("shape check: savings large on per-bit radios:    %s\n",
              rpc_matters ? "yes (matches paper)" : "NO (mismatch!)");
  std::printf("shape check: savings negligible under 802.11 MAC: %s\n",
              wifi_meaningless ? "yes (matches paper)" : "NO (mismatch!)");
  return (rpc_matters && wifi_meaningless) ? 0 : 1;
}
