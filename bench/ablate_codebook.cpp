// Ablation I (§6): attribute-name compression — how many code bits?
//
// The paper proposes RETRI identifiers as codebook codes but does not size
// them; this ablation maps §4's efficiency tradeoff onto that context.
// Several publishers each keep a handful of live bindings (attribute sets
// in rotation) and stream compressed readings to one subscriber. Small
// codes save bits but collide: a collision surfaces either as a detected
// conflicting redefinition or — worse — as a MISDELIVERY, a reading
// resolved to the wrong attribute set. Instrumentation (the true set id
// rides in the payload) counts misdeliveries exactly.
//
// Expected Figure-1 shape: total bits fall and misdeliveries rise as the
// code shrinks; a middle width wins once misdelivered readings are
// discounted from the useful-bit numerator.
#include <cstdio>
#include <iostream>
#include <memory>
#include <vector>

#include "apps/codebook.hpp"
#include "core/selector.hpp"
#include "harness.hpp"
#include "radio/radio.hpp"
#include "sim/medium.hpp"
#include "stats/table.hpp"

using namespace retri;

namespace {

constexpr std::size_t kPublishers = 4;
constexpr std::size_t kBindingsPerPublisher = 4;
constexpr int kReadingsPerBinding = 25;

apps::AttributeSet attr_set(std::size_t publisher, std::size_t index) {
  std::string type = "sensor-";
  type += std::to_string(publisher);
  std::string series = "s";
  series += std::to_string(index);
  std::string region = "sector-";
  region += std::to_string((publisher * 7 + index) % 5);
  return {{"type", std::move(type)},
          {"series", std::move(series)},
          {"region", std::move(region)},
          {"unit", "counts-per-interval"}};
}

struct CodebookOutcome {
  std::uint64_t total_bits = 0;
  std::uint64_t plain_bits = 0;   // what full naming would have cost
  std::uint64_t resolved_right = 0;
  std::uint64_t misdelivered = 0;  // resolved to the WRONG attributes
  std::uint64_t unresolved = 0;
  std::uint64_t conflicts_detected = 0;

  double efficiency() const {
    // Useful bits: the 16-bit reading of every correctly resolved message.
    return total_bits == 0
               ? 0.0
               : static_cast<double>(resolved_right) * 16.0 /
                     static_cast<double>(total_bits);
  }
};

CodebookOutcome run_codebook(unsigned code_bits, std::uint64_t seed) {
  sim::Simulator sim;
  sim::BroadcastMedium medium(
      sim, sim::Topology::full_mesh(kPublishers + 1), {}, seed);

  // Radios with a frame size that fits a full definition, like the
  // larger-framed radios the paper mentions for occasional big messages.
  radio::RadioConfig rconfig;
  rconfig.max_frame_bytes = 128;

  CodebookOutcome out;

  // Subscriber (node 0).
  radio::Radio sub_radio(medium, 0, rconfig, radio::EnergyModel::rpc_like(),
                         seed + 1);
  apps::CodebookDecoder decoder(64);
  sub_radio.set_receive_callback([&](sim::NodeId, const util::Bytes& frame) {
    const auto msg = apps::decode_codebook_message(code_bits, frame);
    if (!msg) return;
    if (msg->kind == apps::CodebookMessage::Kind::kDefinition) {
      decoder.define(msg->code, msg->attrs);
      return;
    }
    // Payload: [true publisher:1][true set index:1][reading:2].
    util::BufferReader r(msg->payload);
    const auto true_pub = r.u8();
    const auto true_idx = r.u8();
    const auto value = r.u16();
    if (!true_pub || !true_idx || !value) return;
    const auto attrs = decoder.resolve(msg->code);
    if (!attrs) {
      ++out.unresolved;
      return;
    }
    apps::AttributeSet expected = attr_set(*true_pub, *true_idx);
    apps::canonicalize(expected);
    if (*attrs == expected) ++out.resolved_right;
    else ++out.misdelivered;
  });

  // Publishers.
  struct Publisher {
    std::unique_ptr<radio::Radio> radio;
    std::unique_ptr<core::IdSelector> selector;
    std::unique_ptr<apps::CodebookEncoder> encoder;
  };
  std::vector<Publisher> publishers(kPublishers);
  for (std::size_t p = 0; p < kPublishers; ++p) {
    publishers[p].radio = std::make_unique<radio::Radio>(
        medium, static_cast<sim::NodeId>(p + 1), rconfig,
        radio::EnergyModel::rpc_like(), seed + 10 + p);
    publishers[p].selector = core::make_selector(
        core::uniform_selector(), core::IdSpace(code_bits), seed + 20 + p);
    // Capacity below the binding rotation so bindings stay ephemeral and
    // codes genuinely churn (the RETRI discipline).
    publishers[p].encoder = std::make_unique<apps::CodebookEncoder>(
        *publishers[p].selector, kBindingsPerPublisher);
  }

  // Interleaved rounds: every publisher cycles through its binding set.
  for (int reading = 0; reading < kReadingsPerBinding; ++reading) {
    for (std::size_t idx = 0; idx < kBindingsPerPublisher; ++idx) {
      for (std::size_t p = 0; p < kPublishers; ++p) {
        sim.schedule_after(
            sim::Duration::milliseconds(20),
            [&, p, idx, reading]() {
              const apps::AttributeSet attrs = attr_set(p, idx);
              const auto encoding = publishers[p].encoder->encode(attrs);
              if (encoding.fresh) {
                const auto definition = apps::encode_definition(
                    code_bits, encoding.code, attrs);
                out.total_bits += definition.size() * 8;
                publishers[p].radio->send(definition);
              }
              util::BufferWriter payload(4);
              payload.u8(static_cast<std::uint8_t>(p));
              payload.u8(static_cast<std::uint8_t>(idx));
              payload.u16(static_cast<std::uint16_t>(reading));
              const auto message = apps::encode_compressed(
                  code_bits, encoding.code, payload.bytes());
              out.total_bits += message.size() * 8;
              publishers[p].radio->send(message);
              out.plain_bits += apps::attribute_bits(attrs) + 32;
            });
        sim.run_until(sim.now() + sim::Duration::milliseconds(20));
      }
    }
    sim.run_until(sim.now() + sim::Duration::milliseconds(200));
  }
  sim.run_until(sim.now() + sim::Duration::seconds(2));

  out.conflicts_detected = decoder.stats().conflicting_redefinitions;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parse_args(argc, argv);
  if (const int bad_flag = bench::require_only(
          args, {"--seed", "--csv"}, stderr)) {
    return bad_flag;
  }

  std::printf(
      "Ablation: codebook code width (%zu publishers x %zu live bindings, "
      "%d readings per binding)\n\n",
      kPublishers, kBindingsPerPublisher, kReadingsPerBinding);

  stats::Table table({"code bits", "total bits", "vs plain naming",
                      "right", "misdelivered", "unresolved",
                      "conflicts seen", "efficiency"});

  std::vector<double> efficiencies;
  std::vector<std::uint64_t> misdeliveries;
  unsigned best_bits = 0;
  double best_eff = -1.0;
  for (const unsigned bits : {2u, 3u, 4u, 5u, 6u, 8u, 12u, 16u}) {
    const CodebookOutcome out = run_codebook(bits, args.seed + bits);
    efficiencies.push_back(out.efficiency());
    misdeliveries.push_back(out.misdelivered);
    if (out.efficiency() > best_eff) {
      best_eff = out.efficiency();
      best_bits = bits;
    }
    table.row({std::to_string(bits), std::to_string(out.total_bits),
               stats::fmt(static_cast<double>(out.plain_bits) /
                              static_cast<double>(out.total_bits),
                          2) +
                   "x",
               std::to_string(out.resolved_right),
               std::to_string(out.misdelivered),
               std::to_string(out.unresolved),
               std::to_string(out.conflicts_detected),
               stats::fmt(out.efficiency())});
  }

  if (args.csv) table.print_csv(std::cout);
  else table.print(std::cout);

  // Shape checks: tiny codes misdeliver; wide codes do not; the efficiency
  // optimum sits strictly inside the sweep (the Figure 1 shape).
  const bool tiny_misdelivers = misdeliveries.front() > 0;
  const bool wide_clean = misdeliveries.back() == 0;
  const bool interior_optimum = best_bits > 2 && best_bits < 16;
  std::printf("\nbest code width by useful-bit efficiency: %u bits\n",
              best_bits);
  std::printf("shape check: tiny codes misdeliver readings:        %s\n",
              tiny_misdelivers ? "yes" : "NO (mismatch!)");
  std::printf("shape check: wide codes never misdeliver:           %s\n",
              wide_clean ? "yes" : "NO (mismatch!)");
  std::printf("shape check: efficiency optimum strictly interior:  %s\n",
              interior_optimum ? "yes (Figure 1's shape in the §6 context)"
                               : "NO (mismatch!)");
  return (tiny_misdelivers && wide_clean && interior_optimum) ? 0 : 1;
}
