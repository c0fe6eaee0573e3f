// Second property-test batch: order-independence of reassembly, engine
// stress under randomized scheduling, and exact-uniformity of the
// listening selector over the complement of its avoid set.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "aff/fragmenter.hpp"
#include "aff/reassembler.hpp"
#include "core/selector.hpp"
#include "sim/engine.hpp"
#include "util/checksum.hpp"
#include "util/random.hpp"

namespace retri {
namespace {

// -- Reassembly is permutation- and duplication-invariant (given the intro
// first, as the serial radio guarantees) ------------------------------------

class ReassemblyOrderTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReassemblyOrderTest, AnyDataOrderWithDuplicatesDelivers) {
  const std::uint64_t seed = GetParam();
  util::Xoshiro256 rng(seed);

  const std::size_t size = 40 + static_cast<std::size_t>(rng.below(400));
  const util::Bytes packet = util::random_payload(size, seed * 3 + 1);

  const aff::Fragmenter frag({aff::WireConfig{8, false}, 27});
  const auto frames = frag.fragment(packet, core::TransactionId(7));
  ASSERT_TRUE(frames.ok());

  // Decode all data fragments, shuffle them, and duplicate a random few.
  struct Piece {
    std::uint16_t offset;
    util::Bytes payload;
  };
  std::vector<Piece> pieces;
  for (std::size_t i = 1; i < frames.value().size(); ++i) {
    const auto decoded = aff::decode(aff::WireConfig{8, false},
                                     frames.value()[i]);
    const auto* data = std::get_if<aff::DataFragment>(&decoded->body);
    ASSERT_NE(data, nullptr);
    pieces.push_back(
        {data->offset, util::Bytes(data->payload.begin(), data->payload.end())});
  }
  const std::size_t dups = 1 + static_cast<std::size_t>(rng.below(4));
  for (std::size_t d = 0; d < dups; ++d) {
    pieces.push_back(pieces[static_cast<std::size_t>(rng.below(pieces.size()))]);
  }
  rng.shuffle(pieces);

  aff::Reassembler reasm;
  util::Bytes delivered;
  reasm.set_deliver([&](std::uint64_t, util::BytesView p) {
    delivered.assign(p.begin(), p.end());
  });

  const auto now = sim::TimePoint::origin();
  reasm.on_intro(7, static_cast<std::uint16_t>(packet.size()),
                 util::crc32(packet), now);
  for (const Piece& piece : pieces) {
    reasm.on_data(7, piece.offset, piece.payload, now);
  }
  EXPECT_EQ(delivered, packet) << "seed=" << seed;
  EXPECT_EQ(reasm.stats().checksum_failed, 0u);
  EXPECT_EQ(reasm.stats().conflicting_writes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReassemblyOrderTest,
                         ::testing::Range<std::uint64_t>(1, 13));

// -- Engine stress: randomized schedule/cancel storms preserve ordering ------

TEST(EngineStress, RandomizedStormFiresInNondecreasingTimeOrder) {
  sim::Simulator sim;
  util::Xoshiro256 rng(2027);
  std::vector<std::int64_t> fire_times;
  std::vector<sim::EventHandle> handles;

  std::function<void(int)> spawn = [&](int depth) {
    const auto delay =
        sim::Duration::microseconds(static_cast<std::int64_t>(rng.below(5000)));
    handles.push_back(sim.schedule_after(delay, [&, depth]() {
      fire_times.push_back(sim.now().ns());
      if (depth > 0 && rng.chance(0.6)) spawn(depth - 1);
      // Randomly cancel some still-pending handle.
      if (!handles.empty() && rng.chance(0.3)) {
        handles[static_cast<std::size_t>(rng.below(handles.size()))].cancel();
      }
    }));
  };
  for (int i = 0; i < 200; ++i) spawn(4);
  sim.run();

  ASSERT_FALSE(fire_times.empty());
  EXPECT_TRUE(std::is_sorted(fire_times.begin(), fire_times.end()));
  // Every queued event either fired or was cancelled; queue is drained.
  EXPECT_TRUE(sim.empty());
}

TEST(EngineStress, ManyEventsSameInstantKeepInsertionOrder) {
  sim::Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 1000; ++i) {
    sim.schedule_after(sim::Duration::milliseconds(5),
                       [&order, i]() { order.push_back(i); });
  }
  sim.run();
  ASSERT_EQ(order.size(), 1000u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

// -- Listening selector: exactly uniform over the complement -----------------

TEST(ListeningUniformity, ComplementIsChosenUniformly) {
  // Avoid 6 of 16 ids; the remaining 10 must be hit uniformly (chi-square).
  core::ListeningConfig config;
  config.fixed_window = 6;
  core::ListeningSelector sel(core::IdSpace(4), 31, config);
  for (std::uint64_t v = 0; v < 6; ++v) {
    sel.observe(core::TransactionId(v));
  }

  constexpr int kSamples = 50'000;
  std::vector<int> counts(16, 0);
  for (int i = 0; i < kSamples; ++i) {
    ++counts[static_cast<std::size_t>(sel.select().value())];
  }
  for (std::uint64_t v = 0; v < 6; ++v) {
    EXPECT_EQ(counts[static_cast<std::size_t>(v)], 0) << "avoided id chosen";
  }
  const double expected = kSamples / 10.0;
  double chi2 = 0.0;
  for (std::size_t v = 6; v < 16; ++v) {
    const double d = counts[v] - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 27.88);  // chi^2_{9, 0.999}
}

TEST(ListeningUniformity, RejectionPathIsAlsoUniform) {
  // Pool 2^13 forces the rejection-sampling path; check the avoid set is
  // never selected and sampled frequencies look flat across 8 buckets.
  core::ListeningConfig config;
  config.fixed_window = 64;
  core::ListeningSelector sel(core::IdSpace(13), 37, config);
  std::vector<bool> avoided(8192, false);
  util::Xoshiro256 rng(41);
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t v = rng.below(8192);
    sel.observe(core::TransactionId(v));
    avoided[static_cast<std::size_t>(v)] = true;
  }
  constexpr int kSamples = 80'000;
  std::vector<int> buckets(8, 0);
  for (int i = 0; i < kSamples; ++i) {
    const std::uint64_t v = sel.select().value();
    ASSERT_FALSE(avoided[static_cast<std::size_t>(v)]);
    ++buckets[static_cast<std::size_t>(v / 1024)];
  }
  const double expected = kSamples / 8.0;  // avoid set is spread thin
  for (const int b : buckets) {
    EXPECT_NEAR(static_cast<double>(b), expected, expected * 0.1);
  }
}

// -- Fragment geometry closure over a size sweep ------------------------------

TEST(FragmenterGeometry, FrameCountFormulaMatchesActualFragmentation) {
  const aff::Fragmenter frag({aff::WireConfig{12, true}, 27});
  for (const std::size_t size :
       {1ul, 10ul, 17ul, 18ul, 19ul, 100ul, 1000ul, 65535ul}) {
    const auto frames =
        frag.fragment(util::random_payload(size, size), core::TransactionId(1),
                      99);
    ASSERT_TRUE(frames.ok()) << size;
    EXPECT_EQ(frames.value().size(), frag.frame_count(size)) << size;
    // Reassembling them yields the exact packet.
    aff::Reassembler reasm;
    util::Bytes delivered;
    reasm.set_deliver([&](std::uint64_t, util::BytesView p) {
      delivered.assign(p.begin(), p.end());
    });
    const auto now = sim::TimePoint::origin();
    for (const auto& f : frames.value()) {
      const auto decoded = aff::decode(aff::WireConfig{12, true}, f);
      ASSERT_TRUE(decoded.has_value());
      if (const auto* intro = std::get_if<aff::IntroFragment>(&decoded->body)) {
        reasm.on_intro(intro->id.value(), intro->total_len, intro->checksum, now);
      } else if (const auto* data =
                     std::get_if<aff::DataFragment>(&decoded->body)) {
        reasm.on_data(data->id.value(), data->offset, data->payload, now);
      }
    }
    EXPECT_EQ(delivered.size(), size);
  }
}

}  // namespace
}  // namespace retri
