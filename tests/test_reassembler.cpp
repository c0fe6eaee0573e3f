#include "aff/reassembler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/checksum.hpp"
#include "util/random.hpp"

namespace retri::aff {
namespace {

sim::TimePoint at_ms(std::int64_t ms) {
  return sim::TimePoint::origin() + sim::Duration::milliseconds(ms);
}

class ReassemblerTest : public ::testing::Test {
 protected:
  ReassemblerTest() {
    reasm.set_deliver([this](std::uint64_t key, util::BytesView packet) {
      delivered.emplace_back(key, util::Bytes(packet.begin(), packet.end()));
    });
    reasm.set_closed([this](std::uint64_t key) { closed.push_back(key); });
  }

  /// Feeds a whole packet under `key`, split into `chunk` byte pieces.
  void feed_packet(std::uint64_t key, const util::Bytes& packet,
                   std::size_t chunk, std::int64_t t_ms = 0) {
    reasm.on_intro(key, static_cast<std::uint16_t>(packet.size()),
                   util::crc32(packet), at_ms(t_ms));
    for (std::size_t off = 0; off < packet.size(); off += chunk) {
      const std::size_t n = std::min(chunk, packet.size() - off);
      reasm.on_data(key, static_cast<std::uint16_t>(off),
                    util::BytesView(packet.data() + off, n), at_ms(t_ms));
    }
  }

  Reassembler reasm;
  std::vector<std::pair<std::uint64_t, util::Bytes>> delivered;
  std::vector<std::uint64_t> closed;
};

TEST_F(ReassemblerTest, InOrderDelivery) {
  const util::Bytes packet = util::random_payload(80, 1);
  feed_packet(42, packet, 23);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].first, 42u);
  EXPECT_EQ(delivered[0].second, packet);
  EXPECT_EQ(reasm.stats().delivered, 1u);
  EXPECT_EQ(reasm.pending_count(), 0u);
  EXPECT_EQ(closed, (std::vector<std::uint64_t>{42}));
}

TEST_F(ReassemblerTest, DataBeforeIntroIsDiscardedAsOrphan) {
  // Reassembly is introduction-anchored: a data fragment arriving before
  // any introduction for its key is dropped, never buffered (a lost intro
  // dooms the packet anyway, and buffering would let dead tails poison the
  // next packet to reuse the identifier).
  const util::Bytes packet = util::random_payload(60, 2);
  reasm.on_data(9, 30, util::BytesView(packet.data() + 30, 30), at_ms(0));
  EXPECT_EQ(reasm.stats().orphan_fragments, 1u);
  EXPECT_EQ(reasm.pending_count(), 0u);
  // Once the intro arrives, subsequent data assembles normally; the
  // orphaned range must be retransmitted (here: arrives again).
  reasm.on_intro(9, 60, util::crc32(packet), at_ms(1));
  reasm.on_data(9, 0, util::BytesView(packet.data(), 30), at_ms(2));
  EXPECT_TRUE(delivered.empty());
  reasm.on_data(9, 30, util::BytesView(packet.data() + 30, 30), at_ms(3));
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].second, packet);
}

TEST_F(ReassemblerTest, MissingFragmentBlocksDelivery) {
  const util::Bytes packet = util::random_payload(60, 3);
  reasm.on_intro(5, 60, util::crc32(packet), at_ms(0));
  reasm.on_data(5, 0, util::BytesView(packet.data(), 30), at_ms(0));
  // bytes 30..59 never arrive
  EXPECT_TRUE(delivered.empty());
  EXPECT_EQ(reasm.pending_count(), 1u);
  EXPECT_TRUE(reasm.pending(5));
}

TEST_F(ReassemblerTest, ChecksumFailureNeverDelivers) {
  const util::Bytes packet = util::random_payload(40, 4);
  reasm.on_intro(7, 40, util::crc32(packet) ^ 1, at_ms(0));  // wrong checksum
  reasm.on_data(7, 0, packet, at_ms(0));
  EXPECT_TRUE(delivered.empty());
  EXPECT_EQ(reasm.stats().checksum_failed, 1u);
  EXPECT_EQ(reasm.pending_count(), 0u);  // entry closed
  EXPECT_EQ(closed.size(), 1u);
}

TEST_F(ReassemblerTest, DuplicateFragmentsAreIdempotent) {
  const util::Bytes packet = util::random_payload(40, 5);
  reasm.on_intro(3, 40, util::crc32(packet), at_ms(0));
  reasm.on_data(3, 0, util::BytesView(packet.data(), 20), at_ms(0));
  reasm.on_data(3, 0, util::BytesView(packet.data(), 20), at_ms(1));  // dup
  EXPECT_EQ(reasm.stats().duplicate_fragments, 1u);
  reasm.on_data(3, 20, util::BytesView(packet.data() + 20, 20), at_ms(2));
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].second, packet);
}

TEST_F(ReassemblerTest, CollidingWritesDetected) {
  // Two different packets under one key — the identifier-collision symptom.
  const util::Bytes a = util::random_payload(40, 6);
  const util::Bytes b = util::random_payload(40, 7);
  reasm.on_intro(11, 40, util::crc32(a), at_ms(0));
  reasm.on_data(11, 0, util::BytesView(a.data(), 20), at_ms(0));
  reasm.on_data(11, 0, util::BytesView(b.data(), 20), at_ms(1));  // conflict
  EXPECT_GE(reasm.stats().conflicting_writes, 1u);
  // Interleaved halves of two different packets cannot checksum.
  reasm.on_data(11, 20, util::BytesView(a.data() + 20, 20), at_ms(2));
  EXPECT_TRUE(delivered.empty() || delivered[0].second != b);
}

TEST_F(ReassemblerTest, ConflictingIntroDetected) {
  const util::Bytes a = util::random_payload(40, 8);
  const util::Bytes b = util::random_payload(60, 9);
  reasm.on_intro(13, 40, util::crc32(a), at_ms(0));
  reasm.on_intro(13, 60, util::crc32(b), at_ms(1));
  EXPECT_EQ(reasm.stats().conflicting_writes, 1u);
}

TEST_F(ReassemblerTest, NewIntroUnderReusedKeyRestartsCleanly) {
  // Sequential identifier reuse: packet A's reassembly stalls (lost tail),
  // then a NEW packet B arrives under the same identifier. B's differing
  // introduction must reset the entry so B assembles from a clean slate
  // instead of inheriting A's bytes.
  const util::Bytes a = util::random_payload(60, 20);
  const util::Bytes b = util::random_payload(60, 21);
  reasm.on_intro(33, 60, util::crc32(a), at_ms(0));
  reasm.on_data(33, 0, util::BytesView(a.data(), 30), at_ms(0));  // A stalls
  reasm.on_intro(33, 60, util::crc32(b), at_ms(10));              // B begins
  EXPECT_EQ(reasm.stats().conflicting_writes, 1u);
  reasm.on_data(33, 0, util::BytesView(b.data(), 30), at_ms(10));
  reasm.on_data(33, 30, util::BytesView(b.data() + 30, 30), at_ms(11));
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].second, b);
  EXPECT_EQ(reasm.stats().checksum_failed, 0u);
}

TEST_F(ReassemblerTest, IdenticalReIntroIsNotAConflict) {
  const util::Bytes a = util::random_payload(40, 10);
  reasm.on_intro(17, 40, util::crc32(a), at_ms(0));
  reasm.on_intro(17, 40, util::crc32(a), at_ms(1));
  EXPECT_EQ(reasm.stats().conflicting_writes, 0u);
}

TEST_F(ReassemblerTest, TimeoutExpiresIdleEntries) {
  Reassembler short_lived(ReassemblerConfig{sim::Duration::milliseconds(100), 64});
  int timeouts_closed = 0;
  short_lived.set_closed([&](std::uint64_t) { ++timeouts_closed; });
  short_lived.on_intro(1, 40, 0x1234, at_ms(0));
  short_lived.on_intro(2, 40, 0x5678, at_ms(80));
  short_lived.expire(at_ms(120));  // entry 1 idle 120ms > 100ms
  EXPECT_EQ(short_lived.stats().timeouts, 1u);
  EXPECT_FALSE(short_lived.pending(1));
  EXPECT_TRUE(short_lived.pending(2));
  EXPECT_EQ(timeouts_closed, 1);
}

TEST_F(ReassemblerTest, FreshFragmentsResetIdleClock) {
  Reassembler short_lived(ReassemblerConfig{sim::Duration::milliseconds(100), 64});
  short_lived.on_intro(1, 40, 0x1234, at_ms(0));
  short_lived.on_data(1, 0, util::Bytes{1}, at_ms(90));
  short_lived.expire(at_ms(150));  // last update 90ms ago < 100ms
  EXPECT_TRUE(short_lived.pending(1));
}

TEST_F(ReassemblerTest, CapacityEvictsLeastRecentlyUpdated) {
  Reassembler tiny(ReassemblerConfig{sim::Duration::seconds(10), 2});
  tiny.on_intro(1, 40, 0, at_ms(0));
  tiny.on_intro(2, 40, 0, at_ms(1));
  tiny.on_data(1, 0, util::Bytes{1}, at_ms(2));  // 1 now more recent than 2
  tiny.on_intro(3, 40, 0, at_ms(3));             // evicts 2
  EXPECT_EQ(tiny.stats().evicted, 1u);
  EXPECT_TRUE(tiny.pending(1));
  EXPECT_FALSE(tiny.pending(2));
  EXPECT_TRUE(tiny.pending(3));
}

TEST_F(ReassemblerTest, TimeoutBoundaryIsInclusive) {
  // Idle time exactly equal to the timeout expires; one nanosecond less
  // keeps the entry. Pins the >= comparison so a refactor to > (which
  // would keep entries alive a full extra expiry period in the driver's
  // periodic sweep) fails loudly.
  Reassembler short_lived(
      ReassemblerConfig{sim::Duration::milliseconds(100), 64});
  short_lived.on_intro(1, 40, 0x1234, at_ms(0));
  short_lived.expire(at_ms(100) - sim::Duration::nanoseconds(1));
  EXPECT_TRUE(short_lived.pending(1));
  EXPECT_EQ(short_lived.stats().timeouts, 0u);
  short_lived.expire(at_ms(100));  // idle == timeout: expires
  EXPECT_FALSE(short_lived.pending(1));
  EXPECT_EQ(short_lived.stats().timeouts, 1u);
}

TEST_F(ReassemblerTest, ExpireSweepsAllIdleEntriesInLruOrder) {
  Reassembler short_lived(
      ReassemblerConfig{sim::Duration::milliseconds(100), 64});
  std::vector<std::uint64_t> swept;
  short_lived.set_closed([&](std::uint64_t key) { swept.push_back(key); });
  // Touch order 3, 1, 2 — idle order must follow updates, not insertion.
  short_lived.on_intro(1, 40, 0, at_ms(0));
  short_lived.on_intro(2, 40, 0, at_ms(0));
  short_lived.on_intro(3, 40, 0, at_ms(0));
  short_lived.on_data(3, 0, util::Bytes{1}, at_ms(10));
  short_lived.on_data(1, 0, util::Bytes{1}, at_ms(20));
  short_lived.on_data(2, 0, util::Bytes{1}, at_ms(30));
  short_lived.expire(at_ms(125));  // 3 and 1 idle >= 100ms, 2 only 95ms
  EXPECT_EQ(swept, (std::vector<std::uint64_t>{3, 1}));
  EXPECT_EQ(short_lived.stats().timeouts, 2u);
  EXPECT_TRUE(short_lived.pending(2));
}

TEST_F(ReassemblerTest, EvictionOrderFollowsUpdatesNotInsertion) {
  Reassembler tiny(ReassemblerConfig{sim::Duration::seconds(10), 3});
  std::vector<std::uint64_t> evicted;
  tiny.set_closed([&](std::uint64_t key) { evicted.push_back(key); });
  tiny.on_intro(1, 40, 0, at_ms(0));
  tiny.on_intro(2, 40, 0, at_ms(1));
  tiny.on_intro(3, 40, 0, at_ms(2));
  // Refresh in reverse insertion order: LRU front becomes 3, then 2.
  tiny.on_data(2, 0, util::Bytes{1}, at_ms(3));
  tiny.on_data(1, 0, util::Bytes{1}, at_ms(4));
  tiny.on_intro(4, 40, 0, at_ms(5));  // evicts 3 (least recently updated)
  tiny.on_intro(5, 40, 0, at_ms(6));  // evicts 2
  EXPECT_EQ(evicted, (std::vector<std::uint64_t>{3, 2}));
  EXPECT_EQ(tiny.stats().evicted, 2u);
  EXPECT_TRUE(tiny.pending(1));
  EXPECT_TRUE(tiny.pending(4));
  EXPECT_TRUE(tiny.pending(5));
}

TEST_F(ReassemblerTest, AcceptedFragmentsPartitionLaw) {
  // fragments_seen == accepted + malformed + orphans, across a mix of
  // outcomes: delivered packet, malformed intro/data, and orphaned data.
  const util::Bytes packet = util::random_payload(40, 21);
  feed_packet(1, packet, 20);                       // 1 intro + 2 data, accepted
  reasm.on_intro(2, 0, 0, at_ms(1));                // malformed (zero length)
  reasm.on_data(3, 0, util::Bytes{1, 2}, at_ms(2)); // orphan (no intro)
  reasm.on_data(4, 0, {}, at_ms(3));                // malformed (empty)

  const ReassemblerStatsSnapshot& stats = reasm.stats();
  EXPECT_EQ(stats.fragments_seen, 6u);
  EXPECT_EQ(stats.accepted_fragments, 3u);
  EXPECT_EQ(stats.malformed, 2u);
  EXPECT_EQ(stats.orphan_fragments, 1u);
  EXPECT_EQ(stats.fragments_seen,
            stats.accepted_fragments + stats.malformed +
                stats.orphan_fragments);
  EXPECT_EQ(stats.delivered, 1u);
}

TEST_F(ReassemblerTest, MalformedFragmentsCounted) {
  reasm.on_intro(1, 0, 0, at_ms(0));  // zero-length packet is malformed
  EXPECT_EQ(reasm.stats().malformed, 1u);
  reasm.on_data(2, 0xffff, util::Bytes(2, 0), at_ms(0));  // overruns 64 KiB
  EXPECT_EQ(reasm.stats().malformed, 2u);
  reasm.on_data(3, 0, {}, at_ms(0));  // empty data fragment
  EXPECT_EQ(reasm.stats().malformed, 3u);
  EXPECT_EQ(reasm.pending_count(), 0u);
}

TEST_F(ReassemblerTest, BytesBeyondAnnouncedLengthAreIgnored) {
  // A colliding longer packet wrote past total_len; checksum over the
  // announced prefix still validates.
  const util::Bytes packet = util::random_payload(30, 11);
  util::Bytes padded = packet;
  padded.resize(50, 0xaa);  // 20 trailing bytes from a colliding writer
  reasm.on_intro(21, 30, util::crc32(packet), at_ms(0));
  reasm.on_data(21, 0, padded, at_ms(1));
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].second.size(), 30u);
  EXPECT_EQ(delivered[0].second, packet);
}

TEST_F(ReassemblerTest, CoveragePastTotalLenCompletesWithZeroHoles) {
  // Coverage counts bytes written past total_len, so a colliding longer
  // packet can complete an entry whose announced prefix still has holes.
  // Bytes never written read as zero: a packet that is zero there checks.
  util::Bytes packet = util::random_payload(40, 30);
  std::fill(packet.begin() + 10, packet.begin() + 20, std::uint8_t{0});
  util::Bytes tail(packet.begin() + 20, packet.end());
  tail.resize(30, 0x5a);  // 10 bytes past total_len
  reasm.on_intro(8, 40, util::crc32(packet), at_ms(0));
  reasm.on_data(8, 0, util::BytesView(packet.data(), 10), at_ms(1));
  reasm.on_data(8, 20, tail, at_ms(2));  // covers 40 bytes; [10, 20) never
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].second, packet);
}

TEST_F(ReassemblerTest, RecycledSlotDoesNotLeakPreviousBytesIntoHoles) {
  // The entry that delivered `first` frees its slot with the buffer
  // intact; the next entry reuses it. Its holes must still read as zero,
  // not as `first`'s bytes.
  const util::Bytes first = util::random_payload(40, 31);
  feed_packet(4, first, 40);
  ASSERT_EQ(delivered.size(), 1u);
  util::Bytes packet = first;
  std::fill(packet.begin() + 10, packet.begin() + 20, std::uint8_t{0});
  util::Bytes tail(packet.begin() + 20, packet.end());
  tail.resize(30, 0x5a);
  reasm.on_intro(5, 40, util::crc32(packet), at_ms(1));
  reasm.on_data(5, 0, util::BytesView(packet.data(), 10), at_ms(2));
  reasm.on_data(5, 20, tail, at_ms(3));
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[1].second, packet);
  EXPECT_EQ(reasm.stats().checksum_failed, 0u);
}

TEST_F(ReassemblerTest, ManyInterleavedPacketsUnderDistinctKeys) {
  std::vector<util::Bytes> packets;
  for (std::uint64_t k = 0; k < 20; ++k) {
    packets.push_back(util::random_payload(50 + k, 100 + k));
  }
  // Interleave: all intros, then all first halves, then all second halves.
  for (std::uint64_t k = 0; k < 20; ++k) {
    reasm.on_intro(k, static_cast<std::uint16_t>(packets[k].size()),
                   util::crc32(packets[k]), at_ms(0));
  }
  for (std::uint64_t k = 0; k < 20; ++k) {
    reasm.on_data(k, 0, util::BytesView(packets[k].data(), 25), at_ms(1));
  }
  for (std::uint64_t k = 0; k < 20; ++k) {
    const std::size_t rest = packets[k].size() - 25;
    reasm.on_data(k, 25, util::BytesView(packets[k].data() + 25, rest), at_ms(2));
  }
  ASSERT_EQ(delivered.size(), 20u);
  for (std::uint64_t k = 0; k < 20; ++k) {
    EXPECT_EQ(delivered[k].second, packets[k]);
  }
}

}  // namespace
}  // namespace retri::aff
