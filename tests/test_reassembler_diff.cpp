// Differential fuzz: the slab Reassembler against the test-only reference
// (tests/reference_reassembler.*, the map/list implementation it replaced).
//
// Each round builds both with the same randomized config, span recorder
// and metrics registry shape, then feeds them one AFF-like fragment
// stream: several senders' packets interleaved under a narrow id space,
// mixed packet lengths and fragment sizes, drops, duplicates, reordering,
// conflicting and identical re-intros, malformed and overlong fragments,
// and expire() with advancing time, all against a small max_entries.
// After every operation the two must agree on the delivered (key, bytes)
// pairs, the closed keys, stats(), the metric snapshot (pending gauge
// included), pending(key) for every key, pending_count(), span_of(key),
// and every recorded span and instant.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "aff/reassembler.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "reference_reassembler.hpp"
#include "util/checksum.hpp"
#include "util/random.hpp"

namespace retri::aff {
namespace {

sim::TimePoint at_us(std::int64_t us) {
  return sim::TimePoint::origin() + sim::Duration::microseconds(us);
}

/// One fragment as the reassembler sees it.
struct Fragment {
  bool intro = false;
  std::uint64_t key = 0;
  std::uint16_t value = 0;  // total_len for an intro, offset for data
  std::uint32_t checksum = 0;
  util::Bytes payload;
};

/// What one implementation produced, with the hooks it was built with.
template <typename R>
struct Side {
  explicit Side(ReassemblerConfig config)
      : reasm(config, obs::Hooks{&metrics, &spans}, "r.", 3) {
    reasm.set_deliver([this](std::uint64_t key, const auto& packet) {
      delivered.emplace_back(key, util::Bytes(packet.begin(), packet.end()));
    });
    reasm.set_closed([this](std::uint64_t key) { closed.push_back(key); });
  }

  void apply(const Fragment& f, sim::TimePoint now) {
    if (f.intro) {
      reasm.on_intro(f.key, f.value, f.checksum, now);
    } else {
      reasm.on_data(f.key, f.value, f.payload, now);
    }
  }

  obs::MetricsRegistry metrics;
  obs::SpanRecorder spans;
  R reasm;
  std::vector<std::pair<std::uint64_t, util::Bytes>> delivered;
  std::vector<std::uint64_t> closed;
};

bool same_stats(const ReassemblerStatsSnapshot& a,
                const ReassemblerStatsSnapshot& b) {
  return a.delivered == b.delivered && a.checksum_failed == b.checksum_failed &&
         a.conflicting_writes == b.conflicting_writes &&
         a.duplicate_fragments == b.duplicate_fragments &&
         a.timeouts == b.timeouts && a.evicted == b.evicted &&
         a.malformed == b.malformed &&
         a.orphan_fragments == b.orphan_fragments &&
         a.accepted_fragments == b.accepted_fragments &&
         a.fragments_seen == b.fragments_seen;
}

bool same_span(const obs::Span& a, const obs::Span& b) {
  return a.name == b.name && a.category == b.category && a.track == b.track &&
         a.start == b.start && a.ended == b.ended &&
         (!a.ended || a.end == b.end) && a.parent == b.parent &&
         a.outcome == b.outcome && a.attrs == b.attrs;
}

bool same_instant(const obs::Instant& a, const obs::Instant& b) {
  return a.name == b.name && a.category == b.category && a.track == b.track &&
         a.time == b.time && a.parent == b.parent && a.attrs == b.attrs;
}

/// Compares everything observable; names the first difference.
::testing::AssertionResult agree(const Side<Reassembler>& got,
                                 const Side<reference::Reassembler>& want,
                                 const std::vector<std::uint64_t>& keys) {
  if (got.delivered != want.delivered) {
    return ::testing::AssertionFailure()
           << "deliveries differ: " << got.delivered.size() << " vs "
           << want.delivered.size();
  }
  if (got.closed != want.closed) {
    return ::testing::AssertionFailure()
           << "closes differ: " << got.closed.size() << " vs "
           << want.closed.size();
  }
  if (!same_stats(got.reasm.stats(), want.reasm.stats())) {
    return ::testing::AssertionFailure() << "stats() differ";
  }
  if (got.metrics.snapshot().entries != want.metrics.snapshot().entries) {
    return ::testing::AssertionFailure() << "metric snapshots differ";
  }
  if (got.reasm.pending_count() != want.reasm.pending_count()) {
    return ::testing::AssertionFailure()
           << "pending_count " << got.reasm.pending_count() << " vs "
           << want.reasm.pending_count();
  }
  for (const std::uint64_t key : keys) {
    if (got.reasm.pending(key) != want.reasm.pending(key) ||
        got.reasm.span_of(key) != want.reasm.span_of(key)) {
      return ::testing::AssertionFailure()
             << "pending/span_of differ for key " << key;
    }
  }
  const auto& gs = got.spans.spans();
  const auto& ws = want.spans.spans();
  if (gs.size() != ws.size() ||
      !std::equal(gs.begin(), gs.end(), ws.begin(), same_span)) {
    return ::testing::AssertionFailure() << "spans differ";
  }
  const auto& gi = got.spans.instants();
  const auto& wi = want.spans.instants();
  if (gi.size() != wi.size() ||
      !std::equal(gi.begin(), gi.end(), wi.begin(), same_instant)) {
    return ::testing::AssertionFailure() << "instants differ";
  }
  return ::testing::AssertionSuccess();
}

/// Packet content: random, or mostly zero so that bytes a reassembly never
/// wrote (which must read as zero) often match the real packet.
util::Bytes make_packet(util::Xoshiro256& rng, std::size_t len) {
  util::Bytes bytes(len, 0);
  const bool sparse = rng.chance(0.5);
  for (std::uint8_t& b : bytes) {
    if (!sparse || rng.chance(0.1)) {
      b = static_cast<std::uint8_t>(rng.below(256));
    }
  }
  return bytes;
}

std::size_t packet_length(util::Xoshiro256& rng) {
  switch (rng.below(3)) {
    case 0: return 1 + rng.below(8);
    case 1: return 20 + rng.below(60);
    default: return 100 + rng.below(200);
  }
}

/// One sender: its packets become intro + data fragments in a queue the
/// stream draws from. It sometimes resends its previous packet, so stale
/// bytes of a delivered packet would checksum if they leaked into holes.
struct Sender {
  std::deque<Fragment> queue;
  util::Bytes last;
};

void enqueue_packet(util::Xoshiro256& rng, Sender& s,
                    const std::vector<std::uint64_t>& keys) {
  util::Bytes packet = (!s.last.empty() && rng.chance(0.3))
                           ? s.last
                           : make_packet(rng, packet_length(rng));
  const std::uint64_t key = keys[rng.below(keys.size())];
  const std::size_t chunk = 1 + rng.below(40);
  s.queue.push_back(Fragment{true, key,
                             static_cast<std::uint16_t>(packet.size()),
                             util::crc32(packet), {}});
  for (std::size_t off = 0; off < packet.size(); off += chunk) {
    const std::size_t n = std::min(chunk, packet.size() - off);
    s.queue.push_back(Fragment{
        false, key, static_cast<std::uint16_t>(off), 0,
        util::Bytes(packet.begin() + static_cast<std::ptrdiff_t>(off),
                    packet.begin() + static_cast<std::ptrdiff_t>(off + n))});
  }
  s.last = std::move(packet);
}

struct Totals {
  ReassemblerStatsSnapshot stats;
  void add(const ReassemblerStatsSnapshot& s) {
    stats.delivered += s.delivered;
    stats.checksum_failed += s.checksum_failed;
    stats.conflicting_writes += s.conflicting_writes;
    stats.duplicate_fragments += s.duplicate_fragments;
    stats.timeouts += s.timeouts;
    stats.evicted += s.evicted;
    stats.malformed += s.malformed;
    stats.orphan_fragments += s.orphan_fragments;
  }
};

/// Runs one seeded round; returns false after reporting the first
/// divergence.
bool run_round(std::uint64_t seed, Totals& totals) {
  util::Xoshiro256 rng(seed);
  ReassemblerConfig config;
  config.max_entries = 1 + rng.below(12);
  const auto timeout_us = static_cast<std::int64_t>(2'000 + rng.below(8'000));
  config.timeout = sim::Duration::microseconds(timeout_us);
  Side<Reassembler> got(config);
  Side<reference::Reassembler> want(config);

  // A narrow id space: small AFF-style ids, or arbitrary 64-bit keys
  // (ground-truth style) whose index cells collide and probe.
  std::vector<std::uint64_t> keys(std::size_t{2} << rng.below(4));
  const bool wide_keys = rng.chance(0.5);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = wide_keys ? rng.next() : i;
  }
  std::vector<Sender> senders(2 + rng.below(4));

  std::int64_t now_us = 0;
  const std::size_t ops = 60 + rng.below(200);
  for (std::size_t op = 0; op < ops; ++op) {
    now_us += static_cast<std::int64_t>(rng.below(400));
    const std::uint64_t roll = rng.below(100);
    if (roll < 4) {
      if (roll < 1) now_us += timeout_us;  // a quiet spell
      got.reasm.expire(at_us(now_us));
      want.reasm.expire(at_us(now_us));
    } else {
      Sender& s = senders[rng.below(senders.size())];
      if (s.queue.empty()) enqueue_packet(rng, s, keys);
      Fragment f = std::move(s.queue.front());
      s.queue.pop_front();
      const std::uint64_t action = rng.below(100);
      if (action < 8) continue;  // dropped on the channel
      if (action < 14) {
        // Duplicated: this copy now, another one later.
        const std::size_t at = rng.below(s.queue.size() + 1);
        s.queue.insert(s.queue.begin() + static_cast<std::ptrdiff_t>(at), f);
      } else if (action < 20 && !s.queue.empty()) {
        std::swap(f, s.queue.front());  // reordered with its successor
      } else if (action < 24) {
        // A different intro under the same key: a colliding packet.
        f = Fragment{true, f.key,
                     static_cast<std::uint16_t>(packet_length(rng)),
                     static_cast<std::uint32_t>(rng.next()), {}};
      } else if (action < 27) {
        // The sender's last intro again, unchanged.
        f = Fragment{true, f.key,
                     static_cast<std::uint16_t>(s.last.size()),
                     util::crc32(s.last), {}};
      } else if (action < 30) {
        switch (rng.below(3)) {
          case 0: f = Fragment{true, f.key, 0, 0, {}}; break;
          case 1: f = Fragment{false, f.key, 0, 0, {}}; break;
          default: f = Fragment{false, f.key, 0xffff, 0, util::Bytes(2, 1)};
        }
      } else if (action < 33) {
        // A data fragment straddling or past the end of the packet.
        f = Fragment{false, f.key,
                     static_cast<std::uint16_t>(
                         s.last.size() - rng.below(s.last.size() + 1) / 2),
                     0, util::Bytes(1 + rng.below(30), 0)};
      }
      got.apply(f, at_us(now_us));
      want.apply(f, at_us(now_us));
    }
    const ::testing::AssertionResult same = agree(got, want, keys);
    if (!same) {
      ADD_FAILURE() << "seed " << seed << ", op " << op << ": "
                    << same.message();
      return false;
    }
  }
  totals.add(want.reasm.stats());
  return true;
}

// --- scripted cases for intro-sized entries -------------------------------
//
// The slab Reassembler sizes an entry's buffers from the intro that opens
// or restarts it; the reference grows them fragment by fragment. These
// scripts aim at the cases where the two could part: restarts that shrink
// and grow the announced length, coverage completed past total_len, and a
// huge announced length whose slot is recycled.

/// One step of a script: a fragment, or expire() when `expire` is set.
struct Step {
  std::int64_t at_us = 0;
  bool expire = false;
  Fragment fragment;
};

Step intro_step(std::int64_t at_us, std::uint64_t key, std::size_t len,
                std::uint32_t checksum) {
  return Step{at_us, false,
              Fragment{true, key, static_cast<std::uint16_t>(len), checksum,
                       {}}};
}

Step intro_step(std::int64_t at_us, std::uint64_t key,
                const util::Bytes& packet) {
  return intro_step(at_us, key, packet.size(), util::crc32(packet));
}

/// Data fragment carrying packet[from, to).
Step data_step(std::int64_t at_us, std::uint64_t key, const util::Bytes& packet,
               std::size_t from, std::size_t to) {
  return Step{at_us, false,
              Fragment{false, key, static_cast<std::uint16_t>(from), 0,
                       util::Bytes(packet.begin() + static_cast<std::ptrdiff_t>(from),
                                   packet.begin() + static_cast<std::ptrdiff_t>(to))}};
}

Step expire_step(std::int64_t at_us) { return Step{at_us, true, {}}; }

/// Feeds `script` to both implementations, checking agreement after every
/// step, and returns the reference's stats for the caller to check that
/// the script reached what it aims at.
ReassemblerStatsSnapshot replay(const std::vector<Step>& script,
                                const std::vector<std::uint64_t>& keys,
                                std::size_t max_entries = 4) {
  ReassemblerConfig config;
  config.max_entries = max_entries;
  config.timeout = sim::Duration::milliseconds(10);
  Side<Reassembler> got(config);
  Side<reference::Reassembler> want(config);
  for (std::size_t i = 0; i < script.size(); ++i) {
    const Step& step = script[i];
    if (step.expire) {
      got.reasm.expire(at_us(step.at_us));
      want.reasm.expire(at_us(step.at_us));
    } else {
      got.apply(step.fragment, at_us(step.at_us));
      want.apply(step.fragment, at_us(step.at_us));
    }
    const ::testing::AssertionResult same = agree(got, want, keys);
    EXPECT_TRUE(same) << "step " << i;
    if (!same) break;
  }
  return want.reasm.stats();
}

// A restart intro announcing a shorter packet, then one announcing a
// longer packet: each restart resizes the entry, and the bytes the
// earlier announcements' data wrote must not leak into the last packet.
TEST(ReassemblerDifferential, RestartsToShorterThenLongerLength) {
  util::Xoshiro256 rng(71);
  const util::Bytes a = make_packet(rng, 100);
  const util::Bytes b = make_packet(rng, 30);
  const util::Bytes c = make_packet(rng, 200);
  const util::Bytes zeros(120, 0);
  const util::Bytes longer = make_packet(rng, 250);
  const std::vector<Step> script{
      intro_step(0, 7, a),
      data_step(1, 7, a, 0, 40),
      data_step(2, 7, a, 40, 90),
      intro_step(3, 7, b),  // restart, shorter
      data_step(4, 7, b, 0, 20),
      intro_step(5, 7, c),  // restart, longer
      data_step(6, 7, c, 0, 150),
      data_step(7, 7, c, 150, 200),  // delivered
      // The same shrink then grow with nothing written in between, to an
      // all-zero packet that a longer collider's bytes past total_len
      // complete: the checksum reads only bytes written before the
      // restarts, which must read as zero.
      intro_step(10, 8, a),
      data_step(11, 8, a, 0, 90),
      intro_step(12, 8, b),
      intro_step(13, 8, zeros),
      data_step(14, 8, longer, 120, 250),  // delivered
  };
  const ReassemblerStatsSnapshot stats = replay(script, {7, 8});
  EXPECT_EQ(stats.delivered, 2u);
  EXPECT_EQ(stats.conflicting_writes, 4u);  // the four restarts
  EXPECT_EQ(stats.checksum_failed, 0u);
}

// A longer packet colliding under the key writes past total_len, and its
// bytes alone complete the coverage count: the checksum then runs over
// bytes no fragment wrote, which read as zero on both sides — a match
// when the announced packet is all zero, a failure otherwise.
TEST(ReassemblerDifferential, CoveragePastTotalLenChecksumsUnwrittenBytes) {
  util::Xoshiro256 rng(72);
  util::Bytes random60 = make_packet(rng, 60);
  random60[0] = 1;  // not all zero
  const util::Bytes zeros60(60, 0);
  const util::Bytes longer = make_packet(rng, 130);
  const std::vector<Step> script{
      intro_step(0, 3, zeros60),
      data_step(1, 3, longer, 60, 95),
      data_step(2, 3, longer, 95, 130),  // 70 bytes covered >= 60: delivered
      intro_step(3, 4, random60),
      data_step(4, 4, longer, 70, 130),  // 60 covered: checksum fails
      intro_step(5, 5, random60),
      data_step(6, 5, longer, 50, 100),  // straddles total_len
      data_step(7, 5, random60, 0, 10),  // covers the rest: checksum fails
  };
  const ReassemblerStatsSnapshot stats = replay(script, {3, 4, 5});
  EXPECT_EQ(stats.delivered, 1u);
  EXPECT_EQ(stats.checksum_failed, 2u);
}

// An intro announcing 65,535 bytes (a corrupted length) opens a full-size
// entry that a short packet's data cannot complete; it times out, and the
// recycled slot then reassembles short packets under the same key.
TEST(ReassemblerDifferential, MaximalAnnouncedLengthThenShortDataTimesOut) {
  util::Xoshiro256 rng(73);
  const util::Bytes short_packet = make_packet(rng, 40);
  const util::Bytes sparse(40, 0);
  const std::vector<Step> script{
      intro_step(0, 9, 0xffff, util::crc32(short_packet)),
      data_step(1, 9, short_packet, 0, 20),
      data_step(2, 9, short_packet, 20, 40),
      expire_step(5'000),   // not idle long enough yet
      expire_step(10'002),  // timed out
      intro_step(10'003, 9, sparse),
      data_step(10'004, 9, sparse, 0, 40),  // delivered from the recycled slot
      intro_step(10'005, 9, short_packet),
      data_step(10'006, 9, short_packet, 0, 40),  // delivered
  };
  const ReassemblerStatsSnapshot stats = replay(script, {9}, 1);
  EXPECT_EQ(stats.timeouts, 1u);
  EXPECT_EQ(stats.delivered, 2u);
  EXPECT_EQ(stats.checksum_failed, 0u);
}

TEST(ReassemblerDifferential, MatchesReferenceOnAffLikeStreams) {
  Totals totals;
  for (std::uint64_t seed = 1; seed <= 1500; ++seed) {
    if (!run_round(seed, totals)) return;
  }
  // The stream must reach every close reason and every counted symptom,
  // or agreement proves little.
  const ReassemblerStatsSnapshot& t = totals.stats;
  EXPECT_GE(t.delivered, 300u);
  EXPECT_GT(t.checksum_failed, 0u);
  EXPECT_GT(t.timeouts, 0u);
  EXPECT_GT(t.evicted, 0u);
  EXPECT_GT(t.conflicting_writes, 0u);
  EXPECT_GT(t.duplicate_fragments, 0u);
  EXPECT_GT(t.malformed, 0u);
  EXPECT_GT(t.orphan_fragments, 0u);
}

}  // namespace
}  // namespace retri::aff
