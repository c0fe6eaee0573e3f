// Directed-diffusion-style, address-free data dissemination (§1, §6).
//
// The paper's motivating architecture (SCADDS / directed diffusion [9])
// names data, not nodes: a sink floods an *interest* for attribute-named
// data within a hop scope; nodes that hear it keep a gradient (interest
// state); sources publish matching data which relays hop-by-hop along
// nodes holding the gradient, with duplicate suppression, until it reaches
// the subscribed sink. No node address appears anywhere — both the
// interest and each datum are identified by RETRI identifiers:
//
//   - interest_id: names the interest for its lifetime (the transaction is
//     the subscription);
//   - data_id: names one datum for its flood (the transaction is the
//     delivery).
//
// Collision failure modes, both measurable via instrumentation-only uids:
//   - two concurrent interests sharing interest_id merge gradients: data
//     reaches the wrong sink (counted as gradient conflicts / stray data);
//   - two concurrent data sharing data_id: the later one is suppressed as
//     a duplicate (counted as collision suppressions).
//
// Wire (big-endian):
//   interest: [0x52][interest_id:ceil(H/8)][sink_uid:4][ttl:1][attrs...]
//   data:     [0x53][interest_id:ceil(H/8)][data_id:ceil(H/8)][src_uid:4]
//             [ttl:1][value:2]
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>

#include "apps/codebook.hpp"  // AttributeSet + serialization
#include "core/selector.hpp"
#include "radio/radio.hpp"
#include "sim/time.hpp"

namespace retri::apps {

inline constexpr std::uint8_t kInterestKind = 0x52;
inline constexpr std::uint8_t kDataKind2 = 0x53;

struct DiffusionConfig {
  unsigned id_bits = 8;
  std::uint8_t interest_ttl = 8;
  std::uint8_t data_ttl = 8;
  /// Gradients expire this long after the last matching interest.
  sim::Duration interest_lifetime = sim::Duration::seconds(30);
  /// Distinct recent data ids remembered for duplicate suppression.
  std::size_t data_seen_window = 64;
};

/// Returns `config` unchanged or throws std::invalid_argument naming the
/// offending field. The DiffusionNode constructor applies this.
DiffusionConfig validated(DiffusionConfig config);

struct DiffusionStats {
  std::uint64_t interests_sent = 0;
  std::uint64_t interests_relayed = 0;
  std::uint64_t gradients_established = 0;
  /// An interest arrived whose id matched a live gradient with DIFFERENT
  /// attributes or sink — an interest-id collision observed at this node.
  std::uint64_t gradient_conflicts = 0;
  std::uint64_t data_published = 0;
  std::uint64_t data_no_gradient = 0;  // publish() with nothing to send to
  std::uint64_t data_relayed = 0;
  std::uint64_t data_delivered = 0;    // to this node's own subscription
  std::uint64_t data_suppressed = 0;
  std::uint64_t data_collision_suppressed = 0;  // different src uid
  std::uint64_t undecodable = 0;
};

/// One diffusion participant: may subscribe (sink role), publish (source
/// role), and always relays for others (router role).
class DiffusionNode {
 public:
  /// Delivered datum: value plus instrumentation uid of the true source.
  using DataHandler =
      std::function<void(std::uint16_t value, std::uint32_t src_uid)>;

  DiffusionNode(radio::Radio& radio, core::IdSelector& selector,
                DiffusionConfig config, std::uint32_t node_uid);
  ~DiffusionNode();

  DiffusionNode(const DiffusionNode&) = delete;
  DiffusionNode& operator=(const DiffusionNode&) = delete;

  /// Floods an interest for `attrs`; data matching it will be handed to
  /// `handler`. Returns the interest's RETRI id. Re-subscribing refreshes
  /// the interest (new flood, same handler).
  core::TransactionId subscribe(AttributeSet attrs, DataHandler handler);

  /// Publishes one datum named by `attrs`. Sends only if this node holds a
  /// live gradient whose attributes match; returns the data id used.
  std::optional<core::TransactionId> publish(const AttributeSet& attrs,
                                             std::uint16_t value);

  /// True if a gradient for exactly these attributes is live here.
  bool has_gradient(const AttributeSet& attrs) const;
  std::size_t live_gradients() const noexcept { return gradients_.size(); }
  const DiffusionStats& stats() const noexcept { return stats_; }

  /// Local transaction density this service observes: live gradients plus
  /// in-flight data in the suppression window.
  double local_density() const noexcept;

 private:
  struct Gradient {
    std::string attrs_key;      // canonical serialized attributes
    AttributeSet attrs;
    std::uint32_t sink_uid = 0; // instrumentation: who asked
    sim::TimePoint expires;
  };

  void on_frame(const util::Bytes& frame);
  void handle_interest(util::BufferReader& r);
  void handle_data(util::BufferReader& r);
  void sweep_expired();
  bool remember_data(core::TransactionId id, std::uint32_t src_uid);

  radio::Radio& radio_;
  core::IdSelector& selector_;
  DiffusionConfig config_;
  std::uint32_t node_uid_;
  std::uint32_t next_seq_ = 0;

  std::unordered_map<std::uint64_t, Gradient> gradients_;  // by interest id
  // This node's own subscriptions: interest id -> handler.
  std::unordered_map<std::uint64_t, DataHandler> subscriptions_;
  std::unordered_map<std::uint64_t, std::uint32_t> data_seen_;  // id -> src uid
  std::deque<std::uint64_t> data_seen_order_;
  DiffusionStats stats_;
};

}  // namespace retri::apps
