// Ack/retransmit hardening: reliable-delivery wrappers for both engines.
//
// A FaultPlan (sim/fault.h) with drop/duplicate/corrupt/burst rates breaks
// the perfect-channel assumption every algorithm in src/algos is written
// against. These wrappers restore it *inside the protocol stack*, the way a
// deployment would: each original message is framed with a checksum and a
// per-peer sequence number, retransmitted until cumulatively acked, verified
// and deduplicated on receipt, and handed to the wrapped program in order.
// The wrapped protocol is unchanged — it talks through a reframed context
// (SyncContext::reframed / AsyncContext::reframed) whose sends the wrapper
// captures, frames, and schedules. The synchronous wrapper decorates a
// whole SyncProgramSet; the asynchronous one wraps one AsyncProgram.
//
// Why this terminates under a FaultPlan: losses per channel are bounded
// (FaultSpec::max_losses_per_channel i.i.d.+PRR, FaultSpec::burst_cap for
// bursts) and link-down/region-outage windows are finite, so a
// retransmitted frame is delivered within a computable window; see
// round_dilation() below.
//
// Transport. Two mechanisms keep a lossy channel both fast and live:
//
//   * Pacing — retransmits back off exponentially (sync: 2 -> 4 rounds;
//     async: an RTT/loss-adaptive RTO, clamped) with a deterministic jitter
//     hashed from (self, peer, attempt), so a burst does not trigger a
//     synchronized retransmit storm and the paced run stays reproducible.
//     The async wrapper estimates per-peer smoothed RTT (Karn's rule:
//     retransmitted frames contribute no sample) and an EWMA loss rate that
//     scales the timeout.
//
//   * Failure detection — a per-peer trusted / suspected / dead state
//     machine. A peer unheard for more failed attempts than bounded loss
//     alone could explain (suspect_after: the full round-trip loss budget
//     plus margin) becomes *suspected*: data frames for it are parked and
//     the wrapper probes with heartbeats on a fixed cadence. Any
//     checksum-valid message from the peer re-trusts it (parked frames
//     resume). Only when the probe budget —
//     sized to outlast every finite churn/outage window plus the loss
//     budget — is also exhausted is the peer declared *dead*: parked and
//     pending frames are dropped (counted as `abandoned`) and the channel
//     quiesces. Under loss-only plans a live peer is never even suspected;
//     under churn/outage plans it may be suspected transiently but is never
//     declared dead. Suspicions are exported (ReliableSyncSet::suspected,
//     ReliableAsyncProgram::suspected_peers) so the verify layer can hold
//     the detector to completeness (crashed peers get suspected) and
//     accuracy (nobody else does).
//
// Synchronous wrapper — round dilation. Lock-step rounds are the engine's
// semantic, so reliability must preserve "all round-k messages arrive
// before round k+1". ReliableSyncSet runs inner round k at outer round k*R
// (R = round_dilation(spec)) and uses the R-1 outer rounds in between as
// the retransmission window: frames carry their inner round number,
// receivers buffer them per peer, and the inner inbox for round k is
// assembled — sorted by (peer, sequence) for determinism — once the window
// guarantees every round-k frame has landed. A frame surfacing after its
// assembly point would mean the window math is wrong and fails loudly. The
// inner set's sends are captured through a borrowing SyncCaptureSink;
// framing reads only the message's tag and data.
//
// Asynchronous wrapper — timer retransmit. No rounds to piggyback on, so
// unacked frames are retransmitted on a timer (AsyncContext::set_timer);
// out-of-order arrivals are buffered and released to the inner program in
// sequence order. Timer cookies < 0 are reserved for the wrapper; inner
// programs that use timers must stick to cookies >= 0 and get them
// forwarded untouched.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/async_engine.h"
#include "sim/fault.h"
#include "sim/sync_engine.h"

namespace fdlsp {

/// Wire tags of the wrapper protocol. Inner tags travel inside the frame
/// payload, so the wrapped program's own tags can never collide with these.
inline constexpr std::int32_t kReliableFrameTag = 0x52464C46;      // "RFLF"
inline constexpr std::int32_t kReliableAckTag = 0x52464C41;        // "RFLA"
inline constexpr std::int32_t kReliableHeartbeatTag = 0x52464C48;  // "RFLH"

/// Per-peer verdict of the failure detector.
enum class PeerHealth : std::uint8_t {
  kTrusted,    ///< heard from recently enough; data flows normally
  kSuspected,  ///< unheard past the loss budget; data parked, probing
  kDead,       ///< probe budget exhausted too; traffic abandoned
};

/// Counters of one wrapper's transport-layer work during a run. The run
/// functions aggregate them across nodes into ScheduleResult::transport.
struct TransportStats {
  std::uint64_t retransmits = 0;  ///< data frames re-sent
  std::uint64_t probes = 0;       ///< heartbeat probes sent while suspected
  std::uint64_t suspicions = 0;   ///< trusted -> suspected transitions
  std::uint64_t retrusts = 0;     ///< suspected -> trusted recoveries
  std::uint64_t abandoned = 0;    ///< frames dropped on a dead peer
  double max_backoff = 0.0;       ///< largest retransmit interval reached

  void merge(const TransportStats& other) {
    retransmits += other.retransmits;
    probes += other.probes;
    suspicions += other.suspicions;
    retrusts += other.retrusts;
    abandoned += other.abandoned;
    if (other.max_backoff > max_backoff) max_backoff = other.max_backoff;
  }
};

/// Reliable-delivery decorator for the synchronous engine (round dilation):
/// a SyncProgramSet that hardens every node of an inner set. Transport state
/// is per node, in a vector indexed by node id, so pooled shards run the
/// decorator exactly like any other set.
class ReliableSyncSet final : public SyncProgramSet {
 public:
  /// `inner` must outlive the decorator. `spec` must be the spec of the
  /// FaultPlan installed on the engine: the dilation factor and the
  /// detector budgets are derived from its loss bounds.
  ReliableSyncSet(SyncProgramSet& inner, const FaultSpec& spec);

  /// Outer rounds per inner round: the retransmission window sized so that
  /// bounded per-channel loss (i.i.d. + PRR + burst budgets), every finite
  /// churn/outage window, and one suspect/probe/retrust cycle cannot delay
  /// a frame past its assembly point.
  static std::size_t round_dilation(const FaultSpec& spec);

  /// Transport-layer work counters, merged across all nodes.
  TransportStats transport_stats() const;

  /// Peers any node's detector ever moved to kSuspected, sorted and unique.
  std::vector<NodeId> suspected() const;

  std::size_t size() const override { return inner_.size(); }
  void prepare_shards(std::size_t shards) override {
    inner_.prepare_shards(shards);
  }
  void on_round(NodeId v, SyncContext& ctx, const SyncInbox& inbox) override;
  bool ready_for_phase_advance(NodeId v) const override;
  void on_phase(NodeId v, std::size_t new_phase) override;
  bool finished(NodeId v) const override;

 private:
  struct PendingFrame {
    std::int64_t seq;
    Message frame;  // fully framed, ready to resend
  };
  struct BufferedFrame {
    std::int64_t seq;
    std::int64_t inner_round;
    Message original;  // unframed, from/tag/data restored
  };
  struct PeerState {
    NodeId peer = kNoNode;
    std::int64_t next_seq = 1;   // next outbound sequence number
    std::int64_t acked = 0;      // highest cumulative ack received
    std::int64_t received = 0;   // highest contiguous inbound seq accepted
    PeerHealth health = PeerHealth::kTrusted;
    std::size_t fails = 0;       // retransmit sweeps since last heard
    std::size_t probes_sent = 0; // heartbeats since this suspicion began
    std::size_t next_retx = 0;   // outer round of the next retransmit/probe
    std::vector<PendingFrame> pending;    // unacked, seq ascending
    std::vector<PendingFrame> parked;     // shelved while suspected
    std::vector<BufferedFrame> buffered;  // awaiting inner-round assembly
  };
  /// One node's transport endpoint; only that node's callbacks touch it.
  struct Node {
    std::size_t next_inner_round = 0;  // next inner round to execute
    std::vector<PeerState> peers;      // sorted by peer id
    std::vector<NodeId> ack_due;       // peers to ack this round
    std::vector<NodeId> ever_suspected;  // sorted, deduplicated
    TransportStats stats;
  };

  static PeerState& peer_state(Node& node, NodeId peer);
  static bool channels_idle(const Node& node);
  void capture_send(SyncContext& ctx, NodeId to, const Message& message);
  void handle_frame(Node& node, SyncContext& ctx, const Message& message);
  static void handle_ack(Node& node, const Message& message,
                         std::size_t round);
  static void heard(Node& node, PeerState& state, std::size_t round);
  void sweep(Node& node, SyncContext& ctx, std::size_t round) const;
  static std::size_t backoff_interval(Node& node, const SyncContext& ctx,
                                      const PeerState& state);

  SyncProgramSet& inner_;
  std::size_t dilation_;
  std::size_t suspect_after_;  // failed sweeps before kSuspected
  std::size_t probe_budget_;   // heartbeats before kDead
  std::vector<Node> nodes_;    // indexed by node id
};

/// Reliable-delivery wrapper for the asynchronous engine (timer retransmit).
class ReliableAsyncProgram final : public AsyncProgram {
 public:
  /// `spec` must be the spec of the FaultPlan installed on the engine: the
  /// retransmission and detector budgets are derived from its loss bounds.
  ReliableAsyncProgram(std::unique_ptr<AsyncProgram> inner,
                       const FaultSpec& spec);

  /// The wrapped program (result extraction after a run).
  AsyncProgram& inner() noexcept { return *inner_; }
  const AsyncProgram& inner() const noexcept { return *inner_; }

  /// Transport-layer work counters for this node.
  const TransportStats& transport_stats() const noexcept { return stats_; }

  /// Peers this node's detector ever moved to kSuspected, ascending.
  const std::vector<NodeId>& suspected_peers() const noexcept {
    return ever_suspected_;
  }

  void on_start(AsyncContext& ctx) override;
  void on_message(AsyncContext& ctx, Message& message) override;
  void on_timer(AsyncContext& ctx, std::int64_t cookie) override;
  bool finished() const override;

 private:
  struct PendingFrame {
    std::int64_t seq;
    Message frame;
    double sent_at = 0.0;        // first-transmission time (RTT sampling)
    bool retransmitted = false;  // Karn's rule: no RTT sample once resent
  };
  struct ReorderedFrame {
    std::int64_t seq;
    Message original;
  };
  struct PeerState {
    NodeId peer = kNoNode;
    std::int64_t next_seq = 1;
    std::int64_t acked = 0;
    std::int64_t received = 0;
    std::size_t attempts = 0;     // retransmission timers since last progress
    PeerHealth health = PeerHealth::kTrusted;
    std::size_t probes_sent = 0;  // heartbeats since this suspicion began
    double srtt = 0.0;            // smoothed RTT (0 until first sample)
    double loss_hat = 0.0;        // EWMA loss estimate driving the RTO
    bool timer_armed = false;
    std::vector<PendingFrame> pending;      // unacked, seq ascending
    std::vector<PendingFrame> parked;       // shelved while suspected
    std::vector<ReorderedFrame> reordered;  // accepted out of order
  };

  PeerState& peer_state(NodeId peer);
  void capture_send(AsyncContext& ctx, NodeId to, const Message& message);
  void handle_frame(AsyncContext& ctx, const Message& message);
  void handle_ack(AsyncContext& ctx, const Message& message);
  void heard(AsyncContext& ctx, PeerState& state);
  void arm_timer(AsyncContext& ctx, PeerState& state, double delay);
  double retransmit_interval(const AsyncContext& ctx, const PeerState& state);
  void deliver_in_order(AsyncContext& ctx, PeerState& state,
                        Message& original);
  Message take_frame();
  void recycle_frame(Message&& frame);

  std::unique_ptr<AsyncProgram> inner_;
  std::size_t suspect_after_;     // attempts before kSuspected
  std::size_t probe_budget_;      // heartbeats before kDead
  std::vector<PeerState> peers_;  // sorted by peer id
  std::vector<NodeId> ever_suspected_;  // sorted, deduplicated
  /// Retired frame buffers, recycled into new frames: once every channel has
  /// seen its largest frame, framing allocates nothing (the buffers just
  /// circulate between the pool and the per-peer pending lists).
  std::vector<Message> frame_pool_;
  /// Reused for every in-order unframe; its spilled capacity survives
  /// between deliveries. Safe to share across peers: dispatch is serial and
  /// the inner handler finishes with the message before the next frame.
  Message unframe_scratch_;
  TransportStats stats_;
};

}  // namespace fdlsp
