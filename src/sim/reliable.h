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
// captures, frames, and schedules. Losses per channel are bounded
// (FaultSpec::max_losses_per_channel, FaultSpec::burst_cap) and down
// windows are finite, so a retransmitted frame lands within a computable
// window (round_dilation() below).
//
// One core, two adapters. PeerTransport is the per-peer sender both
// wrappers share: the peer table, the pending/parked queues, capture, ack
// absorption, the retransmit-due decision, and the failure detector — a
// per-peer trusted / suspected / dead machine. A peer unheard for more
// failed attempts than bounded loss alone explains (the round-trip loss
// budget plus margin) becomes *suspected*: its data frames park and
// heartbeats probe it on a fixed cadence; any checksum-valid message from
// it re-trusts it and resumes the parked frames. Only when the probe
// budget, sized past every finite churn/outage window, also runs out is it
// declared *dead*: its frames are dropped (`abandoned`) and the channel
// quiesces. Loss-only plans never suspect a live peer; churn/outage plans
// may, transiently, but never declare it dead. Each endpoint's
// TransportLedger (counters and suspicions, aggregated by merge_ledgers)
// lets the verify layer hold the detector to completeness and accuracy.
//
// Invariant: every frame in `pending` or `parked` has a sequence number
// above the peer's cumulative `acked`. An ack retires what it covers from
// both queues before it re-trusts the peer, so a retrust never resumes an
// acknowledged frame.
//
// Each wrapper drives the core through a `Link` adapter holding its clock
// and its sends. Exactly four policies differ per engine:
//   * ack batching — sync: one ack per peer per round; async: per frame;
//   * gaps — sync: go-back-N drops a frame past a gap; async: buffers it;
//   * retransmit interval — sync: min(2 << fails/2, 4) rounds plus a hashed
//     jitter round; async: an RTO from the smoothed RTT (Karn's rule) and
//     an EWMA loss estimate, clamped, plus hashed fractional jitter;
//   * retrust — sync: resumed frames go out on the round's sweep; async:
//     they are resent at once.
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

#include <algorithm>
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

/// What one transport endpoint reports after a run.
struct TransportLedger {
  TransportStats stats;
  std::vector<NodeId> suspected;  ///< peers ever suspected, ascending
};

/// The run-level aggregate of nodes 0..count-1: sums the counters of
/// `ledger_at(v)` into `stats` and gathers their suspicions into
/// `suspected`, sorted and unique.
template <class LedgerAt>
void merge_ledgers(std::size_t count, LedgerAt ledger_at, TransportStats& stats,
                   std::vector<NodeId>& suspected) {
  for (NodeId v = 0; v < count; ++v) {
    const TransportLedger& ledger = ledger_at(v);
    stats.merge(ledger.stats);
    suspected.insert(suspected.end(), ledger.suspected.begin(),
                     ledger.suspected.end());
  }
  std::sort(suspected.begin(), suspected.end());
  suspected.erase(std::unique(suspected.begin(), suspected.end()),
                  suspected.end());
}

namespace reliable_detail {

/// Failure-detector budgets of one endpoint, from the spec's loss bounds
/// and its heartbeat cadence.
struct DetectorBudgets {
  std::size_t suspect_after;  // failed attempts before kSuspected
  std::size_t probe_budget;   // heartbeats before kDead
};
DetectorBudgets detector_budgets(const FaultSpec& spec, double probe_interval);

/// Frames `original` into `frame` (reusing its buffer) for channel from->to.
void make_frame_into(Message& frame, NodeId from, NodeId to, std::int64_t seq,
                     std::int64_t inner_round, const Message& original);

/// An ack or heartbeat (`tag`) carrying the sender's cumulative ack.
Message make_control(std::int32_t tag, NodeId from, NodeId to,
                     std::int64_t cumulative);

}  // namespace reliable_detail

/// One endpoint's per-peer sender core (see the file comment). `PeerExt`
/// and `FrameExt` hold the adapter's own per-peer and per-frame state;
/// `PeerExt::idle()` reports whether that state still holds inbound frames.
/// The operations taking a `Link` call back into the adapter, which owns
/// the clock — outer rounds (sync) or simulated time (async): its `ctx`
/// sends heartbeats every Link::kProbeInterval, inner_round/take_frame/
/// stamp frame a capture, transmit/resend put frames on the wire, release
/// takes back an acked frame, on_progress/on_timeout/backoff pace
/// retransmits, rearm sets a peer's next deadline, and on_retrust
/// schedules resumed frames.
template <class PeerExt, class FrameExt>
class PeerTransport {
 public:
  struct Frame {
    std::int64_t seq;
    Message frame;  // fully framed, ready to resend
    [[no_unique_address]] FrameExt ext;
  };
  struct Peer {
    NodeId peer = kNoNode;
    std::int64_t next_seq = 1;    // next outbound sequence number
    std::int64_t acked = 0;       // highest cumulative ack received
    std::int64_t received = 0;    // highest contiguous inbound seq accepted
    PeerHealth health = PeerHealth::kTrusted;
    std::size_t fails = 0;        // retransmit attempts since last heard
    std::size_t probes_sent = 0;  // heartbeats since this suspicion began
    std::vector<Frame> pending;   // unacked, seq ascending
    std::vector<Frame> parked;    // shelved while suspected, seq ascending
    PeerExt ext;
  };

  /// `probe_interval` must be the adapter's Link::kProbeInterval.
  PeerTransport(const FaultSpec& spec, double probe_interval)
      : budgets_(reliable_detail::detector_budgets(spec, probe_interval)) {}

  const TransportLedger& ledger() const noexcept { return ledger_; }
  std::vector<Peer>& peers() noexcept { return peers_; }

  /// The state of `peer`, created on first contact.
  Peer& peer(NodeId peer) {
    auto it = std::lower_bound(
        peers_.begin(), peers_.end(), peer,
        [](const Peer& state, NodeId id) { return state.peer < id; });
    if (it == peers_.end() || it->peer != peer) {
      it = peers_.insert(it, Peer{});
      it->peer = peer;
    }
    return *it;
  }

  /// No outbound frame unacked or parked and no inbound frame held back.
  bool idle() const {
    for (const Peer& state : peers_)
      if (!state.pending.empty() || !state.parked.empty() ||
          !state.ext.idle())
        return false;
    return true;
  }

  /// Frames an inner send, then queues and transmits it or parks it.
  // fdlsp-lint: hot — per-inner-send steady-state path, no allocator traffic
  template <class Link>
  void capture(Link& link, NodeId to, const Message& message) {
    Peer& state = peer(to);
    if (state.health == PeerHealth::kDead) {
      // The detector already declared this peer dead; the inner program's
      // message can never be delivered, so it is dropped like the rest.
      ++ledger_.stats.abandoned;
      ++state.next_seq;
      return;
    }
    Message frame = link.take_frame();
    reliable_detail::make_frame_into(frame, link.ctx.self(), to,
                                     state.next_seq, link.inner_round, message);
    const bool park = state.health == PeerHealth::kSuspected;
    (park ? state.parked : state.pending)
        .push_back(Frame{state.next_seq, std::move(frame), link.stamp(park)});
    ++state.next_seq;
    if (!park) link.transmit(state);
  }

  /// Any checksum-valid message from the peer: resets its failure count
  /// and, if it was suspected, re-trusts it and resumes the parked traffic.
  template <class Link>
  void heard(Link& link, Peer& state) {
    state.fails = 0;
    if (state.health != PeerHealth::kSuspected) return;
    state.health = PeerHealth::kTrusted;
    ++ledger_.stats.retrusts;
    state.pending = std::move(state.parked);
    state.parked.clear();
    link.on_retrust(*this, state);
  }

  /// A cumulative ack (or heartbeat) from `peer`.
  template <class Link>
  void absorb_ack(Link& link, NodeId peer, std::int64_t cumulative) {
    Peer& state = this->peer(peer);
    if (cumulative > state.acked) {
      state.acked = cumulative;
      link.on_progress(state, cumulative);
      // Retire the covered frames from both queues before heard() can
      // resume the parked ones: a resumed acked frame would be resent
      // forever, since later acks cover nothing new. Both queues are
      // seq-ascending, so each acked prefix is contiguous.
      for (std::vector<Frame>* queue : {&state.pending, &state.parked}) {
        auto end = queue->begin();
        for (; end != queue->end() && end->seq <= cumulative; ++end)
          link.release(std::move(end->frame));
        queue->erase(queue->begin(), end);
      }
    }
    heard(link, state);  // a valid ack proves the peer is alive and hearing us
  }

  /// The peer's retransmit/probe deadline has come: probe, declare it dead,
  /// suspect it, or resend everything pending and back off.
  template <class Link>
  void on_due(Link& link, Peer& state) {
    if (state.health == PeerHealth::kDead) return;
    if (state.health == PeerHealth::kSuspected) {
      if (state.probes_sent < budgets_.probe_budget) {
        probe(link, state);
        return;
      }
      // Probing outlasted every finite outage the spec allows plus the loss
      // budget — the peer is dead. Drop its traffic so the run can quiesce;
      // the inner algorithms degrade as under a crash.
      state.health = PeerHealth::kDead;
      ledger_.stats.abandoned += state.pending.size() + state.parked.size();
      state.pending.clear();
      state.parked.clear();
      return;
    }
    if (state.pending.empty()) return;
    ++state.fails;
    link.on_timeout(state);
    if (state.fails > budgets_.suspect_after) {
      // Bounded loss alone cannot explain this much silence: suspect the
      // peer, shelve its data, and fall back to heartbeat probing.
      state.health = PeerHealth::kSuspected;
      ++ledger_.stats.suspicions;
      std::vector<NodeId>& suspected = ledger_.suspected;
      auto it =
          std::lower_bound(suspected.begin(), suspected.end(), state.peer);
      if (it == suspected.end() || *it != state.peer)
        suspected.insert(it, state.peer);
      state.parked = std::move(state.pending);
      state.pending.clear();
      state.probes_sent = 0;
      probe(link, state);
      return;
    }
    resend_pending(link, state);
    const auto interval = link.backoff(state);
    if (static_cast<double>(interval) > ledger_.stats.max_backoff)
      ledger_.stats.max_backoff = static_cast<double>(interval);
    link.rearm(state, interval);
  }

  template <class Link>
  void resend_pending(Link& link, Peer& state) {
    for (Frame& frame : state.pending) link.resend(state, frame);
    ledger_.stats.retransmits += state.pending.size();
  }

 private:
  template <class Link>
  void probe(Link& link, Peer& state) {
    link.ctx.send(state.peer, reliable_detail::make_control(
                                  kReliableHeartbeatTag, link.ctx.self(),
                                  state.peer, state.received));
    ++state.probes_sent;
    ++ledger_.stats.probes;
    link.rearm(state, Link::kProbeInterval);
  }

  std::vector<Peer> peers_;  // sorted by peer id
  TransportLedger ledger_;
  reliable_detail::DetectorBudgets budgets_;
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

  /// Node `v`'s transport counters and suspicions.
  const TransportLedger& ledger(NodeId v) const {
    return nodes_[v].transport.ledger();
  }

  std::size_t size() const override { return inner_.size(); }
  void prepare_shards(std::size_t shards) override {
    inner_.prepare_shards(shards);
  }
  void on_round(NodeId v, SyncContext& ctx, const SyncInbox& inbox) override;
  bool ready_for_phase_advance(NodeId v) const override;
  void on_phase(NodeId v, std::size_t new_phase) override;
  bool finished(NodeId v) const override;

 private:
  struct BufferedFrame {
    std::int64_t seq;
    std::int64_t inner_round;
    Message original;  // unframed, from/tag/data restored
  };
  struct PeerExt {
    std::size_t next_retx = 0;  // outer round of the next retransmit/probe
    std::vector<BufferedFrame> buffered;  // awaiting inner-round assembly
    bool idle() const noexcept { return buffered.empty(); }
  };
  struct FrameExt {};
  using Transport = PeerTransport<PeerExt, FrameExt>;
  using Peer = Transport::Peer;
  /// One node's transport endpoint; only that node's callbacks touch it.
  struct Node {
    Transport transport;
    std::vector<NodeId> ack_due;  // peers to ack this round
  };
  struct Link;

  void handle_frame(Node& node, Link& link, const Message& message);

  SyncProgramSet& inner_;
  std::size_t dilation_;
  std::vector<Node> nodes_;  // indexed by node id
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

  /// This node's transport counters and suspicions.
  const TransportLedger& ledger() const noexcept {
    return transport_.ledger();
  }

  void on_start(AsyncContext& ctx) override;
  void on_message(AsyncContext& ctx, Message& message) override;
  void on_timer(AsyncContext& ctx, std::int64_t cookie) override;
  bool finished() const override;

 private:
  struct ReorderedFrame {
    std::int64_t seq;
    Message original;
  };
  struct PeerExt {
    double srtt = 0.0;      // smoothed RTT (0 until first sample)
    double loss_hat = 0.0;  // EWMA loss estimate driving the RTO
    bool timer_armed = false;
    std::vector<ReorderedFrame> reordered;  // accepted out of order
    bool idle() const noexcept { return reordered.empty(); }
  };
  struct FrameExt {
    double sent_at = 0.0;        // first-transmission time (RTT sampling)
    bool retransmitted = false;  // Karn's rule: no RTT sample once resent
  };
  using Transport = PeerTransport<PeerExt, FrameExt>;
  using Peer = Transport::Peer;
  struct Link;

  void handle_frame(Link& link, const Message& message);
  void arm_timer(AsyncContext& ctx, Peer& state, double delay);
  static double retransmit_interval(const AsyncContext& ctx,
                                    const Peer& state);
  void deliver_in_order(Link& link, NodeId peer, Message& original);
  Message take_frame();
  void recycle_frame(Message&& frame);

  std::unique_ptr<AsyncProgram> inner_;
  Transport transport_;
  /// Retired frame buffers, recycled into new frames: once every channel has
  /// seen its largest frame, framing allocates nothing (the buffers just
  /// circulate between the pool and the per-peer pending lists).
  std::vector<Message> frame_pool_;
  /// Reused for every in-order unframe; its spilled capacity survives
  /// between deliveries. Safe to share across peers: dispatch is serial and
  /// the inner handler finishes with the message before the next frame.
  Message unframe_scratch_;
};

}  // namespace fdlsp
