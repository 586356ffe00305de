#include "sim/reliable.h"

#include <algorithm>
#include <utility>

#include "support/check.h"
#include "support/rng.h"

namespace fdlsp {

namespace {

// Frame payload layout: [checksum, seq, inner_round, orig_tag, payload...].
// The async wrapper has no rounds and stores 0 in the inner_round slot.
constexpr std::size_t kHeaderWords = 4;

// Ack and heartbeat payload layout: [checksum, cumulative_ack].
constexpr std::size_t kAckWords = 2;

/// Checksum over a wire message's payload past the checksum slot, keyed by
/// the directed channel so a frame cannot be mistaken for one from another
/// peer. Corruption flips exactly one payload word (sim/fault.h), which
/// this detects with overwhelming probability; a corrupted message is
/// silently discarded and the retransmission path treats it as a drop.
std::int64_t wire_checksum(NodeId from, NodeId to, const std::int64_t* words,
                           std::size_t count) {
  std::uint64_t state = 0x72656c6961626c65ULL ^
                        ((static_cast<std::uint64_t>(from) << 32) |
                         static_cast<std::uint64_t>(to));
  std::uint64_t h = splitmix64(state);
  for (std::size_t i = 0; i < count; ++i) {
    state ^= h ^ static_cast<std::uint64_t>(words[i]);
    h = splitmix64(state);
  }
  return static_cast<std::int64_t>(h >> 1);
}

/// What a received wire message is, once its tag and size are validated.
enum class Wire : std::uint8_t { kFrame, kAck, kHeartbeat, kCorrupt };

/// Classifies a message received by `self`. A malformed message (unknown
/// tag, wrong size) means the wire protocol itself is broken and fails
/// loudly; a checksum mismatch is corruption, which the caller drops.
Wire check_wire(NodeId self, const Message& message) {
  Wire kind = Wire::kFrame;
  if (message.tag == kReliableFrameTag) {
    FDLSP_REQUIRE(message.data.size() >= kHeaderWords,
                  "reliable frame too short");
  } else if (message.tag == kReliableAckTag) {
    FDLSP_REQUIRE(message.data.size() == kAckWords, "reliable ack malformed");
    kind = Wire::kAck;
  } else {
    FDLSP_REQUIRE(message.tag == kReliableHeartbeatTag,
                  "unexpected wire tag under reliable wrapper");
    FDLSP_REQUIRE(message.data.size() == kAckWords,
                  "reliable heartbeat malformed");
    kind = Wire::kHeartbeat;
  }
  const bool intact =
      message.data[0] == wire_checksum(message.from, self,
                                       message.data.data() + 1,
                                       message.data.size() - 1);
  return intact ? kind : Wire::kCorrupt;
}

void unframe_into(Message& original, const Message& frame) {
  original.from = frame.from;
  original.tag = static_cast<std::int32_t>(frame.data[3]);
  original.data.assign(frame.data.begin() +
                           static_cast<std::ptrdiff_t>(kHeaderWords),
                       frame.data.end());
}

/// Deterministic per-(self, peer, attempt) jitter bits: backoff pacing must
/// desynchronize neighbors without touching any RNG stream the algorithms
/// own.
std::uint64_t jitter_hash(NodeId self, NodeId peer, std::size_t attempt) {
  std::uint64_t state = (static_cast<std::uint64_t>(self) << 32) ^
                        static_cast<std::uint64_t>(peer) ^
                        (static_cast<std::uint64_t>(attempt) *
                         0x9e3779b97f4a7c15ULL);
  return splitmix64(state);
}

/// Worst-case failed deliveries on ONE directed channel: the i.i.d.+PRR cap
/// plus the per-edge burst budget when bursts are armed.
std::size_t one_way_budget(const FaultSpec& spec) {
  std::size_t budget = static_cast<std::size_t>(spec.max_losses_per_channel);
  if (spec.burst_rate > 0.0)
    budget += static_cast<std::size_t>(spec.burst_cap);
  return budget;
}

/// Worst-case rounds/time a channel can sit inside down windows: one churn
/// window plus every region disc that can cover the edge.
std::size_t stall_bound(const FaultSpec& spec) {
  std::size_t stall = 0;
  if (spec.link_down_fraction > 0.0)
    stall += static_cast<std::size_t>(spec.link_down_duration) + 2;
  if (spec.region_count > 0)
    stall += static_cast<std::size_t>(
                 static_cast<double>(spec.region_count) *
                 spec.region_duration) +
             2;
  return stall;
}

}  // namespace

namespace reliable_detail {

DetectorBudgets detector_budgets(const FaultSpec& spec, double probe_interval) {
  // A live peer acks every delivered frame within one retransmit interval,
  // so failed attempts past the *round-trip* loss budget cannot be
  // explained by bounded loss alone — only by a down window or a dead peer.
  // Probing must outlast the longest legitimate outage plus the loss budget
  // before the verdict hardens to dead.
  const std::size_t round_trip = 2 * one_way_budget(spec);
  return {round_trip + 4,
          static_cast<std::size_t>(static_cast<double>(stall_bound(spec)) /
                                   probe_interval) +
              round_trip + 4};
}

// Reuses the destination's buffer: a recycled Message (the async wrapper's
// pool) keeps its spilled capacity, so it frames or unframes without
// touching the allocator.
void make_frame_into(Message& frame, NodeId from, NodeId to, std::int64_t seq,
                     std::int64_t inner_round, const Message& original) {
  frame.from = from;
  frame.tag = kReliableFrameTag;
  frame.data.clear();
  frame.data.reserve(kHeaderWords + original.data.size());
  frame.data.push_back(0);  // checksum slot
  frame.data.push_back(seq);
  frame.data.push_back(inner_round);
  frame.data.push_back(original.tag);
  frame.data.insert(frame.data.end(), original.data.begin(),
                    original.data.end());
  frame.data[0] =
      wire_checksum(from, to, frame.data.data() + 1, frame.data.size() - 1);
}

Message make_control(std::int32_t tag, NodeId from, NodeId to,
                     std::int64_t cumulative) {
  Message control;
  control.from = from;
  control.tag = tag;
  control.data = {0, cumulative};
  control.data[0] = wire_checksum(from, to, control.data.data() + 1, 1);
  return control;
}

}  // namespace reliable_detail

using reliable_detail::make_control;

// ---------------------------------------------------------------------------
// Synchronous wrapper: round dilation.
// ---------------------------------------------------------------------------

namespace {

// Adaptive sync pacing: retransmit intervals grow 2 -> 4 outer rounds plus
// one hashed jitter round, so the worst spacing between attempts is 5.
constexpr std::size_t kSyncBaseInterval = 2;
constexpr std::size_t kSyncMaxInterval = 4;
constexpr std::size_t kSyncWorstSpacing = kSyncMaxInterval + 1;

}  // namespace

/// The sync adapter: outer rounds are the clock, every send goes out this
/// round, and the round's sweep polls each peer's deadline.
struct ReliableSyncSet::Link {
  // Heartbeat cadence, in outer rounds, while a peer is suspected.
  static constexpr std::size_t kProbeInterval = 4;

  SyncContext& ctx;
  std::int64_t inner_round;  // the inner round captured sends belong to

  static Message take_frame() { return Message{}; }
  static void release(Message&&) {}
  static FrameExt stamp(bool) { return {}; }
  void transmit(Peer& state) {
    if (state.pending.size() == 1)
      state.ext.next_retx = ctx.round() + kSyncBaseInterval;
    ctx.send(state.peer, state.pending.back().frame);
  }
  void resend(const Peer& state, const Transport::Frame& frame) {
    ctx.send(state.peer, frame.frame);
  }
  static void on_progress(Peer&, std::int64_t) {}
  static void on_timeout(Peer&) {}
  std::size_t backoff(const Peer& state) const {
    const std::size_t shift = std::min<std::size_t>(state.fails / 2, 4);
    const std::size_t base =
        std::min<std::size_t>(kSyncBaseInterval << shift, kSyncMaxInterval);
    return base + (jitter_hash(ctx.self(), state.peer, state.fails) & 1);
  }
  void rearm(Peer& state, std::size_t delay) {
    state.ext.next_retx = ctx.round() + delay;
  }
  // The resumed frames go out on this round's sweep.
  void on_retrust(Transport&, Peer& state) {
    state.ext.next_retx = ctx.round();
  }
};

std::size_t ReliableSyncSet::round_dilation(const FaultSpec& spec) {
  const std::size_t one_way = one_way_budget(spec);
  const std::size_t stall = stall_bound(spec);
  // Adaptive pacing spaces attempts up to kSyncWorstSpacing rounds apart,
  // and each failed attempt still consumes frame-channel loss budget, so
  // delivery needs at most kSyncWorstSpacing*(one_way+1) rounds plus
  // margin. Under churn/outage plans one suspect/probe/retrust cycle can
  // additionally shelve a frame: the stall itself, plus a probe phase in
  // which every heartbeat or its reply may burn remaining round-trip loss
  // budget at the probe cadence. Loss-only plans can never reach
  // kSuspected (the suspicion threshold exceeds the whole round-trip loss
  // budget), so they pay no detector term.
  std::size_t dilation = kSyncWorstSpacing * (one_way + 1) + 12;
  if (stall > 0)
    dilation += stall + Link::kProbeInterval * (2 * one_way + 2) + 8;
  dilation += dilation % 2;  // keep the window even
  return dilation;
}

ReliableSyncSet::ReliableSyncSet(SyncProgramSet& inner, const FaultSpec& spec)
    : inner_(inner),
      dilation_(round_dilation(spec)),
      nodes_(inner.size(),
             Node{Transport(spec, static_cast<double>(Link::kProbeInterval)),
                  {}}) {}

void ReliableSyncSet::handle_frame(Node& node, Link& link,
                                   const Message& message) {
  Peer& state = node.transport.peer(message.from);
  node.transport.heard(link, state);
  if (std::find(node.ack_due.begin(), node.ack_due.end(), message.from) ==
      node.ack_due.end())
    node.ack_due.push_back(message.from);
  const std::int64_t seq = message.data[1];
  if (seq <= state.received) return;      // duplicate: just re-ack
  if (seq > state.received + 1) return;   // gap: go-back-N will resend
  state.received = seq;
  BufferedFrame& buffered =
      state.ext.buffered.emplace_back(BufferedFrame{seq, message.data[2], {}});
  unframe_into(buffered.original, message);
}

void ReliableSyncSet::on_round(NodeId v, SyncContext& ctx,
                               const SyncInbox& inbox) {
  Node& node = nodes_[v];
  const std::size_t round = ctx.round();
  Link link{ctx, static_cast<std::int64_t>(round / dilation_)};
  node.ack_due.clear();
  for (const Message& message : inbox) {
    switch (check_wire(v, message)) {
      case Wire::kCorrupt:
        break;
      case Wire::kFrame:
        handle_frame(node, link, message);
        break;
      case Wire::kAck:
        node.transport.absorb_ack(link, message.from, message.data[1]);
        break;
      case Wire::kHeartbeat:
        // A heartbeat is an ack that demands an answer: absorb its
        // cumulative ack, then queue a reply so the prober hears us.
        node.transport.absorb_ack(link, message.from, message.data[1]);
        if (std::find(node.ack_due.begin(), node.ack_due.end(),
                      message.from) == node.ack_due.end())
          node.ack_due.push_back(message.from);
        break;
    }
  }
  for (NodeId peer : node.ack_due)
    ctx.send(peer, make_control(kReliableAckTag, v, peer,
                                node.transport.peer(peer).received));

  for (Peer& state : node.transport.peers())
    if (round >= state.ext.next_retx) node.transport.on_due(link, state);

  // Window boundary: assemble the previous inner round's inbox and run the
  // wrapped program one round.
  if (round % dilation_ != 0) return;
  std::vector<Message> assembled;
  for (Peer& state : node.transport.peers()) {
    for (BufferedFrame& frame : state.ext.buffered) {
      FDLSP_REQUIRE(frame.inner_round + 1 == link.inner_round,
                    "late frame: reliable dilation window violated");
      assembled.push_back(std::move(frame.original));
    }
    state.ext.buffered.clear();
  }
  // Match the engine's native semantics: a finished program runs again only
  // when mail arrives for it.
  if (inner_.finished(v) && assembled.empty()) return;
  const SyncCaptureSink capture = [&node, &link](NodeId to,
                                                 const Message& message) {
    node.transport.capture(link, to, message);
  };
  SyncContext inner_ctx = ctx.reframed(round / dilation_, &capture);
  inner_.on_round(v, inner_ctx, SyncInbox(assembled));
}

bool ReliableSyncSet::ready_for_phase_advance(NodeId v) const {
  // The engine's barrier promises "no messages in flight"; at this layer
  // that means no unacked or shelved outbound frames and no buffered
  // inbound frames the wrapped program has not consumed yet.
  return inner_.ready_for_phase_advance(v) && nodes_[v].transport.idle();
}

void ReliableSyncSet::on_phase(NodeId v, std::size_t new_phase) {
  inner_.on_phase(v, new_phase);
}

bool ReliableSyncSet::finished(NodeId v) const {
  return inner_.finished(v) && nodes_[v].transport.idle();
}

// ---------------------------------------------------------------------------
// Asynchronous wrapper: timer retransmit.
// ---------------------------------------------------------------------------

namespace {

/// Base retransmission period in simulated time. Delays are at most one
/// unit, so one period covers a frame and its ack round trip; the adaptive
/// RTO never drops below this (an earlier timer would count phantom
/// failures against live peers).
constexpr double kRetransmitPeriod = 2.0;
/// Adaptive RTO clamp before backoff, and the hard ceiling after it.
constexpr double kMaxBaseRto = 6.0;
constexpr double kMaxRto = 8.0;

std::int64_t peer_cookie(NodeId peer) {
  return -static_cast<std::int64_t>(peer) - 1;
}

NodeId cookie_peer(std::int64_t cookie) {
  return static_cast<NodeId>(-(cookie + 1));
}

}  // namespace

/// The async adapter: simulated time is the clock, frames live in pooled
/// buffers, and a peer's deadline is an engine timer.
struct ReliableAsyncProgram::Link {
  // Heartbeat cadence, in simulated time, while a peer is suspected.
  static constexpr double kProbeInterval = 4.0;

  ReliableAsyncProgram& wrapper;
  AsyncContext& ctx;
  static constexpr std::int64_t inner_round = 0;  // no rounds to carry

  Message take_frame() { return wrapper.take_frame(); }
  void release(Message&& frame) { wrapper.recycle_frame(std::move(frame)); }
  // A parked frame waits, so (Karn's rule) its ack must not be an RTT
  // sample.
  FrameExt stamp(bool parked) const { return FrameExt{ctx.now(), parked}; }
  // The wire copy goes straight from the pending list's pooled buffer into
  // the engine's event slab.
  void transmit(Peer& state) {
    ctx.send_copy(state.peer, state.pending.back().frame);
    wrapper.arm_timer(ctx, state, retransmit_interval(ctx, state));
  }
  void resend(const Peer& state, Transport::Frame& frame) {
    frame.ext.retransmitted = true;
    ctx.send_copy(state.peer, frame.frame);
  }
  // RTT sample from the newest frame this ack covers, unless it was ever
  // retransmitted (Karn's rule: the sample would be ambiguous). Progress
  // also decays the loss estimate.
  void on_progress(Peer& state, std::int64_t cumulative) const {
    const Transport::Frame* newest = nullptr;
    for (const Transport::Frame& frame : state.pending)
      if (frame.seq <= cumulative) newest = &frame;
    if (newest != nullptr && !newest->ext.retransmitted) {
      const double sample = ctx.now() - newest->ext.sent_at;
      state.ext.srtt = state.ext.srtt > 0.0
                           ? state.ext.srtt + (sample - state.ext.srtt) * 0.125
                           : sample;
    }
    state.ext.loss_hat *= 0.75;
  }
  // Each failed attempt nudges the loss estimate up; acked progress decays
  // it again, so the RTO tracks the channel's recent behavior.
  static void on_timeout(Peer& state) {
    state.ext.loss_hat += (1.0 - state.ext.loss_hat) * 0.25;
  }
  double backoff(const Peer& state) const {
    return retransmit_interval(ctx, state);
  }
  void rearm(Peer& state, double delay) {
    wrapper.arm_timer(ctx, state, delay);
  }
  // Resume shelved traffic immediately.
  void on_retrust(Transport& transport, Peer& state) {
    if (state.pending.empty()) return;
    transport.resend_pending(*this, state);
    wrapper.arm_timer(ctx, state, retransmit_interval(ctx, state));
  }
};

ReliableAsyncProgram::ReliableAsyncProgram(std::unique_ptr<AsyncProgram> inner,
                                           const FaultSpec& spec)
    : inner_(std::move(inner)), transport_(spec, Link::kProbeInterval) {
  FDLSP_REQUIRE(inner_ != nullptr, "reliable wrapper needs a program");
}

// fdlsp-lint: hot — per-frame steady-state path, no allocator traffic
Message ReliableAsyncProgram::take_frame() {
  if (frame_pool_.empty()) return Message{};
  Message frame = std::move(frame_pool_.back());
  frame_pool_.pop_back();
  return frame;
}

// fdlsp-lint: hot — per-ack steady-state path, no allocator traffic
void ReliableAsyncProgram::recycle_frame(Message&& frame) {
  // The pool never outgrows the peak number of simultaneously pending
  // frames, so this push_back settles after the first congestion spike.
  frame_pool_.push_back(std::move(frame));
}

void ReliableAsyncProgram::arm_timer(AsyncContext& ctx, Peer& state,
                                     double delay) {
  if (state.ext.timer_armed) return;
  state.ext.timer_armed = true;
  ctx.set_timer(delay, peer_cookie(state.peer));
}

double ReliableAsyncProgram::retransmit_interval(const AsyncContext& ctx,
                                                 const Peer& state) {
  // Adaptive RTO: smoothed RTT scaled by the EWMA loss estimate, clamped,
  // then doubled every other failed attempt up to the hard ceiling, plus a
  // deterministic fractional jitter so neighbors never retransmit in
  // lockstep.
  const double srtt =
      state.ext.srtt > 0.0 ? state.ext.srtt : kRetransmitPeriod;
  double base = srtt * (1.0 + 3.0 * state.ext.loss_hat);
  base = std::min(std::max(base, kRetransmitPeriod), kMaxBaseRto);
  const std::size_t shift = std::min<std::size_t>(state.fails / 2, 2);
  double rto = std::min(base * static_cast<double>(std::size_t{1} << shift),
                        kMaxRto);
  const std::uint64_t h = jitter_hash(ctx.self(), state.peer, state.fails);
  rto += 0.5 * (static_cast<double>(h >> 11) * 0x1.0p-53);
  return rto;
}

void ReliableAsyncProgram::on_start(AsyncContext& ctx) {
  Link link{*this, ctx};
  const AsyncSendSink sink = [this, &link](NodeId to, const Message& message) {
    transport_.capture(link, to, message);
  };
  AsyncContext inner_ctx = ctx.reframed(&sink);
  inner_->on_start(inner_ctx);
}

// fdlsp-lint: hot — per-delivery steady-state path, no allocator traffic
void ReliableAsyncProgram::deliver_in_order(Link& link, NodeId peer,
                                            Message& original) {
  const AsyncSendSink sink = [this, &link](NodeId to, const Message& message) {
    transport_.capture(link, to, message);
  };
  AsyncContext inner_ctx = link.ctx.reframed(&sink);
  inner_->on_message(inner_ctx, original);
  // The inner handler may have sent to new peers, growing the peer table
  // and invalidating references — re-resolve the state every iteration.
  for (;;) {
    Peer& fresh = transport_.peer(peer);
    std::vector<ReorderedFrame>& reordered = fresh.ext.reordered;
    if (reordered.empty() || reordered.front().seq != fresh.received + 1)
      break;
    fresh.received = reordered.front().seq;
    Message next = std::move(reordered.front().original);
    reordered.erase(reordered.begin());
    inner_->on_message(inner_ctx, next);
    // The buffer came out of the pool when the frame was held out of order
    // (see handle_frame); hand it back for the next frame.
    recycle_frame(std::move(next));
  }
}

void ReliableAsyncProgram::handle_frame(Link& link, const Message& message) {
  const NodeId peer = message.from;
  const std::int64_t seq = message.data[1];
  bool deliver = false;
  {
    Peer& state = transport_.peer(peer);
    transport_.heard(link, state);
    if (seq == state.received + 1) {
      state.received = seq;
      unframe_into(unframe_scratch_, message);
      deliver = true;
    } else if (seq > state.received + 1) {
      // Out of order: hold until the gap fills (the sender retransmits the
      // missing frames). Idempotent under duplication. The held copy lives
      // in a pooled buffer, recycled after its in-order delivery.
      std::vector<ReorderedFrame>& reordered = state.ext.reordered;
      auto it = std::lower_bound(
          reordered.begin(), reordered.end(), seq,
          [](const ReorderedFrame& frame, std::int64_t id) {
            return frame.seq < id;
          });
      if (it == reordered.end() || it->seq != seq) {
        Message held = take_frame();
        unframe_into(held, message);
        reordered.insert(it, ReorderedFrame{seq, std::move(held)});
      }
    }
    // seq <= received: duplicate — fall through and re-ack.
  }
  if (deliver) deliver_in_order(link, peer, unframe_scratch_);
  link.ctx.send(peer, make_control(kReliableAckTag, link.ctx.self(), peer,
                                   transport_.peer(peer).received));
}

void ReliableAsyncProgram::on_message(AsyncContext& ctx, Message& message) {
  Link link{*this, ctx};
  switch (check_wire(ctx.self(), message)) {
    case Wire::kCorrupt:
      return;
    case Wire::kFrame:
      handle_frame(link, message);
      return;
    case Wire::kAck:
      transport_.absorb_ack(link, message.from, message.data[1]);
      return;
    case Wire::kHeartbeat:
      // A heartbeat is an ack that demands an answer.
      transport_.absorb_ack(link, message.from, message.data[1]);
      ctx.send(message.from,
               make_control(kReliableAckTag, ctx.self(), message.from,
                            transport_.peer(message.from).received));
      return;
  }
}

void ReliableAsyncProgram::on_timer(AsyncContext& ctx, std::int64_t cookie) {
  Link link{*this, ctx};
  if (cookie >= 0) {
    // Inner-program timer: forward untouched (cookies < 0 are ours).
    const AsyncSendSink sink = [this, &link](NodeId to,
                                             const Message& message) {
      transport_.capture(link, to, message);
    };
    AsyncContext inner_ctx = ctx.reframed(&sink);
    inner_->on_timer(inner_ctx, cookie);
    return;
  }
  Peer& state = transport_.peer(cookie_peer(cookie));
  state.ext.timer_armed = false;
  transport_.on_due(link, state);
}

bool ReliableAsyncProgram::finished() const {
  return inner_->finished() && transport_.idle();
}

}  // namespace fdlsp
