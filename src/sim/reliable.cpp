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

/// True iff the stored checksum matches the payload.
bool checksum_ok(NodeId from, NodeId to, const Message& message) {
  return message.data[0] ==
         wire_checksum(from, to, message.data.data() + 1,
                       message.data.size() - 1);
}

Message make_frame(NodeId from, NodeId to, std::int64_t seq,
                   std::int64_t inner_round, const Message& original) {
  Message frame;
  frame.from = from;
  frame.tag = kReliableFrameTag;
  frame.data.reserve(kHeaderWords + original.data.size());
  frame.data.push_back(0);  // checksum slot
  frame.data.push_back(seq);
  frame.data.push_back(inner_round);
  frame.data.push_back(original.tag);
  frame.data.insert(frame.data.end(), original.data.begin(),
                    original.data.end());
  frame.data[0] =
      wire_checksum(from, to, frame.data.data() + 1, frame.data.size() - 1);
  return frame;
}

Message unframe(const Message& frame) {
  Message original;
  original.from = frame.from;
  original.tag = static_cast<std::int32_t>(frame.data[3]);
  original.data.assign(frame.data.begin() +
                           static_cast<std::ptrdiff_t>(kHeaderWords),
                       frame.data.end());
  return original;
}

/// Buffer-reusing variants for the async wrapper's recycling pool: the
/// destination's spilled capacity survives, so a recycled Message frames or
/// unframes without touching the allocator.
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

void unframe_into(Message& original, const Message& frame) {
  original.from = frame.from;
  original.tag = static_cast<std::int32_t>(frame.data[3]);
  original.data.assign(frame.data.begin() +
                           static_cast<std::ptrdiff_t>(kHeaderWords),
                       frame.data.end());
}

Message make_ack(NodeId from, NodeId to, std::int64_t cumulative) {
  Message ack;
  ack.from = from;
  ack.tag = kReliableAckTag;
  ack.data = {0, cumulative};
  ack.data[0] = wire_checksum(from, to, ack.data.data() + 1, 1);
  return ack;
}

Message make_heartbeat(NodeId from, NodeId to, std::int64_t cumulative) {
  Message probe;
  probe.from = from;
  probe.tag = kReliableHeartbeatTag;
  probe.data = {0, cumulative};
  probe.data[0] = wire_checksum(from, to, probe.data.data() + 1, 1);
  return probe;
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

// ---------------------------------------------------------------------------
// Synchronous wrapper: round dilation.
// ---------------------------------------------------------------------------

namespace {

// Adaptive sync pacing: retransmit intervals grow 2 -> 4 outer rounds plus
// one hashed jitter round, so the worst spacing between attempts is 5.
constexpr std::size_t kSyncBaseInterval = 2;
constexpr std::size_t kSyncMaxInterval = 4;
constexpr std::size_t kSyncWorstSpacing = kSyncMaxInterval + 1;
// Heartbeat cadence while a peer is suspected.
constexpr std::size_t kSyncProbeInterval = 4;

}  // namespace

std::size_t ReliableSyncProgram::round_dilation(const FaultSpec& spec) {
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
    dilation += stall + kSyncProbeInterval * (2 * one_way + 2) + 8;
  dilation += dilation % 2;  // keep the window even
  return dilation;
}

ReliableSyncProgram::ReliableSyncProgram(std::unique_ptr<SyncProgram> inner,
                                         const FaultSpec& spec)
    : inner_(std::move(inner)), dilation_(round_dilation(spec)) {
  FDLSP_REQUIRE(inner_ != nullptr, "reliable wrapper needs a program");
  // A live peer acks every delivered frame within two rounds, so failed
  // attempts past the *round-trip* loss budget cannot be explained by
  // bounded loss alone — only by a down window or a dead peer. Probing must
  // outlast the longest legitimate outage plus the loss budget before the
  // verdict hardens to dead.
  const std::size_t round_trip = 2 * one_way_budget(spec);
  suspect_after_ = round_trip + 4;
  probe_budget_ = stall_bound(spec) / kSyncProbeInterval + round_trip + 4;
}

ReliableSyncProgram::PeerState& ReliableSyncProgram::peer_state(NodeId peer) {
  auto it = std::lower_bound(
      peers_.begin(), peers_.end(), peer,
      [](const PeerState& state, NodeId id) { return state.peer < id; });
  if (it == peers_.end() || it->peer != peer) {
    it = peers_.insert(it, PeerState{});
    it->peer = peer;
  }
  return *it;
}

bool ReliableSyncProgram::channels_idle() const {
  for (const PeerState& state : peers_)
    if (!state.pending.empty() || !state.parked.empty() ||
        !state.buffered.empty())
      return false;
  return true;
}

void ReliableSyncProgram::heard(PeerState& state, std::size_t round) {
  state.fails = 0;
  if (state.health != PeerHealth::kSuspected) return;
  // Recovery: the peer answered a probe (or simply spoke) — re-trust it and
  // resume the parked traffic on this round's sweep.
  state.health = PeerHealth::kTrusted;
  ++stats_.retrusts;
  state.pending = std::move(state.parked);
  state.parked.clear();
  state.next_retx = round;
}

void ReliableSyncProgram::handle_frame(SyncContext& ctx,
                                       const Message& message) {
  FDLSP_REQUIRE(message.data.size() >= kHeaderWords,
                "reliable frame too short");
  if (!checksum_ok(message.from, ctx.self(), message)) return;  // corrupted
  PeerState& state = peer_state(message.from);
  heard(state, ctx.round());
  if (std::find(ack_due_.begin(), ack_due_.end(), message.from) ==
      ack_due_.end())
    ack_due_.push_back(message.from);
  const std::int64_t seq = message.data[1];
  if (seq <= state.received) return;      // duplicate: just re-ack
  if (seq > state.received + 1) return;   // gap: go-back-N will resend
  state.received = seq;
  state.buffered.push_back(BufferedFrame{seq, message.data[2],
                                         unframe(message)});
}

void ReliableSyncProgram::handle_ack(const Message& message,
                                     std::size_t round) {
  // Size and checksum already verified at the call site.
  PeerState& state = peer_state(message.from);
  heard(state, round);
  const std::int64_t cumulative = message.data[1];
  if (cumulative <= state.acked) return;
  state.acked = cumulative;
  std::erase_if(state.pending, [cumulative](const PendingFrame& frame) {
    return frame.seq <= cumulative;
  });
}

void ReliableSyncProgram::capture_send(SyncContext& ctx, NodeId to,
                                       Message message) {
  PeerState& state = peer_state(to);
  if (state.health == PeerHealth::kDead) {
    // The detector already declared this peer dead; the inner program's
    // message can never be delivered, so it is dropped like the rest.
    ++stats_.abandoned;
    ++state.next_seq;
    return;
  }
  Message frame = make_frame(ctx.self(), to, state.next_seq,
                             static_cast<std::int64_t>(next_inner_round_),
                             message);
  if (state.health == PeerHealth::kSuspected) {
    state.parked.push_back(PendingFrame{state.next_seq, frame});
    ++state.next_seq;
    return;
  }
  if (state.pending.empty())
    state.next_retx = ctx.round() + kSyncBaseInterval;
  state.pending.push_back(PendingFrame{state.next_seq, frame});
  ++state.next_seq;
  ctx.send(to, std::move(frame));
}

std::size_t ReliableSyncProgram::backoff_interval(const SyncContext& ctx,
                                                  const PeerState& state) {
  const std::size_t shift = std::min<std::size_t>(state.fails / 2, 4);
  const std::size_t base =
      std::min<std::size_t>(kSyncBaseInterval << shift, kSyncMaxInterval);
  const std::size_t jitter =
      jitter_hash(ctx.self(), state.peer, state.fails) & 1;
  const std::size_t interval = base + jitter;
  if (static_cast<double>(interval) > stats_.max_backoff)
    stats_.max_backoff = static_cast<double>(interval);
  return interval;
}

void ReliableSyncProgram::sweep(SyncContext& ctx, std::size_t round) {
  for (PeerState& state : peers_) {
    if (state.health == PeerHealth::kDead) continue;
    if (state.health == PeerHealth::kSuspected) {
      if (round < state.next_retx) continue;
      if (state.probes_sent >= probe_budget_) {
        // Probing outlasted every finite outage the spec allows plus the
        // loss budget — the peer is dead. Drop its traffic so the run can
        // quiesce; the inner algorithms degrade as under a crash.
        state.health = PeerHealth::kDead;
        stats_.abandoned += state.pending.size() + state.parked.size();
        state.pending.clear();
        state.parked.clear();
        continue;
      }
      ctx.send(state.peer,
               make_heartbeat(ctx.self(), state.peer, state.received));
      ++state.probes_sent;
      ++stats_.probes;
      state.next_retx = round + kSyncProbeInterval;
      continue;
    }
    if (state.pending.empty() || round < state.next_retx) continue;
    ++state.fails;
    if (state.fails > suspect_after_) {
      // Bounded loss alone cannot explain this much silence: suspect the
      // peer, shelve its data, and fall back to heartbeat probing.
      state.health = PeerHealth::kSuspected;
      ++stats_.suspicions;
      auto it = std::lower_bound(ever_suspected_.begin(),
                                 ever_suspected_.end(), state.peer);
      if (it == ever_suspected_.end() || *it != state.peer)
        ever_suspected_.insert(it, state.peer);
      state.parked = std::move(state.pending);
      state.pending.clear();
      state.probes_sent = 1;
      ctx.send(state.peer,
               make_heartbeat(ctx.self(), state.peer, state.received));
      ++stats_.probes;
      state.next_retx = round + kSyncProbeInterval;
      continue;
    }
    for (const PendingFrame& frame : state.pending) ctx.send(state.peer, frame.frame);
    stats_.retransmits += state.pending.size();
    state.next_retx = round + backoff_interval(ctx, state);
  }
}

void ReliableSyncProgram::on_round(SyncContext& ctx,
                                   std::span<const Message> inbox) {
  const std::size_t round = ctx.round();
  ack_due_.clear();
  for (const Message& message : inbox) {
    if (message.tag == kReliableFrameTag) {
      handle_frame(ctx, message);
    } else if (message.tag == kReliableAckTag) {
      FDLSP_REQUIRE(message.data.size() == kAckWords,
                    "reliable ack malformed");
      if (checksum_ok(message.from, ctx.self(), message))
        handle_ack(message, round);
    } else if (message.tag == kReliableHeartbeatTag) {
      FDLSP_REQUIRE(message.data.size() == kAckWords,
                    "reliable heartbeat malformed");
      if (!checksum_ok(message.from, ctx.self(), message)) continue;
      // A heartbeat is an ack that demands an answer: absorb its
      // cumulative ack, then queue a reply so the prober hears us.
      handle_ack(message, round);
      if (std::find(ack_due_.begin(), ack_due_.end(), message.from) ==
          ack_due_.end())
        ack_due_.push_back(message.from);
    } else {
      FDLSP_REQUIRE(false, "unexpected wire tag under reliable wrapper");
    }
  }
  for (NodeId peer : ack_due_)
    ctx.send(peer, make_ack(ctx.self(), peer, peer_state(peer).received));

  sweep(ctx, round);

  // Window boundary: assemble the previous inner round's inbox and run the
  // wrapped program one round.
  if (round % dilation_ != 0) return;
  next_inner_round_ = round / dilation_;
  std::vector<Message> assembled;
  for (PeerState& state : peers_) {
    for (BufferedFrame& frame : state.buffered) {
      FDLSP_REQUIRE(frame.inner_round + 1 ==
                        static_cast<std::int64_t>(next_inner_round_),
                    "late frame: reliable dilation window violated");
      assembled.push_back(std::move(frame.original));
    }
    state.buffered.clear();
  }
  // Match the engine's native semantics: a finished program runs again only
  // when mail arrives for it.
  if (inner_->finished() && assembled.empty()) return;
  const SyncSendSink sink = [this, &ctx](NodeId to, Message message) {
    capture_send(ctx, to, std::move(message));
  };
  SyncContext inner_ctx = ctx.reframed(next_inner_round_, &sink);
  inner_->on_round(inner_ctx, assembled);
}

bool ReliableSyncProgram::ready_for_phase_advance() const {
  // The engine's barrier promises "no messages in flight"; at this layer
  // that means no unacked or shelved outbound frames and no buffered
  // inbound frames the wrapped program has not consumed yet.
  return inner_->ready_for_phase_advance() && channels_idle();
}

void ReliableSyncProgram::on_phase(std::size_t new_phase) {
  inner_->on_phase(new_phase);
}

bool ReliableSyncProgram::finished() const {
  return inner_->finished() && channels_idle();
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
/// Heartbeat cadence while a peer is suspected.
constexpr double kProbePeriod = 4.0;

std::int64_t peer_cookie(NodeId peer) {
  return -static_cast<std::int64_t>(peer) - 1;
}

NodeId cookie_peer(std::int64_t cookie) {
  return static_cast<NodeId>(-(cookie + 1));
}

}  // namespace

ReliableAsyncProgram::ReliableAsyncProgram(std::unique_ptr<AsyncProgram> inner,
                                           const FaultSpec& spec)
    : inner_(std::move(inner)) {
  FDLSP_REQUIRE(inner_ != nullptr, "reliable wrapper needs a program");
  const std::size_t round_trip = 2 * one_way_budget(spec);
  // A live peer acks within one RTO unless loss burned budget, so
  // suspicion needs more silence than the round-trip budget explains; the
  // probe budget additionally outlasts every finite outage window.
  suspect_after_ = round_trip + 4;
  probe_budget_ = static_cast<std::size_t>(
                      static_cast<double>(stall_bound(spec)) / kProbePeriod) +
                  round_trip + 4;
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

ReliableAsyncProgram::PeerState& ReliableAsyncProgram::peer_state(
    NodeId peer) {
  auto it = std::lower_bound(
      peers_.begin(), peers_.end(), peer,
      [](const PeerState& state, NodeId id) { return state.peer < id; });
  if (it == peers_.end() || it->peer != peer) {
    it = peers_.insert(it, PeerState{});
    it->peer = peer;
  }
  return *it;
}

void ReliableAsyncProgram::arm_timer(AsyncContext& ctx, PeerState& state,
                                     double delay) {
  if (state.timer_armed) return;
  state.timer_armed = true;
  ctx.set_timer(delay, peer_cookie(state.peer));
}

double ReliableAsyncProgram::retransmit_interval(const AsyncContext& ctx,
                                                 const PeerState& state) {
  // Adaptive RTO: smoothed RTT scaled by the EWMA loss estimate, clamped,
  // then doubled every other failed attempt up to the hard ceiling, plus a
  // deterministic fractional jitter so neighbors never retransmit in
  // lockstep.
  const double srtt = state.srtt > 0.0 ? state.srtt : kRetransmitPeriod;
  double base = srtt * (1.0 + 3.0 * state.loss_hat);
  base = std::min(std::max(base, kRetransmitPeriod), kMaxBaseRto);
  const std::size_t shift = std::min<std::size_t>(state.attempts / 2, 2);
  double rto = std::min(base * static_cast<double>(std::size_t{1} << shift),
                        kMaxRto);
  const std::uint64_t h = jitter_hash(ctx.self(), state.peer, state.attempts);
  rto += 0.5 * (static_cast<double>(h >> 11) * 0x1.0p-53);
  return rto;
}

void ReliableAsyncProgram::heard(AsyncContext& ctx, PeerState& state) {
  state.attempts = 0;
  if (state.health != PeerHealth::kSuspected) return;
  state.health = PeerHealth::kTrusted;
  ++stats_.retrusts;
  state.pending = std::move(state.parked);
  state.parked.clear();
  if (state.pending.empty()) return;
  // Resume shelved traffic immediately; Karn's rule applies (these frames
  // waited, so their eventual acks must not pollute the RTT estimate).
  for (PendingFrame& frame : state.pending) {
    frame.retransmitted = true;
    ctx.send_copy(state.peer, frame.frame);
  }
  stats_.retransmits += state.pending.size();
  arm_timer(ctx, state, retransmit_interval(ctx, state));
}

// fdlsp-lint: hot — per-inner-send steady-state path, no allocator traffic
void ReliableAsyncProgram::capture_send(AsyncContext& ctx, NodeId to,
                                        const Message& message) {
  PeerState& state = peer_state(to);
  if (state.health == PeerHealth::kDead) {
    ++stats_.abandoned;
    ++state.next_seq;
    return;
  }
  // Frame into a pooled buffer held by the pending list itself; the wire
  // copy below goes straight from there into the engine's event slab, so
  // the whole send path reuses recycled capacity end to end.
  Message frame = take_frame();
  make_frame_into(frame, ctx.self(), to, state.next_seq, 0, message);
  if (state.health == PeerHealth::kSuspected) {
    state.parked.push_back(
        PendingFrame{state.next_seq, std::move(frame), ctx.now(), true});
    ++state.next_seq;
    return;
  }
  state.pending.push_back(
      PendingFrame{state.next_seq, std::move(frame), ctx.now(), false});
  ++state.next_seq;
  ctx.send_copy(to, state.pending.back().frame);
  arm_timer(ctx, state, retransmit_interval(ctx, state));
}

void ReliableAsyncProgram::on_start(AsyncContext& ctx) {
  const AsyncSendSink sink = [this, &ctx](NodeId to, const Message& message) {
    capture_send(ctx, to, message);
  };
  AsyncContext inner_ctx = ctx.reframed(&sink);
  inner_->on_start(inner_ctx);
}

// fdlsp-lint: hot — per-delivery steady-state path, no allocator traffic
void ReliableAsyncProgram::deliver_in_order(AsyncContext& ctx, PeerState& state,
                                            Message& original) {
  const NodeId peer = state.peer;
  const AsyncSendSink sink = [this, &ctx](NodeId to, const Message& message) {
    capture_send(ctx, to, message);
  };
  AsyncContext inner_ctx = ctx.reframed(&sink);
  inner_->on_message(inner_ctx, original);
  // The inner handler may have sent to new peers, growing peers_ and
  // invalidating references — re-resolve the state every iteration.
  for (;;) {
    PeerState& fresh = peer_state(peer);
    if (fresh.reordered.empty() ||
        fresh.reordered.front().seq != fresh.received + 1)
      break;
    fresh.received = fresh.reordered.front().seq;
    Message next = std::move(fresh.reordered.front().original);
    fresh.reordered.erase(fresh.reordered.begin());
    inner_->on_message(inner_ctx, next);
    // The buffer came out of the pool when the frame was parked out of
    // order (see handle_frame); hand it back for the next frame.
    recycle_frame(std::move(next));
  }
}

void ReliableAsyncProgram::handle_frame(AsyncContext& ctx,
                                        const Message& message) {
  FDLSP_REQUIRE(message.data.size() >= kHeaderWords,
                "reliable frame too short");
  if (!checksum_ok(message.from, ctx.self(), message)) return;  // corrupted
  const NodeId peer = message.from;
  const std::int64_t seq = message.data[1];
  bool deliver = false;
  {
    PeerState& state = peer_state(peer);
    heard(ctx, state);
    if (seq == state.received + 1) {
      state.received = seq;
      unframe_into(unframe_scratch_, message);
      deliver = true;
    } else if (seq > state.received + 1) {
      // Out of order: hold until the gap fills (the sender retransmits the
      // missing frames). Idempotent under duplication. The held copy lives
      // in a pooled buffer, recycled after its in-order delivery.
      auto it = std::lower_bound(
          state.reordered.begin(), state.reordered.end(), seq,
          [](const ReorderedFrame& frame, std::int64_t id) {
            return frame.seq < id;
          });
      if (it == state.reordered.end() || it->seq != seq) {
        Message held = take_frame();
        unframe_into(held, message);
        state.reordered.insert(it, ReorderedFrame{seq, std::move(held)});
      }
    }
    // seq <= received: duplicate — fall through and re-ack.
  }
  if (deliver) deliver_in_order(ctx, peer_state(peer), unframe_scratch_);
  ctx.send(peer, make_ack(ctx.self(), peer, peer_state(peer).received));
}

void ReliableAsyncProgram::handle_ack(AsyncContext& ctx,
                                      const Message& message) {
  const std::int64_t cumulative = message.data[1];
  PeerState& state = peer_state(message.from);
  if (cumulative > state.acked) {
    state.acked = cumulative;
    // RTT sample from the newest frame this ack covers, unless it was ever
    // retransmitted (Karn's rule: the sample would be ambiguous). Progress
    // also decays the loss estimate.
    const PendingFrame* newest = nullptr;
    for (const PendingFrame& frame : state.pending)
      if (frame.seq <= cumulative) newest = &frame;
    if (newest != nullptr && !newest->retransmitted) {
      const double sample = ctx.now() - newest->sent_at;
      state.srtt = state.srtt > 0.0
                       ? state.srtt + (sample - state.srtt) * 0.125
                       : sample;
    }
    state.loss_hat *= 0.75;
    // Reclaim the acked frames' buffers before the erase destroys the
    // husks; pending is seq-ascending, so the acked prefix is contiguous.
    for (PendingFrame& frame : state.pending) {
      if (frame.seq > cumulative) break;
      recycle_frame(std::move(frame.frame));
    }
    std::erase_if(state.pending, [cumulative](const PendingFrame& frame) {
      return frame.seq <= cumulative;
    });
  }
  heard(ctx, state);  // any valid ack proves the peer is alive and hearing us
}

void ReliableAsyncProgram::on_message(AsyncContext& ctx, Message& message) {
  if (message.tag == kReliableAckTag) {
    FDLSP_REQUIRE(message.data.size() == kAckWords, "reliable ack malformed");
    if (checksum_ok(message.from, ctx.self(), message))
      handle_ack(ctx, message);
    return;
  }
  if (message.tag == kReliableHeartbeatTag) {
    FDLSP_REQUIRE(message.data.size() == kAckWords,
                  "reliable heartbeat malformed");
    if (!checksum_ok(message.from, ctx.self(), message)) return;
    // A heartbeat is an ack that demands an answer.
    handle_ack(ctx, message);
    ctx.send(message.from,
             make_ack(ctx.self(), message.from,
                      peer_state(message.from).received));
    return;
  }
  FDLSP_REQUIRE(message.tag == kReliableFrameTag,
                "unexpected wire tag under reliable wrapper");
  handle_frame(ctx, message);
}

void ReliableAsyncProgram::on_timer(AsyncContext& ctx, std::int64_t cookie) {
  if (cookie >= 0) {
    // Inner-program timer: forward untouched (cookies < 0 are ours).
    const AsyncSendSink sink = [this, &ctx](NodeId to,
                                            const Message& message) {
      capture_send(ctx, to, message);
    };
    AsyncContext inner_ctx = ctx.reframed(&sink);
    inner_->on_timer(inner_ctx, cookie);
    return;
  }
  const NodeId peer = cookie_peer(cookie);
  PeerState& state = peer_state(peer);
  state.timer_armed = false;
  if (state.health == PeerHealth::kDead) return;
  if (state.health == PeerHealth::kSuspected) {
    if (state.probes_sent >= probe_budget_) {
      // Probing outlasted every finite outage plus the loss budget — the
      // peer is dead. Drop its traffic so the run can quiesce.
      state.health = PeerHealth::kDead;
      stats_.abandoned += state.pending.size() + state.parked.size();
      state.pending.clear();
      state.parked.clear();
      return;
    }
    ctx.send(peer, make_heartbeat(ctx.self(), peer, state.received));
    ++state.probes_sent;
    ++stats_.probes;
    arm_timer(ctx, state, kProbePeriod);
    return;
  }
  if (state.pending.empty()) return;
  ++state.attempts;
  // Each failed attempt nudges the loss estimate up; acked progress decays
  // it again, so the RTO tracks the channel's recent behavior.
  state.loss_hat += (1.0 - state.loss_hat) * 0.25;
  if (state.attempts > suspect_after_) {
    state.health = PeerHealth::kSuspected;
    ++stats_.suspicions;
    auto it = std::lower_bound(ever_suspected_.begin(), ever_suspected_.end(),
                               peer);
    if (it == ever_suspected_.end() || *it != peer)
      ever_suspected_.insert(it, peer);
    state.parked = std::move(state.pending);
    state.pending.clear();
    state.probes_sent = 1;
    ctx.send(peer, make_heartbeat(ctx.self(), peer, state.received));
    ++stats_.probes;
    arm_timer(ctx, state, kProbePeriod);
    return;
  }
  for (PendingFrame& frame : state.pending) {
    frame.retransmitted = true;
    ctx.send_copy(peer, frame.frame);
  }
  stats_.retransmits += state.pending.size();
  const double rto = retransmit_interval(ctx, state);
  if (rto > stats_.max_backoff) stats_.max_backoff = rto;
  arm_timer(ctx, state, rto);
}

bool ReliableAsyncProgram::finished() const {
  if (!inner_->finished()) return false;
  for (const PeerState& state : peers_)
    if (!state.pending.empty() || !state.parked.empty() ||
        !state.reordered.empty())
      return false;
  return true;
}

}  // namespace fdlsp
