#include "sim/synchronizer.h"

#include <algorithm>
#include <cstdint>
#include <span>

#include "support/check.h"

namespace fdlsp {

// ---------------------------------------------------------------------------
// RoundSynchronizer

RoundSynchronizer::RoundSynchronizer(SyncProgramSet& set,
                                     std::size_t max_rounds)
    : set_(&set), n_(set.size()), max_rounds_(max_rounds) {
  decide_boundary();
}

void RoundSynchronizer::complete_round(std::size_t r, std::size_t sent) {
  FDLSP_REQUIRE(!stopped_ && decided_ && r == round_,
                "round completion outside the decided round");
  round_sent_ += sent;
  messages_ += sent;
  ++completions_;
  if (completions_ < n_) return;
  // Last completion of the round: everything sent this round is in flight
  // across the boundary, exactly like the sync engine's pending counter.
  completions_ = 0;
  pending_ = round_sent_;
  round_sent_ = 0;
  ++round_;
  decided_ = false;
  decide_boundary();
}

bool RoundSynchronizer::all_finished() const {
  for (std::size_t v = 0; v < n_; ++v)
    if (!set_->finished(static_cast<NodeId>(v))) return false;
  return true;
}

bool RoundSynchronizer::all_ready() const {
  for (std::size_t v = 0; v < n_; ++v)
    if (!set_->ready_for_phase_advance(static_cast<NodeId>(v))) return false;
  return true;
}

void RoundSynchronizer::decide_boundary() {
  // Mirrors the head of SyncEngine::run's round loop exactly, in the same
  // order: round cap, stop test, phase barrier (on_phase applied to every
  // node in ascending id order — it cannot send, so the barrier consumes
  // no communication round), then release the round.
  if (round_ >= max_rounds_) {
    stopped_ = true;
    completed_ = all_finished();
    return;
  }
  if (all_finished()) {
    stopped_ = true;
    completed_ = true;
    return;
  }
  if (pending_ == 0 && all_ready()) {
    ++phase_;
    ++phases_;
    for (std::size_t v = 0; v < n_; ++v)
      set_->on_phase(static_cast<NodeId>(v), phase_);
    if (all_finished()) {
      stopped_ = true;
      completed_ = true;
      return;
    }
  }
  decided_ = true;
}

SyncMetrics RoundSynchronizer::metrics() const {
  SyncMetrics metrics;
  metrics.rounds = round_;
  metrics.messages = messages_;
  metrics.phases = phases_;
  metrics.completed = completed_;
  return metrics;
}

// ---------------------------------------------------------------------------
// SyncOverAsyncProgram

SyncOverAsyncProgram::SyncOverAsyncProgram(const Graph& graph,
                                           SyncProgramSet& set, NodeId self,
                                           RoundSynchronizer& coordinator)
    : set_(&set),
      coordinator_(&coordinator),
      self_(self),
      neighbors_(graph.neighbors(self)) {
  const std::size_t degree = neighbors_.size();
  cur_.resize(degree);
  ahead_.resize(degree);
  cur_received_.assign(degree, 0);
  ahead_received_.assign(degree, 0);
  out_frames_.resize(degree);
  rev_index_.resize(degree);
  for (std::size_t idx = 0; idx < degree; ++idx) {
    const std::span<const NeighborEntry> theirs =
        graph.neighbors(neighbors_[idx].to);
    const auto* it = std::lower_bound(
        theirs.data(), theirs.data() + theirs.size(), self_,
        [](const NeighborEntry& entry, NodeId id) { return entry.to < id; });
    FDLSP_REQUIRE(it != theirs.data() + theirs.size() && it->to == self_,
                  "adjacency lists are not symmetric");
    rev_index_[idx] = static_cast<std::uint32_t>(it - theirs.data());
  }
  capture_sink_ = [this](NodeId to, const Message& message) {
    capture(to, message);
  };
}

void SyncOverAsyncProgram::on_start(AsyncContext& ctx) { drive(ctx); }

// fdlsp-lint: hot — per-frame steady-state path, no allocator traffic
void SyncOverAsyncProgram::on_message(AsyncContext& ctx, Message& message) {
  if (coordinator_->stopped()) return;  // frames in flight past the stop
  FDLSP_REQUIRE(message.tag == kSyncFrameTag,
                "synchronizer received a non-frame message");
  FDLSP_REQUIRE(!message.data.empty(), "sync frame missing its round header");
  const auto header = static_cast<std::uint64_t>(message.data[0]);
  const auto frame_round = static_cast<std::size_t>(header & 0xffffffffu);
  // The sender stamped our index for it into the header (see
  // kSyncFrameTag); the cross-check against `from` keeps the same
  // non-neighbor rejection the binary search used to provide.
  const auto idx = static_cast<std::size_t>(header >> 32);
  FDLSP_REQUIRE(idx < neighbors_.size() && neighbors_[idx].to == message.from,
                "sync frame header names the wrong neighbor slot");
  if (frame_round + 1 == round_) {
    FDLSP_REQUIRE(cur_received_[idx] == 0, "duplicate sync frame");
    // Move-assign swaps payload buffers: the slot takes the frame, the
    // dispatch scratch inherits the slot's recycled capacity.
    cur_[idx] = std::move(message);
    cur_received_[idx] = 1;
    ++cur_count_;
  } else {
    // Lockstep bounds the skew to one round (see sim/synchronizer.h): a
    // frame is either for this round or from a neighbor one round ahead.
    FDLSP_REQUIRE(frame_round == round_,
                  "sync frame outside the lockstep window");
    FDLSP_REQUIRE(ahead_received_[idx] == 0, "duplicate sync frame");
    ahead_[idx] = std::move(message);
    ahead_received_[idx] = 1;
    ++ahead_count_;
  }
  drive(ctx);
}

void SyncOverAsyncProgram::on_timer(AsyncContext& ctx, std::int64_t cookie) {
  (void)cookie;  // single timer kind; checked in debug builds only
  FDLSP_ASSERT(cookie == kPollCookie, "unexpected synchronizer timer");
  poll_armed_ = false;
  if (!coordinator_->stopped()) drive(ctx);
}

// fdlsp-lint: hot — per-event steady-state path, no allocator traffic
void SyncOverAsyncProgram::drive(AsyncContext& ctx) {
  // Degree-0 nodes (and the last completer of a round) can run several
  // rounds back to back — the loop drains everything currently unblocked.
  while (coordinator_->may_execute(round_) && have_all_frames())
    execute_round(ctx);
  if (!coordinator_->stopped() && have_all_frames() && !poll_armed_ &&
      !coordinator_->may_execute(round_)) {
    // All frames are here but the boundary is still undecided — some node
    // has not completed the previous round. The coordinator cannot wake us
    // (it is passive), so poll. Unit-delay runs never reach this.
    poll_armed_ = true;
    ctx.set_timer(kPollDelay, kPollCookie);
  }
}

// fdlsp-lint: hot — per-round steady-state path, no allocator traffic
void SyncOverAsyncProgram::execute_round(AsyncContext& ctx) {
  const std::size_t r = round_;
  const std::size_t degree = neighbors_.size();

  // Assemble the round's inbox from the per-neighbor frames in ascending
  // neighbor order — exactly the serial sync engine's inbox order
  // (ascending sender id, send order within one sender).
  inbox_live_ = 0;
  if (r > 0) {
    for (std::size_t idx = 0; idx < degree; ++idx) {
      const Message& frame = cur_[idx];
      const SmallPayload& words = frame.data;
      FDLSP_ASSERT(!words.empty() &&
                       (static_cast<std::uint64_t>(words[0]) & 0xffffffffu) ==
                           static_cast<std::uint64_t>(r) - 1,
                   "sync frame round mismatch");
      std::size_t pos = 1;
      while (pos < words.size()) {
        const auto count = static_cast<std::size_t>(words[pos + 1]);
        Message& slot = next_inbox_slot();
        slot.from = frame.from;
        slot.tag = static_cast<std::int32_t>(words[pos]);
        slot.data.assign(words.data() + pos + 2,
                         words.data() + pos + 2 + count);
        pos += 2 + count;
      }
    }
  }

  sent_ = 0;
  for (std::size_t idx = 0; idx < degree; ++idx) {
    out_frames_[idx].tag = kSyncFrameTag;
    out_frames_[idx].data.clear();  // spilled capacity survives
    out_frames_[idx].data.push_back(static_cast<std::int64_t>(
        static_cast<std::uint64_t>(r) |
        (static_cast<std::uint64_t>(rev_index_[idx]) << 32)));
  }

  // The serial engine skips a finished node with an empty inbox; the tick
  // frames below still go out — they are the synchronizer's transport, not
  // protocol traffic, and neighbors wait on them.
  if (!(set_->finished(self_) && inbox_live_ == 0)) {
    SyncContext sctx = SyncContext::external(
        self_, neighbors_, r, coordinator_->phase(), &capture_sink_);
    set_->on_round(self_, sctx,
                   SyncInbox(std::span<const Message>(inbox_.data(),
                                                      inbox_live_)));
  }

  for (std::size_t idx = 0; idx < degree; ++idx)
    ctx.send_copy_at(idx, out_frames_[idx]);

  // Promote the ahead slots: round-r frames become current for round r+1.
  // Vector swaps are O(1) and the Message slots keep their capacities.
  ++round_;
  cur_.swap(ahead_);
  cur_received_.swap(ahead_received_);
  cur_count_ = ahead_count_;
  ahead_count_ = 0;
  std::fill(ahead_received_.begin(), ahead_received_.end(), char{0});

  coordinator_->complete_round(r, sent_);
}

// fdlsp-lint: hot — per-inner-send steady-state path, no allocator traffic
void SyncOverAsyncProgram::capture(NodeId to, const Message& message) {
  SmallPayload& frame = out_frames_[neighbor_index(to)].data;
  frame.push_back(message.tag);
  frame.push_back(static_cast<std::int64_t>(message.data.size()));
  frame.insert(frame.end(), message.data.begin(), message.data.end());
  ++sent_;
}

std::size_t SyncOverAsyncProgram::neighbor_index(NodeId v) const {
  const auto* it = std::lower_bound(
      neighbors_.data(), neighbors_.data() + neighbors_.size(), v,
      [](const NeighborEntry& entry, NodeId id) { return entry.to < id; });
  // The binary search doubles as the neighbor-ness validation the engine's
  // send path would have performed for a direct send.
  FDLSP_REQUIRE(it != neighbors_.data() + neighbors_.size() && it->to == v,
                "synchronizer addressed a non-neighbor");
  return static_cast<std::size_t>(it - neighbors_.data());
}

// fdlsp-lint: hot — per-inner-message steady-state path; the slab grows a
// bounded number of times, then every round reuses the same slots.
Message& SyncOverAsyncProgram::next_inbox_slot() {
  if (inbox_live_ == inbox_.size()) inbox_.emplace_back();
  return inbox_[inbox_live_++];
}

}  // namespace fdlsp
