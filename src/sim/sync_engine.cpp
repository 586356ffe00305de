#include "sim/sync_engine.h"

#include <algorithm>
#include <utility>

#include "sim/shard.h"
#include "support/alloc_audit.h"
#include "support/check.h"
#include "support/thread_pool.h"

namespace fdlsp {

// fdlsp-lint: hot — per-message steady-state path, no allocator traffic
void SyncContext::send(NodeId to, Message message) {
  message.from = self_;
  if (capture_ != nullptr) {
    (*capture_)(to, message);
    return;
  }
  // One binary search over the sender's sorted neighbor row both proves
  // neighbor-ness and yields the position the fault path's channel needs.
  const auto it = std::lower_bound(
      neighbors_.begin(), neighbors_.end(), to,
      [](const NeighborEntry& entry, NodeId node) { return entry.to < node; });
  FDLSP_REQUIRE(it != neighbors_.end() && it->to == to,
                "nodes may only message direct neighbors");
  if (expand_) {
    engine_->post(*outbox_, self_,
                  static_cast<std::size_t>(it - neighbors_.begin()), message);
    return;
  }
  if (trace_ != nullptr) trace_->on_send(self_, to);
  engine_->note_unicast(to);
  outbox_->add(to, std::move(message), 1);
}

// fdlsp-lint: hot — per-message steady-state path, no allocator traffic
void SyncContext::broadcast(Message&& message) {
  if (neighbors_.empty()) return;
  if (direct()) {
    if (trace_ != nullptr)
      for (const NeighborEntry& to : neighbors_) trace_->on_send(self_, to.to);
    message.from = self_;
    outbox_->add(kBroadcast, std::move(message), neighbors_.size());
    return;
  }
  for (std::size_t i = 0; i < neighbors_.size(); ++i)
    send_copy_at(i, message);
}

// fdlsp-lint: hot — per-message steady-state path, no allocator traffic
void SyncContext::broadcast(const Message& message) {
  if (neighbors_.empty()) return;
  if (direct()) {
    if (trace_ != nullptr)
      for (const NeighborEntry& to : neighbors_) trace_->on_send(self_, to.to);
    outbox_->add_copy(kBroadcast, message, self_, neighbors_.size());
    return;
  }
  for (std::size_t i = 0; i < neighbors_.size(); ++i)
    send_copy_at(i, message);
}

void SyncContext::send_copy_at(std::size_t position, const Message& message) {
  const NodeId to = neighbors_[position].to;
  if (capture_ != nullptr) {
    // The capture sink borrows: no temporary, no ownership transfer. The
    // sink knows the sending node; `from` stays whatever the caller holds.
    (*capture_)(to, message);
    return;
  }
  engine_->post(*outbox_, self_, position, message);
}

SyncEngine::SyncEngine(const Graph& graph, SyncProgramSet& set)
    : graph_(graph), set_(&set) {
  FDLSP_REQUIRE(set_->size() == graph_.num_nodes(),
                "one program per node required");
}

std::size_t SyncEngine::planned_shards() const noexcept {
  const std::size_t n = graph_.num_nodes();
  if (pool_ == nullptr || trace_ != nullptr || faults_ != nullptr || n == 0 ||
      pool_->on_worker_thread())
    return 1;
  const std::size_t requested =
      shards_config_ != 0 ? shards_config_
                          : std::max<std::size_t>(pool_->size(), 1) * 4;
  return std::min(n, std::max<std::size_t>(1, requested));
}

/// The fault path's send: one entry for the receiver
/// neighbors(from)[position], after the trace and the fault plan had their
/// say. on_send fires once per entry actually stored (a dropped message
/// emits no event, a duplicate two), keeping the per-channel send/deliver
/// pairing the happens-before checker relies on exact under faults.
void SyncEngine::post(SyncSendSlab& outbox, NodeId from, std::size_t position,
                      const Message& message) {
  const NodeId to = graph_.neighbors(from)[position].to;
  const auto store = [&]() -> Message& {
    if (trace_ != nullptr) trace_->on_send(from, to);
    note_unicast(to);
    return outbox.add_copy(to, message, from, 1);
  };
  const ArcId channel = channels_.channel_at(from, position);
  const double now = static_cast<double>(current_round_);
  // A crashed sender never runs, but sends from the crash round itself are
  // possible when the crash lands mid-round; treat both endpoints dead.
  if (faults_->node_down(from, now) || faults_->node_down(to, now)) {
    ++faults_->stats().crash_drops;
    return;
  }
  if (faults_->link_down(channel, now)) {
    ++faults_->stats().link_down_drops;
    return;
  }
  if (faults_->region_down(channel, now)) {
    ++faults_->stats().region_drops;
    return;
  }
  const std::uint64_t index = channel_posts_[channel]++;
  switch (faults_->channel_action(channel, index, now)) {
    case FaultAction::kDrop:
      return;
    case FaultAction::kDuplicate:
      store();
      store();
      return;
    case FaultAction::kCorrupt:
      faults_->corrupt_payload(channel, index, store());
      return;
    case FaultAction::kDeliver:
      store();
      return;
  }
  FDLSP_REQUIRE(false, "unknown fault action");
}

SyncMetrics SyncEngine::run(std::size_t max_rounds) {
  SyncMetrics metrics;
  std::size_t phase = 0;
  const std::size_t n = graph_.num_nodes();
  if (faults_ != nullptr) {
    faults_->on_run_start();
    channel_posts_.assign(2 * graph_.num_edges(), 0);
    // Per-(neighbor-pair) channel ids, computed once and reused for every
    // faulted message.
    channels_.build(graph_);
  }

  // Parallel rounds need protocol isolation *and* silent seams: a trace
  // observes callback/send order and a fault plan mutates per-message
  // state, so either forces the serial path (they are observation and
  // adversary channels, not hot paths). planned_shards() folds the whole
  // predicate: it returns 1 whenever a seam forces serial, and one shard
  // runs on the calling thread.
  const std::size_t shards = planned_shards();
  const ShardPlan plan{n, shards};
  const bool expand = faults_ != nullptr;
  // Program sets size per-shard scratch here, before any callback runs.
  // The serial path prepares for exactly one shard (ctx.shard() == 0).
  set_->prepare_shards(shards);
  // Outbox slabs are sized once and recycled forever; a later run with
  // fewer shards leaves the extra slabs idle. No range may point into a
  // previous run's sends.
  if (outboxes_.size() < shards) {
    outboxes_.resize(shards);
    last_outboxes_.resize(shards);
  }
  ranges_.assign(n, SyncOutRange{});
  last_ranges_.assign(n, SyncOutRange{});
  mail_.assign(n, 0);
  last_mail_.assign(n, 0);

  // A program's finished/ready state only changes inside its own callbacks
  // (cross-node mutation would be a protocol-isolation violation, flagged by
  // the happens-before checker), so both predicates are cached per node and
  // refreshed right after each callback; the run never rescans every
  // program. A crashed node counts as terminated: its callbacks stop and it
  // neither blocks the barrier nor run completion. Flags are per node
  // (distinct memory locations), counts accumulate per shard and are
  // applied on the driving thread after the dispatch.
  std::vector<char> finished(n, 0);
  std::vector<char> ready(n, 0);  // finished, or voting for phase advance
  std::size_t finished_count = 0;
  std::size_t ready_count = 0;
  std::vector<std::ptrdiff_t> shard_fin(shards, 0);
  std::vector<std::ptrdiff_t> shard_rdy(shards, 0);
  const auto is_down = [&](NodeId v) {
    return faults_ != nullptr &&
           faults_->node_down(v, static_cast<double>(current_round_));
  };
  const auto refresh = [&](NodeId v, std::ptrdiff_t& dfin,
                           std::ptrdiff_t& drdy) {
    const bool fin = is_down(v) || set_->finished(v);
    const bool rdy = fin || set_->ready_for_phase_advance(v);
    if (fin != (finished[v] != 0)) {
      finished[v] = fin ? 1 : 0;
      dfin += fin ? 1 : -1;
    }
    if (rdy != (ready[v] != 0)) {
      ready[v] = rdy ? 1 : 0;
      drdy += rdy ? 1 : -1;
    }
  };
  const auto apply_shard_deltas = [&] {
    for (std::size_t s = 0; s < shards; ++s) {
      finished_count = static_cast<std::size_t>(
          static_cast<std::ptrdiff_t>(finished_count) + shard_fin[s]);
      ready_count = static_cast<std::size_t>(
          static_cast<std::ptrdiff_t>(ready_count) + shard_rdy[s]);
      shard_fin[s] = 0;
      shard_rdy[s] = 0;
    }
  };
  current_round_ = 0;
  for (NodeId v = 0; v < n; ++v) refresh(v, shard_fin[0], shard_rdy[0]);
  apply_shard_deltas();

  // Runs body(s) for every shard: on the calling thread for one shard,
  // otherwise one pool task per shard.
  const auto dispatch = [&](auto&& body) {
    if (shards == 1) {
      body(std::size_t{0});
      return;
    }
    for (std::size_t s = 0; s < shards; ++s)
      pool_->submit([&body, s] { body(s); });
    pool_->wait_idle();
  };
  const auto phase_shard = [&](std::size_t s, std::size_t new_phase) {
    std::ptrdiff_t dfin = 0;
    std::ptrdiff_t drdy = 0;
    const std::size_t hi = plan.hi(s);
    for (std::size_t i = plan.lo(s); i < hi; ++i) {
      const NodeId v = static_cast<NodeId>(i);
      if (is_down(v)) continue;
      if (trace_ != nullptr) trace_->on_local_step(v);
      set_->on_phase(v, new_phase);
      refresh(v, dfin, drdy);
    }
    shard_fin[s] = dfin;
    shard_rdy[s] = drdy;
  };
  std::size_t pending_broadcasts = 0;  // broadcasts sent last round
  // One round of shard s: every node's inbox pulls last round's outboxes,
  // its sends land in shard s's outbox, and its range records where. A
  // node pulls only when last round sent a broadcast or a unicast to it.
  const auto round_shard = [&](std::size_t s, std::size_t round_no) {
    SyncSendSlab& outbox = outboxes_[s];
    outbox.reset();  // rewind, not freed: capacity is reused
    std::ptrdiff_t dfin = 0;
    std::ptrdiff_t drdy = 0;
    const std::size_t hi = plan.hi(s);
    for (std::size_t i = plan.lo(s); i < hi; ++i) {
      const NodeId v = static_cast<NodeId>(i);
      SyncOutRange& range = ranges_[v];
      range = SyncOutRange{static_cast<std::uint32_t>(s),
                           static_cast<std::uint32_t>(outbox.size()), 0, 0};
      const bool mail = pending_broadcasts != 0 || last_mail_[v] != 0;
      last_mail_[v] = 0;
      const SyncInbox inbox(
          v, mail ? graph_.neighbors(v) : std::span<const NeighborEntry>{},
          last_ranges_.data(), last_outboxes_.data());
      if (is_down(v)) {
        // Mail addressed to a dead node dies with it.
        faults_->stats().crash_drops += inbox.size();
        continue;
      }
      if (finished[v] != 0 && inbox.empty()) continue;
      if (trace_ != nullptr) {
        for (const Message& message : inbox)
          trace_->on_deliver(message.from, v);
        trace_->on_local_step(v);
      }
      SyncContext ctx(this, v, graph_.neighbors(v), round_no, phase);
      ctx.outbox_ = &outbox;
      ctx.trace_ = trace_;
      ctx.expand_ = expand;
      ctx.shard_ = s;
      const std::size_t unicasts = outbox.unicasts();
      set_->on_round(v, ctx, inbox);
      FDLSP_ASSERT(outbox.size() <= UINT32_MAX, "outbox range overflow");
      range.len = static_cast<std::uint32_t>(outbox.size()) - range.begin;
      range.unicasts =
          static_cast<std::uint32_t>(outbox.unicasts() - unicasts);
      if (range.unicasts != 0) outbox.index(range.begin, range.len);
      refresh(v, dfin, drdy);
    }
    shard_fin[s] = dfin;
    shard_rdy[s] = drdy;
  };

  std::size_t pending_messages = 0;  // deliveries sent last round
  std::size_t total_messages = 0;
  while (metrics.rounds < max_rounds) {
    current_round_ = metrics.rounds;
    if (faults_ != nullptr) {
      // Down-ness changes with the round counter, not inside callbacks, so
      // the cached predicates must be recomputed when nodes cross their
      // crash time (fault path only; the zero-fault loop never scans).
      for (NodeId v = 0; v < n; ++v)
        if (finished[v] == 0 && is_down(v))
          refresh(v, shard_fin[0], shard_rdy[0]);
      apply_shard_deltas();
    }
    if (finished_count == n) {
      metrics.completed = true;
      break;
    }

    // One audited "round" spans the phase barrier, the outbox swap, and the
    // node callbacks — everything the dispatch of round r executes. A
    // completion break inside the barrier leaves the bracket unclosed,
    // which simply drops that partial round from the profile.
    if (alloc_audit_ != nullptr) alloc_audit_->begin_round();

    // Barrier: when nothing is in flight and everyone votes ready, advance
    // the phase counter instead of burning an idle round.
    if (pending_messages == 0 && ready_count == n) {
      ++phase;
      ++metrics.phases;
      dispatch([&](std::size_t s) { phase_shard(s, phase); });
      apply_shard_deltas();
      if (finished_count == n) {
        metrics.completed = true;
        break;
      }
    }

    // Last round's sends become this round's inboxes; the slabs this round
    // overwrites held the round before's sends, which nobody reads anymore.
    outboxes_.swap(last_outboxes_);
    ranges_.swap(last_ranges_);
    mail_.swap(last_mail_);
    dispatch([&](std::size_t s) { round_shard(s, metrics.rounds); });
    apply_shard_deltas();
    pending_messages = 0;
    pending_broadcasts = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      pending_messages += outboxes_[s].deliveries();
      pending_broadcasts += outboxes_[s].size() - outboxes_[s].unicasts();
    }
    total_messages += pending_messages;
    if (alloc_audit_ != nullptr) alloc_audit_->end_round();
    ++metrics.rounds;
  }

  metrics.messages = total_messages;
  if (!metrics.completed) metrics.completed = finished_count == n;
  if (faults_ != nullptr) metrics.faults = faults_->stats();
  return metrics;
}

}  // namespace fdlsp
