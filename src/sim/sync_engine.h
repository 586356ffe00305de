// Synchronous message-passing engine (the paper's synchronous LOCAL model).
//
// Execution proceeds in lock-step rounds. In round r every node reads the
// messages its neighbors sent in round r-1, computes, and sends messages to
// neighbors. Nodes only ever address direct neighbors — multi-hop knowledge
// must be relayed, which is exactly what makes round counts meaningful.
//
// Phase barriers: distributed algorithms built from subroutines with
// data-dependent length (e.g. Luby's MIS inside DistMIS) need to agree
// globally that a subroutine has converged. Real deployments do this with a
// convergecast or a known round bound; the engine models it as a *barrier*:
// when every node votes ready, the engine advances the global phase counter
// without consuming a communication round. DESIGN.md discusses this
// substitution; round counts reported by the engine are the communication
// rounds actually consumed.
//
// Pull delivery (DESIGN.md §11, §14): every send is stored once, in the
// outbox of the shard executing its sender — a SyncSendSlab in send order,
// where a broadcast is one entry every neighbor hears and a unicast carries
// its destination — and the engine records each node's range of it. In
// round r+1 node v's inbox is a SyncInbox: a view that walks v's neighbors
// in ascending id over their round-r ranges, keeping broadcasts and the
// sends addressed to v. That is the (sender id, send order) order of the
// model, whatever the partition, so no message is copied per receiver and
// no buffers are merged.
//
// Sharded parallel rounds: node callbacks are protocol-isolated — a program
// only touches its own state and the read-only graph (enforced by
// fdlsp-lint and the happens-before checker) — so with a ThreadPool
// attached the engine partitions the node id space into contiguous shards
// and runs each shard's callbacks on a worker, one pool dispatch per round.
// A shard writes only its own outbox and its own nodes' ranges, and reads
// the previous round's outboxes, which nobody writes during the round; the
// run is byte-identical to the serial engine for any shard count.
//
// Unicasts: a range holding any unicast is indexed by destination when its
// sender's callback returns, so a receiver binary-searches for its own
// sends instead of scanning the range; each unicast also sets its
// receiver's mail flag, so after a broadcast-free round a node without
// mail skips the neighbor walk.
//
// Trace and fault seams force the serial path: they are
// observation/adversary channels, not hot paths. A trace sees one on_send
// per receiver at send time; a broadcast is still stored once. Under a
// fault plan a broadcast is expanded at send time into one unicast entry
// per receiver, in neighbor order, so each FaultPlan verdict is taken in
// global send order — a drop leaves no entry, a duplicate two, a
// corruption a corrupted copy.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <iterator>
#include <numeric>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "sim/channel_table.h"
#include "sim/fault.h"
#include "sim/message.h"
#include "sim/trace.h"

namespace fdlsp {

class AllocAudit;
class SyncEngine;
class ThreadPool;

/// Capture target of a context whose sends a harness layer intercepts
/// (SyncContext::reframed, SyncContext::external): the sink borrows the
/// message for the duration of the call — it must copy what it keeps — and
/// the message's `from` field is unspecified (the capturing layer knows
/// which node it drives). A spilled payload is never materialized into a
/// temporary per receiver, so a capture layer with recycled buffers
/// (sim/synchronizer.h) adds no allocator traffic to a program's steady
/// state.
using SyncCaptureSink = std::function<void(NodeId to, const Message& message)>;

/// Destination of a broadcast outbox entry: every neighbor of the sender.
/// It is the largest NodeId, so a destination-sorted range keeps its
/// broadcasts last.
inline constexpr NodeId kBroadcast = kNoNode;

/// One shard's outbox for one round (engine internal): parallel arrays of
/// messages and destinations in send order, a unicast carrying its
/// destination and a broadcast marked kBroadcast. `message.from` is the
/// sender. Slots are recycled — reset() rewinds the live count without
/// destroying elements — so message payload capacities survive across
/// rounds and the steady state stores sends without allocating.
class SyncSendSlab {
 public:
  /// Appends by move, counting `fanout` deliveries; the displaced slot
  /// payload migrates into the source (SmallPayload's swapping
  /// move-assignment), never freed here.
  // fdlsp-lint: hot — per-send steady-state path, no allocator traffic
  void add(NodeId to, Message&& message, std::size_t fanout) {
    next_slot(to, fanout) = std::move(message);
  }

  /// Appends by copy-assign, counting `fanout` deliveries, and returns the
  /// stored copy. The slot's payload capacity is reused, so a warmed slab
  /// stores copies with zero allocator traffic. The stored copy's `from`
  /// field is stamped with `from` (the source message is never mutated).
  // fdlsp-lint: hot — per-send steady-state path, no allocator traffic
  Message& add_copy(NodeId to, const Message& message, NodeId from,
                    std::size_t fanout) {
    Message& slot = next_slot(to, fanout);
    // Dead slots past the live count are unordered; when this slot's
    // payload capacity is too small, borrow a big-enough one from the
    // dead region so the slab's total spilled capacity is recycled
    // instead of every slot index growing independently. The scan is
    // windowed: an outbox holds a whole shard's sends for the round, and
    // an unbounded scan that mostly finds nothing (cold slots hold no
    // spilled capacity yet) turns the warm-up quadratic in the outbox
    // size. Beyond the window the slot grows its own capacity — a
    // bounded number of times, so the allocation-free steady state is
    // unchanged.
    if (message.data.size() > slot.data.capacity()) {
      const std::size_t window =
          std::min(messages_.size(), count_ + kBorrowWindow);
      for (std::size_t j = count_; j < window; ++j) {
        if (messages_[j].data.capacity() >= message.data.size()) {
          slot.data.swap(messages_[j].data);
          break;
        }
      }
    }
    slot = message;
    slot.from = from;
    return slot;
  }

  /// Live entries, in send order.
  std::size_t size() const noexcept { return count_; }
  const Message* messages() const noexcept { return messages_.data(); }

  /// Unicast entries among the live ones.
  std::size_t unicasts() const noexcept { return unicasts_; }

  /// Point-to-point deliveries the live entries stand for.
  std::size_t deliveries() const noexcept { return deliveries_; }

  /// Indexes live entries [begin, begin + len): afterwards the same offsets
  /// of the order array hold the range's positions sorted by (destination,
  /// position), so each receiver finds the sends addressed to it — and the
  /// broadcasts, which sort last — by binary search instead of scanning
  /// the sender's whole range. The order array grows a bounded number of
  /// times, then is reused like the slots.
  void index(std::uint32_t begin, std::uint32_t len) {
    if (order_.size() < count_) order_.resize(count_);
    std::uint32_t* first = order_.data() + begin;
    std::iota(first, first + len, begin);
    const NodeId* to = to_.data();
    std::sort(first, first + len, [to](std::uint32_t a, std::uint32_t b) {
      return to[a] != to[b] ? to[a] < to[b] : a < b;
    });
  }

  /// The positions of a range index() has sorted.
  const std::uint32_t* order(std::uint32_t begin) const noexcept {
    return order_.data() + begin;
  }

  /// Ascending positions of the entries addressed to `to` among
  /// order(begin)[0, len).
  std::span<const std::uint32_t> addressed(std::uint32_t begin,
                                           std::uint32_t len,
                                           NodeId to) const noexcept {
    const std::uint32_t* first = order(begin);
    const NodeId* dest = to_.data();
    const std::uint32_t* lo = std::lower_bound(
        first, first + len, to,
        [dest](std::uint32_t pos, NodeId node) { return dest[pos] < node; });
    const std::uint32_t* hi = std::upper_bound(
        lo, first + len, to,
        [dest](NodeId node, std::uint32_t pos) { return node < dest[pos]; });
    return {lo, hi};
  }

  /// Rewinds the live count; elements (and their capacities) stay alive.
  void reset() noexcept {
    count_ = 0;
    unicasts_ = 0;
    deliveries_ = 0;
  }

 private:
  /// Dead-region capacity-borrow scan bound (see add_copy).
  static constexpr std::size_t kBorrowWindow = 32;

  // The next live slot, addressed to `to`; grows the arrays when full.
  Message& next_slot(NodeId to, std::size_t fanout) {
    if (count_ == messages_.size()) {
      messages_.emplace_back();
      to_.push_back(to);
    } else {
      to_[count_] = to;
    }
    unicasts_ += to != kBroadcast ? 1 : 0;
    deliveries_ += fanout;
    return messages_[count_++];
  }

  std::vector<Message> messages_;
  std::vector<NodeId> to_;
  std::vector<std::uint32_t> order_;  // index(): per-range sorted positions
  std::size_t count_ = 0;
  std::size_t unicasts_ = 0;
  std::size_t deliveries_ = 0;
};

/// One node's sends of one round: entries [begin, begin + len) of shard
/// `shard`'s outbox (engine internal). A range holding unicasts is indexed
/// (SyncSendSlab::index): its first `unicasts` sorted positions are the
/// unicasts, the rest its broadcasts. A range of broadcasts only is heard
/// in full by every neighbor and needs no index.
struct SyncOutRange {
  std::uint32_t shard = 0;
  std::uint32_t begin = 0;
  std::uint32_t len = 0;
  std::uint32_t unicasts = 0;
};

/// The messages a node receives in one round, in ascending sender id and,
/// per sender, in send order. A read-only view, valid only during the
/// on_round call it is passed to. The engine's inboxes pull from the
/// senders' outboxes (see the header comment); a harness that assembles an
/// inbox itself wraps a flat message list.
class SyncInbox {
 public:
  class iterator {
   public:
    const Message& operator*() const noexcept { return *cur_; }
    const Message* operator->() const noexcept { return cur_; }
    // fdlsp-lint: hot — per-message steady-state path, no allocator traffic
    iterator& operator++() noexcept {
      if (run_ != run_end_) {
        ++run_;
      } else if (mine_first()) {
        ++mine_;
      } else {
        ++all_;
      }
      settle();
      return *this;
    }
    friend bool operator==(const iterator& it,
                           std::default_sentinel_t) noexcept {
      return it.cur_ == nullptr;
    }

   private:
    friend class SyncInbox;
    explicit iterator(const SyncInbox& box) noexcept
        : box_(&box),
          next_(box.senders_.data()),
          last_(box.senders_.data() + box.senders_.size()),
          run_(box.flat_.data()),
          run_end_(box.flat_.data() + box.flat_.size()) {
      settle();
    }

    // Merging an indexed range back into send order: next is mine?
    bool mine_first() const noexcept {
      return all_ == all_end_ || (mine_ != mine_end_ && *mine_ < *all_);
    }

    /// Points cur_ at the next message this node hears — from the current
    /// run of broadcasts, else the merged position lists of an indexed
    /// range — pulling the next sender's range whenever both run out; cur_
    /// becomes null once every sender is exhausted.
    // fdlsp-lint: hot — per-message steady-state path, no allocator traffic
    void settle() noexcept {
      for (;;) {
        if (run_ != run_end_) {
          cur_ = run_;
          return;
        }
        if (mine_ != mine_end_ || all_ != all_end_) {
          cur_ = base_ + (mine_first() ? *mine_ : *all_);
          return;
        }
        if (next_ == last_) {
          cur_ = nullptr;
          return;
        }
        const SyncOutRange& range = box_->ranges_[(next_++)->to];
        if (range.len == 0) continue;
        const SyncSendSlab& slab = box_->outboxes_[range.shard];
        if (range.unicasts == 0) {
          run_ = slab.messages() + range.begin;
          run_end_ = run_ + range.len;
          continue;
        }
        base_ = slab.messages();
        const std::span<const std::uint32_t> mine =
            slab.addressed(range.begin, range.unicasts, box_->self_);
        mine_ = mine.data();
        mine_end_ = mine.data() + mine.size();
        all_ = slab.order(range.begin) + range.unicasts;
        all_end_ = slab.order(range.begin) + range.len;
      }
    }

    const SyncInbox* box_ = nullptr;
    const NeighborEntry* next_ = nullptr;  // next sender to pull
    const NeighborEntry* last_ = nullptr;  // end of the senders
    const Message* cur_ = nullptr;
    const Message* run_ = nullptr;  // contiguous messages heard in full
    const Message* run_end_ = nullptr;
    const Message* base_ = nullptr;  // indexed range's slab messages
    const std::uint32_t* mine_ = nullptr;  // positions addressed to self
    const std::uint32_t* mine_end_ = nullptr;
    const std::uint32_t* all_ = nullptr;  // positions of broadcasts
    const std::uint32_t* all_end_ = nullptr;
  };

  /// A flat inbox: every message is heard, in order.
  explicit SyncInbox(std::span<const Message> messages) noexcept
      : flat_(messages) {}

  iterator begin() const noexcept { return iterator(*this); }
  std::default_sentinel_t end() const noexcept { return {}; }
  bool empty() const noexcept { return begin() == end(); }

  /// Number of messages; walks the view.
  std::size_t size() const noexcept {
    std::size_t count = 0;
    for (iterator it = begin(); it != end(); ++it) ++count;
    return count;
  }

 private:
  friend class SyncEngine;
  SyncInbox(NodeId self, std::span<const NeighborEntry> senders,
            const SyncOutRange* ranges, const SyncSendSlab* outboxes) noexcept
      : self_(self), senders_(senders), ranges_(ranges), outboxes_(outboxes) {}

  NodeId self_ = kBroadcast;
  std::span<const Message> flat_;
  std::span<const NeighborEntry> senders_;  // ascending id
  const SyncOutRange* ranges_ = nullptr;    // per node, last round's sends
  const SyncSendSlab* outboxes_ = nullptr;  // per shard, last round's sends
};

/// Per-round context handed to a node program; valid only during on_round.
class SyncContext {
 public:
  /// This node's id.
  NodeId self() const noexcept { return self_; }

  /// Current round number (0-based).
  std::size_t round() const noexcept { return round_; }

  /// Current phase counter (incremented by barriers).
  std::size_t phase() const noexcept { return phase_; }

  /// Index of the engine shard executing this callback; 0 on the serial
  /// path. Program sets (SyncProgramSet) may index per-shard scratch by
  /// this value race-free: exactly one worker drives a shard's callbacks,
  /// and the serial engine always reports shard 0.
  std::size_t shard() const noexcept { return shard_; }

  /// Direct neighbors of this node (local topology knowledge).
  std::span<const NeighborEntry> neighbors() const noexcept {
    return neighbors_;
  }

  /// Sends a message to a direct neighbor, delivered next round.
  void send(NodeId to, Message message);

  /// Broadcasts a message the caller is done with: it is moved into the
  /// outbox once, and every neighbor hears that one entry.
  void broadcast(Message&& message);

  /// Broadcasts a message the caller keeps (e.g. a reusable scratch): the
  /// engine copy-assigns it into a recycled outbox slot, so a warmed run
  /// broadcasts with zero allocator traffic even for spilled payloads —
  /// the zero-alloc seam DistMIS's flood relays ride (DESIGN.md §11). The
  /// message's `from` field is left untouched; the delivered copy carries
  /// this node's id regardless.
  void broadcast(const Message& message);

  /// A copy of this context for a protocol layered *inside* another program
  /// set (sim/reliable.h): round() reports the wrapped protocol's own round
  /// counter and send()/broadcast() feed `capture` instead of the engine, so
  /// the outer set can frame and schedule the traffic itself. `capture`
  /// must be non-null and outlive the copy.
  SyncContext reframed(std::size_t round,
                       const SyncCaptureSink* capture) const {
    FDLSP_REQUIRE(capture != nullptr, "reframed contexts need a capture sink");
    SyncContext copy = *this;
    copy.round_ = round;
    copy.capture_ = capture;
    return copy;
  }

  /// A detached context for harness layers that drive program sets outside
  /// a SyncEngine (the round synchronizer, sim/synchronizer.h): there is no
  /// engine behind it — send()/broadcast() feed `capture`, which must be
  /// non-null and outlive the context.
  static SyncContext external(NodeId self,
                              std::span<const NeighborEntry> neighbors,
                              std::size_t round, std::size_t phase,
                              const SyncCaptureSink* capture) {
    FDLSP_REQUIRE(capture != nullptr, "external contexts need a capture sink");
    SyncContext ctx(nullptr, self, neighbors, round, phase);
    ctx.capture_ = capture;
    return ctx;
  }

 private:
  friend class SyncEngine;
  SyncContext(SyncEngine* engine, NodeId self,
              std::span<const NeighborEntry> neighbors, std::size_t round,
              std::size_t phase)
      : engine_(engine),
        self_(self),
        neighbors_(neighbors),
        round_(round),
        phase_(phase) {}

  // True when sends go straight into the outbox: an engine context with no
  // capture and no fault plan to expand broadcasts for.
  bool direct() const noexcept { return capture_ == nullptr && !expand_; }

  // One copy of `message` to neighbors_[position], for every path but the
  // direct one.
  void send_copy_at(std::size_t position, const Message& message);

  SyncEngine* engine_;
  NodeId self_;
  std::span<const NeighborEntry> neighbors_;
  std::size_t round_;
  std::size_t phase_;
  const SyncCaptureSink* capture_ = nullptr;  // non-null: capture, not send
  SyncSendSlab* outbox_ = nullptr;  // the executing shard's outbox
  SimTrace* trace_ = nullptr;       // attached trace (serial path only)
  bool expand_ = false;  // fault plan attached: one entry per receiver
  std::size_t shard_ = 0;  // executing shard (0 = serial)
};

/// The node programs of a synchronous run: one object for the whole
/// population, every callback naming its node (DESIGN.md §14). A set keeps
/// hot per-node state in parallel arrays (or a vector of per-node structs)
/// indexed by node id and per-shard scratch indexed by ctx.shard(), so a
/// shard's round touches dense shard-local memory. Harness layers compose
/// by decoration: a set that wraps another set (sim/reliable.h) forwards
/// each callback with the same node id.
class SyncProgramSet {
 public:
  virtual ~SyncProgramSet() = default;

  /// Number of nodes (must equal the graph's).
  virtual std::size_t size() const = 0;

  /// Called once at the start of every run() with the shard count the run
  /// will execute with (1 on the serial path), before any other callback.
  /// Sets that keep per-shard scratch size it here. A set that keeps real
  /// protocol state per shard must not silently be run at another count —
  /// that state would be invisible to the new partition — so such a set
  /// treats a changed count as a contract error once the state exists.
  /// Sets whose per-shard data is pure scratch may be re-prepared.
  virtual void prepare_shards(std::size_t shards) { (void)shards; }

  /// Executes one round of node v: consume this round's inbox, send next
  /// round's messages. Called once per round for every node, in
  /// unspecified order (sends are buffered, so order cannot be observed).
  virtual void on_round(NodeId v, SyncContext& ctx,
                        const SyncInbox& inbox) = 0;

  /// True when node v is ready for the current phase to end. The engine
  /// advances the phase (calling on_phase for everyone) once all nodes vote
  /// ready *and* no messages are in flight.
  virtual bool ready_for_phase_advance(NodeId v) const = 0;

  /// Notification to node v that the global phase counter advanced.
  virtual void on_phase(NodeId v, std::size_t new_phase) = 0;

  /// True when node v has terminated. The run ends when all nodes have.
  virtual bool finished(NodeId v) const = 0;
};

/// Metrics of a synchronous run.
struct SyncMetrics {
  std::size_t rounds = 0;    ///< communication rounds consumed
  std::size_t messages = 0;  ///< total point-to-point messages delivered
  std::size_t phases = 0;    ///< barrier advances performed
  bool completed = false;    ///< all nodes finished within the round cap
  FaultStats faults;         ///< injected faults (all zero without a plan)
};

/// Drives a SyncProgramSet over a communication graph.
class SyncEngine {
 public:
  /// The graph and the set must outlive the engine; the set has one node
  /// per graph node. Results are extracted from the set after the run.
  SyncEngine(const Graph& graph, SyncProgramSet& set);

  /// Runs until every program reports finished() or the round cap is hit.
  SyncMetrics run(std::size_t max_rounds = 1'000'000);

  /// Attaches an event observer (nullptr detaches). With no trace the
  /// instrumentation points reduce to a null check; see sim/trace.h.
  void set_trace(SimTrace* trace) noexcept { trace_ = trace; }

  /// Installs a fault plan (nullptr detaches) — the same seam as set_trace:
  /// with no plan every injection point is a single null check and the run
  /// is byte-identical to an engine built before fault injection existed.
  /// The plan is consulted at send time (drop/duplicate/corrupt/link-down)
  /// and each round for node crashes: a crashed node's callbacks stop, its
  /// queued inbox is discarded, and it counts as terminated. Not owned; must
  /// outlive the run.
  void set_fault_plan(FaultPlan* plan) noexcept { faults_ = plan; }

  /// Shards state and rounds across `pool` (nullptr detaches → serial).
  /// The result is byte-identical to the serial engine for any shard or
  /// thread count: each contiguous node shard stores its sends in its own
  /// outbox, and every inbox pulls its senders' ranges in ascending sender
  /// id — the same order whatever the partition. An attached trace or
  /// fault plan forces serial execution so their event ordering contracts
  /// are untouched. Not owned; must outlive the run.
  void set_thread_pool(ThreadPool* pool) noexcept { pool_ = pool; }

  /// Explicit shard count for pooled runs; 0 (the default) derives the
  /// count from the pool size. Capped at the node count. Ignored — like
  /// the pool itself — whenever a seam forces the serial path.
  void set_shards(std::size_t shards) noexcept { shards_config_ = shards; }

  /// Number of state shards the next run() will execute with: 1 whenever a
  /// seam forces the serial path (no pool, trace or faults attached, empty
  /// graph, nested on a pool worker), otherwise the set_shards() override
  /// or the automatic pool-derived count, capped at the node count.
  std::size_t planned_shards() const noexcept;

  /// Attaches an allocation auditor (nullptr detaches): each communication
  /// round is bracketed with begin_round/end_round so per-round allocator
  /// traffic lands in the auditor's profile (support/alloc_audit.h). Unlike
  /// trace/fault seams the auditor only samples process-global counters, so
  /// it does NOT force the serial path — sharded rounds are audited too.
  /// Not owned; must outlive the run.
  void set_alloc_audit(AllocAudit* audit) noexcept { alloc_audit_ = audit; }

 private:
  friend class SyncContext;
  void note_unicast(NodeId to) noexcept {
    std::atomic_ref<std::uint8_t>(mail_[to]).store(1,
                                                   std::memory_order_relaxed);
  }
  void post(SyncSendSlab& outbox, NodeId from, std::size_t position,
            const Message& message);

  const Graph& graph_;
  SyncProgramSet* set_;  // the programs driving the run
  // Double-buffered outboxes, one slab per shard, and each node's range in
  // them: round r writes outboxes_/ranges_ while its inboxes read
  // last_outboxes_/last_ranges_ (round r-1); the two swap between rounds.
  // Slabs are sized once and recycled, so steady-state rounds allocate
  // nothing.
  std::vector<SyncSendSlab> outboxes_;
  std::vector<SyncSendSlab> last_outboxes_;
  std::vector<SyncOutRange> ranges_;
  std::vector<SyncOutRange> last_ranges_;
  // Per node: a unicast to it was stored this round (mail_) or last round.
  // Senders in any shard mark receivers (relaxed atomic stores); each node
  // clears its own last_mail_ flag as it reads it.
  std::vector<std::uint8_t> mail_;
  std::vector<std::uint8_t> last_mail_;
  SimTrace* trace_ = nullptr;
  FaultPlan* faults_ = nullptr;
  ThreadPool* pool_ = nullptr;  // non-null: shard state across workers
  AllocAudit* alloc_audit_ = nullptr;  // non-null: bracket rounds
  std::size_t shards_config_ = 0;      // set_shards(); 0 = automatic
  ChannelTable channels_;                     // fault path only
  std::vector<std::uint64_t> channel_posts_;  // fault path only
  std::size_t current_round_ = 0;             // fault path only
};

}  // namespace fdlsp
