#include "algos/dist_mis.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "algos/sync_run.h"
#include "coloring/conflict.h"
#include "graph/arcs.h"
#include "sim/async_engine.h"
#include "sim/reliable.h"
#include "sim/sync_engine.h"
#include "sim/synchronizer.h"
#include "support/check.h"
#include "support/epoch_marks.h"
#include "support/flat_hash.h"
#include "support/parallel_for.h"
#include "support/rng.h"
#include "support/thread_pool.h"

namespace fdlsp {

namespace {

// Message tags of the DistMIS protocol.
constexpr std::int32_t kTagMisValue = 1;  // data: [value]
constexpr std::int32_t kTagMisJoin = 2;   // data: []
constexpr std::int32_t kTagCompValue = 3; // data: [origin, block, value, ttl]
constexpr std::int32_t kTagCompWin = 4;   // data: [origin, block, ttl,
                                          //        arc0, color0, arc1, ...]

enum class LubyState : std::uint8_t { kUndecided, kInSet, kDominated };

/// The whole DistMIS node population in structure-of-arrays form
/// (DESIGN.md §14). The old per-node DistMisProgram kept every node's state
/// in its own heap object — pointer-chasing per callback, and per-node hash
/// tables scattered across the heap. Here the hot per-node scalars live in
/// parallel arrays indexed by node id, so a shard's round walks dense
/// memory. What a node knows about colors lives in dense per-node slots
/// indexed by its static distance-2 ball (see build_ball_rows); only
/// same-callback scratch (greedy marks, the winner's row index, relay
/// buffers) is kept *per shard*, indexed by ctx.shard(): one worker drives
/// one shard, so shard scratch needs no synchronization.
class DistMisSet final : public SyncProgramSet {
 public:
  /// `pool` (may be null) only parallelizes the one-time ball-row build.
  DistMisSet(const Graph& graph, DistMisVariant variant, std::uint64_t seed,
             ThreadPool* pool)
      : view_(graph),
        variant_(variant),
        flood_radius_(variant == DistMisVariant::kGbg ? 3 : 2),
        max_degree_(graph.max_degree()) {
    const std::size_t n = graph.num_nodes();
    // Per-node streams drawn from one seeded sequence, in node order — the
    // same seeding the per-node-program layout used, so serial results are
    // unchanged by the SoA refactor.
    Rng seeder(seed);
    rng_.reserve(n);
    for (std::size_t v = 0; v < n; ++v) rng_.emplace_back(seeder());
    retired_.assign(n, 0);
    in_luby_phase_.assign(n, 1);
    rounds_in_phase_.assign(n, 0);
    luby_state_.assign(n, LubyState::kUndecided);
    luby_value_.assign(n, 0);
    own_block_.assign(n, 0);
    comp_value_.assign(n, 0);
    win_seq_.assign(n, 0);
    rivals_.resize(n);
    seen_.resize(n);
    // Arcs each node colors on a win, as a CSR (kGbg: all incident arcs,
    // out then in; kGeneral: outgoing only) — fixed at construction so the
    // one win() a node ever performs stays allocation-free.
    arc_offsets_.assign(n + 1, 0);
    for (NodeId v = 0; v < n; ++v) {
      const std::size_t degree = graph.degree(v);
      arc_offsets_[v + 1] =
          arc_offsets_[v] +
          (variant_ == DistMisVariant::kGbg ? 2 * degree : degree);
      if (degree == 0) retired_[v] = 1;
    }
    arcs_.resize(arc_offsets_[n]);
    for (NodeId v = 0; v < n; ++v) {
      std::size_t pos = arc_offsets_[v];
      for (const NeighborEntry& entry : graph.neighbors(v))
        arcs_[pos++] = view_.arc_from(entry.edge, v);
      if (variant_ == DistMisVariant::kGbg) {
        for (const NeighborEntry& entry : graph.neighbors(v))
          arcs_[pos++] = ArcView::reverse(view_.arc_from(entry.edge, v));
      }
    }
    own_colors_.assign(arcs_.size(), kNoColor);
    build_ball_rows(pool);
  }

  /// Sizes per-shard scratch. Everything a node knows lives in its own
  /// slots, so a set may be re-prepared for another shard count at will.
  void prepare_shards(std::size_t shards) override {
    FDLSP_REQUIRE(shards > 0, "shard count must be positive");
    shards_.resize(shards);
    for (ShardScratch& scratch : shards_) {
      scratch.round_values.reserve(max_degree_);
      scratch.row_index.reserve(max_ball_row_);
      // The largest flood relayed or emitted is a win flood from a
      // degree-Δ origin: 3 header words + 2 per incident arc (≤ 2Δ arcs).
      scratch.relay_scratch.data.reserve(3 + 4 * max_degree_);
      scratch.win_scratch.data.reserve(3 + 4 * max_degree_);
    }
  }

  std::size_t size() const override { return retired_.size(); }

  bool finished(NodeId v) const override { return retired_[v] != 0; }

  bool ready_for_phase_advance(NodeId v) const override {
    if (retired_[v] != 0) return true;
    if (in_luby_phase_[v] != 0) return luby_state_[v] != LubyState::kUndecided;
    // Compete phase: S members must finish; everyone else just relays.
    return luby_state_[v] != LubyState::kInSet;
  }

  void on_phase(NodeId v, std::size_t new_phase) override {
    rounds_in_phase_[v] = 0;
    in_luby_phase_[v] = (new_phase % 2 == 0) ? 1 : 0;
    if (retired_[v] != 0) return;
    if (in_luby_phase_[v] != 0) {
      luby_state_[v] = LubyState::kUndecided;
    }
    rivals_[v].clear();
    // Flood dedup keys are dead across the barrier: the (origin, block)
    // pair of a flood is unique to one compete phase (a node competes in at
    // most one phase — it retires when it wins, and the phase only advances
    // once every member has), and the barrier requires zero messages in
    // flight. Dropping them caps seen_ at its single-phase high-water mark
    // (clear() keeps the table storage), so the monotone key stream cannot
    // force table doublings arbitrarily late into the run.
    seen_[v].clear();
  }

  // fdlsp-lint: hot — per-round steady-state path, no allocator traffic
  void on_round(NodeId v, SyncContext& ctx,
                const SyncInbox& inbox) override {
    ShardScratch& scratch = shards_[ctx.shard()];
    scratch.round_values.clear();
    for (const Message& message : inbox) process(v, scratch, ctx, message);
    if (retired_[v] == 0) {
      if (in_luby_phase_[v] != 0) {
        luby_step(v, scratch, ctx);
      } else if (luby_state_[v] == LubyState::kInSet) {
        compete_step(v, scratch, ctx);
      }
    }
    ++rounds_in_phase_[v];
  }

  /// The colors the winners assigned. An arc two winners colored — only
  /// faults that void the algorithm's knowledge guarantees allow that — is
  /// counted in `double_colored` and keeps the later win's color.
  ArcColoring collect_coloring(std::size_t& double_colored) const {
    ArcColoring coloring(num_arcs());
    double_colored = 0;
    for (NodeId v = 0; v < size(); ++v) {
      for (std::size_t i = arc_offsets_[v]; i < arc_offsets_[v + 1]; ++i) {
        if (own_colors_[i] == kNoColor) continue;
        const ArcId a = arcs_[i];
        if (coloring.is_colored(a)) {
          ++double_colored;
          // Only the arc's other endpoint, walked earlier, holds it too.
          const NodeId other =
              view_.tail(a) == v ? view_.head(a) : view_.tail(a);
          if (win_seq_[v] < win_seq_[other]) continue;
        }
        coloring.set(a, own_colors_[i]);
      }
    }
    return coloring;
  }

  std::size_t num_arcs() const noexcept { return view_.num_arcs(); }

 private:
  /// Scratch owned by one shard: exactly one worker executes a shard's
  /// callbacks, so nothing here needs synchronization, and the serial
  /// engine reports shard 0 for everyone.
  struct ShardScratch {
    // Same-round scratch (cleared at every on_round entry).
    std::vector<std::pair<std::int64_t, std::int64_t>> round_values;
    EpochMarks used_colors;  // scratch of smallest_known_feasible
    Message relay_scratch;   // recycled flood-relay buffer (see forward)
    Message win_scratch;     // recycled win-flood buffer (see win)
    // Ball edge -> offset in the winner's row, rebuilt by every win(): the
    // greedy step looks up ~100 conflicting arcs per own arc, and a probe
    // into this small table beats a binary search of the row each time.
    FlatHashMap<EdgeId, std::uint32_t> row_index;
    // Wins this shard has run so far. On the serial path — the only one
    // where two winners can color one arc — this orders wins in time.
    std::uint32_t wins = 0;
  };

  /// Scratch of one build_ball_rows worker: the distance-2 ball of the
  /// current node and its membership marks.
  struct BallWalk {
    EpochMarks marks;
    std::vector<NodeId> ball;

    /// Calls fn(e) once for every edge with an endpoint in N²[v].
    template <typename Fn>
    void for_each_edge(const Graph& graph, NodeId v, Fn&& fn) {
      marks.begin();
      ball.assign(1, v);
      marks.mark(v);
      for (std::size_t hop = 0, lo = 0; hop < 2; ++hop) {
        const std::size_t hi = ball.size();
        for (; lo < hi; ++lo)
          for (const NeighborEntry& entry : graph.neighbors(ball[lo]))
            if (marks.mark_if_new(entry.to)) ball.push_back(entry.to);
      }
      // An edge inside the ball is reported from its lower endpoint only.
      for (const NodeId x : ball)
        for (const NeighborEntry& entry : graph.neighbors(x))
          if (!marks.marked(entry.to) || x < entry.to) fn(entry.edge);
    }
  };

  /// Builds the static knowledge rows: for each node v, the sorted ids of
  /// the edges with an endpoint in N²[v] (v's distance-2 ball), as a CSR
  /// with two color slots per edge, one per direction.
  ///
  /// Why the ball covers everything v ever reads: v reads colors only in
  /// win(), for its own arcs and, through smallest_known_feasible, for
  /// every arc conflicting with one of them. An own arc is incident to v.
  /// An arc b conflicting with an own arc a = (t -> h), v in {t, h}, is one
  /// of (see for_each_conflicting_arc): an arc incident on t or h, whose
  /// edge has an endpoint in N¹[v]; an out-arc of a neighbor of h, whose
  /// tail is in N²[v]; or an in-arc of a neighbor of t, whose head is in
  /// N²[v]. So every arc v queries lies on an edge with an endpoint in
  /// N²[v], and a win-flood entry outside the ball is never read: process()
  /// drops it instead of storing it. Topology within distance 2 is static
  /// initial knowledge (algos/dist_mis.h), so the rows carry no dynamic
  /// information — the colors in them arrive only through messages.
  ///
  /// Rows are independent, so the pooled build (count pass, prefix sum,
  /// fill pass) is byte-identical to the serial one.
  void build_ball_rows(ThreadPool* pool) {
    const std::size_t n = size();
    const Graph& graph = view_.graph();
    // Runs row_fn(v, walk) for every node; one task per block of nodes,
    // each with its own walk scratch.
    const auto for_each_row = [&](auto&& row_fn) {
      const std::size_t blocks =
          pool != nullptr ? std::min<std::size_t>(n, 4 * pool->size()) : 1;
      const auto run_block = [&](std::size_t b) {
        BallWalk walk;
        walk.marks.reserve(n);
        for (std::size_t v = n * b / blocks; v < n * (b + 1) / blocks; ++v)
          row_fn(static_cast<NodeId>(v), walk);
      };
      if (pool != nullptr)
        parallel_for(*pool, blocks, run_block);
      else
        run_block(0);
    };
    ball_offsets_.assign(n + 1, 0);
    for_each_row([&](NodeId v, BallWalk& walk) {
      walk.for_each_edge(graph, v, [&](EdgeId) { ++ball_offsets_[v + 1]; });
    });
    for (std::size_t v = 0; v < n; ++v)
      max_ball_row_ = std::max(max_ball_row_, ball_offsets_[v + 1]);
    std::partial_sum(ball_offsets_.begin(), ball_offsets_.end(),
                     ball_offsets_.begin());
    ball_edges_.resize(ball_offsets_[n]);
    for_each_row([&](NodeId v, BallWalk& walk) {
      EdgeId* const row = ball_edges_.data() + ball_offsets_[v];
      EdgeId* out = row;
      walk.for_each_edge(graph, v, [&out](EdgeId e) { *out++ = e; });
      std::sort(row, out);
    });
    ball_colors_.assign(2 * ball_edges_.size(), kNoColor);
  }

  /// Node v's knowledge slot for arc a (kNoColor = unknown), or null when
  /// a's edge lies outside v's ball.
  // fdlsp-lint: hot — per-message steady-state path, no allocator traffic
  Color* known_slot(NodeId v, ArcId a) {
    const EdgeId e = ArcView::edge_of(a);
    const EdgeId* first = ball_edges_.data() + ball_offsets_[v];
    const EdgeId* last = ball_edges_.data() + ball_offsets_[v + 1];
    const EdgeId* it = std::lower_bound(first, last, e);
    if (it == last || *it != e) return nullptr;
    const auto pos = static_cast<std::size_t>(it - ball_edges_.data());
    return &ball_colors_[2 * pos + (a & 1)];
  }

  /// Winner v's slot for arc a, through the row index win() built. Every
  /// arc v may read lies in its ball.
  Color& queried_slot(NodeId v, const ShardScratch& scratch, ArcId a) {
    const std::uint32_t* offset = scratch.row_index.find(ArcView::edge_of(a));
    FDLSP_REQUIRE(offset != nullptr, "DistMIS queried an arc outside the ball");
    return ball_colors_[2 * (ball_offsets_[v] + *offset) + (a & 1)];
  }

  // fdlsp-lint: hot — per-message steady-state path, no allocator traffic
  void process(NodeId v, ShardScratch& scratch, SyncContext& ctx,
               const Message& message) {
    switch (message.tag) {
      case kTagMisValue:
        scratch.round_values.push_back(
            {message.data[0], static_cast<std::int64_t>(message.from)});
        break;
      case kTagMisJoin:
        if (luby_state_[v] == LubyState::kUndecided)
          luby_state_[v] = LubyState::kDominated;
        break;
      case kTagCompValue: {
        const auto origin = static_cast<NodeId>(message.data[0]);
        const auto block = static_cast<std::uint64_t>(message.data[1]);
        if (!mark_seen(v, message.tag, origin, block)) break;
        if (retired_[v] == 0 && luby_state_[v] == LubyState::kInSet &&
            block == own_block_[v] && origin != v) {
          rivals_[v].push_back(
              {message.data[2], static_cast<std::int64_t>(origin)});
        }
        forward(scratch, ctx, message);
        break;
      }
      case kTagCompWin: {
        const auto origin = static_cast<NodeId>(message.data[0]);
        const auto block = static_cast<std::uint64_t>(message.data[1]);
        if (!mark_seen(v, message.tag, origin, block)) break;
        for (std::size_t i = 3; i + 1 < message.data.size(); i += 2) {
          // Entries outside v's ball are never read (build_ball_rows).
          Color* slot = known_slot(v, static_cast<ArcId>(message.data[i]));
          if (slot != nullptr) *slot = static_cast<Color>(message.data[i + 1]);
        }
        forward(scratch, ctx, message);
        break;
      }
      default:
        FDLSP_REQUIRE(false, "unknown message tag");
    }
  }

  /// Relays a flooded message with a decremented TTL. The relay goes
  /// through a shard scratch and the copying broadcast overload, so a
  /// warmed shard relays even spilled win floods with zero allocations.
  // fdlsp-lint: hot — per-message steady-state path, no allocator traffic
  void forward(ShardScratch& scratch, SyncContext& ctx,
               const Message& message) {
    // kCompValue layout: [origin, block, value, ttl];
    // kCompWin layout:   [origin, block, ttl, ...].
    const std::size_t ttl_index = message.tag == kTagCompValue ? 3 : 2;
    if (message.data[ttl_index] <= 1) return;
    Message& relay = scratch.relay_scratch;
    relay = message;  // copy-assign: scratch capacity is reused
    relay.data[ttl_index] = message.data[ttl_index] - 1;
    ctx.broadcast(relay);
  }

  /// Competition priority: degree-major, random-minor. High-degree nodes
  /// win early and color first — the same heuristic the DFS algorithm's
  /// max-degree token rule uses, and the reason both match the paper's
  /// slot counts (a random priority costs ~10-15% more slots).
  std::int64_t draw_priority(NodeId v) {
    const auto degree = static_cast<std::uint64_t>(view_.graph().degree(v));
    return static_cast<std::int64_t>((degree << 40) | (rng_[v]() >> 25));
  }

  /// One round of Luby's MIS: even offsets broadcast values, odd offsets
  /// decide on local maxima.
  void luby_step(NodeId v, ShardScratch& scratch, SyncContext& ctx) {
    if (luby_state_[v] != LubyState::kUndecided) return;
    if (rounds_in_phase_[v] % 2 == 0) {
      luby_value_[v] = draw_priority(v);
      Message message;
      message.tag = kTagMisValue;
      message.data = {luby_value_[v]};
      // Lvalue broadcast = the engine's copying path: the payload lands in
      // a recycled outbox slot without evicting its spilled capacity.
      ctx.broadcast(message);
    } else {
      const std::pair<std::int64_t, std::int64_t> mine{
          luby_value_[v], static_cast<std::int64_t>(v)};
      const bool is_max = std::all_of(
          scratch.round_values.begin(), scratch.round_values.end(),
          [&](const auto& other) { return mine > other; });
      if (is_max) {
        luby_state_[v] = LubyState::kInSet;
        Message message;
        message.tag = kTagMisJoin;
        ctx.broadcast(message);
      }
    }
  }

  /// One round of the competition phase (block length 2D+1).
  void compete_step(NodeId v, ShardScratch& scratch, SyncContext& ctx) {
    const std::size_t block_length = 2 * flood_radius_ + 1;
    const std::size_t offset = rounds_in_phase_[v] % block_length;
    if (offset == 0) {
      own_block_[v] = rounds_in_phase_[v] / block_length;
      comp_value_[v] = draw_priority(v);
      rivals_[v].clear();
      Message message;
      message.tag = kTagCompValue;
      message.data = {static_cast<std::int64_t>(v),
                      static_cast<std::int64_t>(own_block_[v]), comp_value_[v],
                      static_cast<std::int64_t>(flood_radius_)};
      mark_seen(v, kTagCompValue, v, own_block_[v]);
      ctx.broadcast(message);
    } else if (offset == flood_radius_) {
      const std::pair<std::int64_t, std::int64_t> mine{
          comp_value_[v], static_cast<std::int64_t>(v)};
      const bool is_max =
          std::all_of(rivals_[v].begin(), rivals_[v].end(),
                      [&](const auto& other) { return mine > other; });
      if (is_max) win(v, scratch, ctx);
    }
  }

  /// Joins S': greedily colors this node's arcs with distance-2 knowledge,
  /// retires, and floods the assignment.
  void win(NodeId v, ShardScratch& scratch, SyncContext& ctx) {
    Message& message = scratch.win_scratch;  // pre-sized by prepare_shards
    message.tag = kTagCompWin;
    message.data.clear();
    message.data.push_back(static_cast<std::int64_t>(v));
    message.data.push_back(static_cast<std::int64_t>(own_block_[v]));
    message.data.push_back(static_cast<std::int64_t>(flood_radius_));
    const std::size_t row = ball_offsets_[v];
    scratch.row_index.clear();
    for (std::size_t p = row; p < ball_offsets_[v + 1]; ++p)
      scratch.row_index.insert_or_assign(ball_edges_[p],
                                         static_cast<std::uint32_t>(p - row));
    const std::size_t arcs_end = arc_offsets_[v + 1];
    for (std::size_t i = arc_offsets_[v]; i < arcs_end; ++i) {
      const ArcId a = arcs_[i];
      Color& known = queried_slot(v, scratch, a);
      if (known != kNoColor) continue;  // colored by a neighbor
      const Color c = smallest_known_feasible(v, scratch, a);
      known = c;
      own_colors_[i] = c;
      message.data.push_back(static_cast<std::int64_t>(a));
      message.data.push_back(static_cast<std::int64_t>(c));
    }
    mark_seen(v, kTagCompWin, v, own_block_[v]);
    ctx.broadcast(message);
    retired_[v] = 1;
    win_seq_[v] = scratch.wins++;
  }

  /// Smallest color not used by any known-colored conflicting arc. The
  /// conflict enumeration stays on the fly (see coloring/conflict_index.h on
  /// why node programs do not prebuild); the used-set is an epoch-stamped
  /// sweep instead of a per-call vector + sort + unique.
  Color smallest_known_feasible(NodeId v, ShardScratch& scratch, ArcId a) {
    scratch.used_colors.begin();
    for_each_conflicting_arc(view_, a, [&](ArcId b) {
      const Color color = queried_slot(v, scratch, b);
      if (color != kNoColor)
        scratch.used_colors.mark(static_cast<std::size_t>(color));
    });
    return static_cast<Color>(scratch.used_colors.first_unmarked());
  }

  /// Returns true the first time node v sees a (tag, origin, block) flood.
  // fdlsp-lint: hot — per-message steady-state path, no allocator traffic
  bool mark_seen(NodeId v, std::int32_t tag, NodeId origin,
                 std::uint64_t block) {
    const std::uint64_t key = (static_cast<std::uint64_t>(origin) << 34) |
                              (block << 2) |
                              static_cast<std::uint64_t>(tag & 3);
    return seen_[v].insert(key);
  }

  const ArcView view_;
  DistMisVariant variant_;
  std::size_t flood_radius_;
  std::size_t max_degree_;

  // --- per-node state, parallel arrays indexed by node id ---
  std::vector<Rng> rng_;
  std::vector<char> retired_;
  std::vector<char> in_luby_phase_;
  std::vector<std::size_t> rounds_in_phase_;
  std::vector<LubyState> luby_state_;
  std::vector<std::int64_t> luby_value_;
  std::vector<std::uint64_t> own_block_;
  std::vector<std::int64_t> comp_value_;
  std::vector<std::uint32_t> win_seq_;  // see ShardScratch::wins
  // Rival lists persist across the rounds of one compete block and dedup
  // sets across one phase, so both stay per node (cleared, never freed).
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> rivals_;
  std::vector<FlatHashSet<std::uint64_t>> seen_;
  // CSR of the arcs each node colors on a win (fixed at construction), and
  // the colors it gave them (kNoColor: not colored by this node).
  std::vector<std::size_t> arc_offsets_;
  std::vector<ArcId> arcs_;
  std::vector<Color> own_colors_;
  // Per-node knowledge rows (build_ball_rows): node v's sorted ball edges
  // are ball_edges_[ball_offsets_[v], ball_offsets_[v + 1]), and the color
  // v knows for the arc of direction d over ball_edges_[p] is
  // ball_colors_[2 * p + d] (kNoColor: unknown).
  std::vector<std::size_t> ball_offsets_;
  std::vector<EdgeId> ball_edges_;
  std::vector<Color> ball_colors_;
  std::size_t max_ball_row_ = 0;  // sizes ShardScratch::row_index

  std::vector<ShardScratch> shards_;  // indexed by ctx.shard()
};

}  // namespace

ScheduleResult run_dist_mis(const Graph& graph,
                            const DistMisOptions& options) {
  DistMisSet set(graph, options.variant, options.seed, options.pool);
  const RunConfig config{.seed = options.seed,
                         .trace = options.trace,
                         .faults = options.faults,
                         .reliable = options.reliable,
                         .pool = options.pool,
                         .shards = options.shards};
  SyncRun run = run_sync(graph, set, config, options.max_rounds,
                         options.audit);
  // Crashed nodes cannot color their arcs, and lossy channels without the
  // reliable wrapper void the algorithm's knowledge guarantees — such runs
  // report what happened instead of aborting, and the fault oracles judge
  // the outcome.
  const bool relaxed =
      run.faulted && (options.faults->crash_fraction > 0.0 ||
                      options.faults->link_down_fraction > 0.0 ||
                      !options.reliable);
  if (!relaxed)
    FDLSP_REQUIRE(run.metrics.completed,
                  "DistMIS did not complete in round budget");

  ScheduleResult result;
  result.completed = run.metrics.completed;
  result.faults = run.metrics.faults;
  std::size_t double_colored = 0;
  result.coloring = set.collect_coloring(double_colored);
  if (!relaxed) {
    FDLSP_REQUIRE(double_colored == 0, "arc colored by two nodes");
    FDLSP_REQUIRE(result.coloring.complete(), "DistMIS left arcs uncolored");
  }
  result.num_slots = result.coloring.num_colors_used();
  result.rounds = run.metrics.rounds;
  result.messages = run.metrics.messages;
  result.transport = run.transport;
  result.suspected = std::move(run.suspected);
  return result;
}

ScheduleResult run_dist_mis_async(const Graph& graph,
                                  const AsyncDistMisOptions& options) {
  DistMisSet set(graph, options.variant, options.seed, nullptr);
  // External contexts always report shard 0 — the synchronizer's lockstep
  // serializes node callbacks.
  set.prepare_shards(1);
  RoundSynchronizer coordinator(set, options.max_rounds);
  const FaultSpec spec =
      options.faults != nullptr ? *options.faults : FaultSpec{};
  std::vector<std::unique_ptr<AsyncProgram>> programs;
  programs.reserve(graph.num_nodes());
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    auto node =
        std::make_unique<SyncOverAsyncProgram>(graph, set, v, coordinator);
    if (options.reliable)
      programs.push_back(
          std::make_unique<ReliableAsyncProgram>(std::move(node), spec));
    else
      programs.push_back(std::move(node));
  }
  AsyncEngine engine(
      graph, std::move(programs),
      make_delay_schedule(options.delay_model, options.delay_seed));
  engine.set_trace(options.trace);
  engine.set_alloc_audit(options.audit);
  std::optional<FaultPlan> plan;
  if (options.faults != nullptr && options.faults->any()) {
    plan.emplace(spec, graph);
    engine.set_fault_plan(&*plan);
  }
  const AsyncMetrics async_metrics = engine.run(options.max_messages);
  if (options.engine_metrics != nullptr)
    *options.engine_metrics = async_metrics;
  const SyncMetrics metrics = coordinator.metrics();

  // Message faults without the reliable wrapper lose frames and stall the
  // lockstep — such runs report what happened instead of aborting.
  const bool relaxed = plan.has_value() && !options.reliable;
  if (!relaxed) {
    FDLSP_REQUIRE(async_metrics.completed && metrics.completed,
                  "async DistMIS did not complete in budget");
    FDLSP_REQUIRE(async_metrics.fifo_ok, "async engine violated channel FIFO");
  }

  ScheduleResult result;
  result.completed = async_metrics.completed && metrics.completed;
  result.faults = async_metrics.faults;
  std::size_t double_colored = 0;
  result.coloring = set.collect_coloring(double_colored);
  if (!relaxed) {
    FDLSP_REQUIRE(double_colored == 0, "arc colored by two nodes");
    FDLSP_REQUIRE(result.coloring.complete(), "DistMIS left arcs uncolored");
  }
  result.num_slots = result.coloring.num_colors_used();
  result.rounds = metrics.rounds;
  result.messages = metrics.messages;
  result.async_time = async_metrics.completion_time;
  result.stall_diagnosis = async_metrics.stall_diagnosis;
  if (options.reliable) {
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      const auto& wrapper =
          static_cast<const ReliableAsyncProgram&>(engine.program(v));
      result.transport.merge(wrapper.transport_stats());
      result.suspected.insert(result.suspected.end(),
                              wrapper.suspected_peers().begin(),
                              wrapper.suspected_peers().end());
    }
    std::sort(result.suspected.begin(), result.suspected.end());
    result.suspected.erase(
        std::unique(result.suspected.begin(), result.suspected.end()),
        result.suspected.end());
  }
  return result;
}

}  // namespace fdlsp
