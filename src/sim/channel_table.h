// Precomputed (sender, receiver) -> directed-channel lookup for the engines.
//
// Both engines identify a directed channel by the arc id of the bi-directed
// view (graph/arcs.h): edge e = {u, v} with u < v carries arc 2e for u->v
// and arc 2e+1 for v->u. The engines used to recover the channel of every
// single message with Graph::find_edge plus an Edge load — two binary
// searches and a cache miss on the hot path. This table is built once at
// engine setup, aligned with the graph's CSR adjacency, so resolving a
// channel is one binary search over the sender's (sorted) neighbor row that
// doubles as the "direct neighbors only" validation.
#pragma once

#include <algorithm>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace fdlsp {

/// Channel ids per (node, adjacency-position), CSR-aligned with the graph.
class ChannelTable {
 public:
  ChannelTable() = default;

  explicit ChannelTable(const Graph& graph) { build(graph); }

  /// (Re)builds the table for `graph`. Linear in the adjacency size; edge
  /// endpoints are stored with u < v, so the direction bit of the arc id is
  /// just the id comparison — no Edge loads.
  void build(const Graph& graph) {
    const std::size_t n = graph.num_nodes();
    offsets_.assign(n + 1, 0);
    channels_.clear();
    for (NodeId v = 0; v < n; ++v) {
      offsets_[v] = channels_.size();
      for (const NeighborEntry& entry : graph.neighbors(v))
        channels_.push_back(
            static_cast<ArcId>((entry.edge << 1) | (v < entry.to ? 0u : 1u)));
    }
    offsets_[n] = channels_.size();
  }

  bool empty() const noexcept { return channels_.empty() && offsets_.empty(); }

  /// Channel (arc id) of the directed link from -> to, or kNoArc when `to`
  /// is not a direct neighbor of `from`. One binary search over the
  /// sender's neighbor row; serves as the neighbor validation as well.
  ArcId channel(const Graph& graph, NodeId from, NodeId to) const {
    FDLSP_ASSERT(static_cast<std::size_t>(from) + 1 < offsets_.size(),
                 "sender outside the table");
    const std::span<const NeighborEntry> row = graph.neighbors(from);
    const auto it = std::lower_bound(
        row.begin(), row.end(), to,
        [](const NeighborEntry& entry, NodeId node) { return entry.to < node; });
    if (it == row.end() || it->to != to) return kNoArc;
    const auto position = static_cast<std::size_t>(it - row.begin());
    return channels_[offsets_[from] + position];
  }

  /// Channel of the `position`-th arc out of `from` (adjacency order) — the
  /// O(1) lookup for senders that already know the neighbor's index, e.g.
  /// because they iterate the neighbor span.
  // fdlsp-lint: hot — per-send steady-state path, no allocator traffic
  ArcId channel_at(NodeId from, std::size_t position) const {
    const std::size_t row = offsets_[from];
    FDLSP_ASSERT(row + position < offsets_[from + 1],
                 "position outside the sender's adjacency row");
    return channels_[row + position];
  }

 private:
  std::vector<std::size_t> offsets_;  // num_nodes + 1 entries
  std::vector<ArcId> channels_;       // adjacency, CSR order
};

}  // namespace fdlsp
