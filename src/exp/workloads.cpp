#include "exp/workloads.h"

#include <algorithm>

#include "coloring/checker.h"
#include "graph/algorithms.h"
#include "graph/arcs.h"
#include "support/check.h"

namespace fdlsp {

std::vector<UdgPoint> udg_series(double side_units) {
  std::vector<UdgPoint> series;
  for (std::size_t nodes : {50u, 100u, 200u, 300u})
    series.push_back(UdgPoint{nodes, side_units * kUdgUnitLength, 0.5});
  return series;
}

std::vector<GeneralPoint> general_series(std::size_t nodes) {
  std::vector<GeneralPoint> series;
  for (std::size_t degree : {4u, 8u, 16u, 32u})
    series.push_back(GeneralPoint{nodes, nodes * degree / 2});
  return series;
}

ScheduleResult run_scheduler_on_components(SchedulerKind kind,
                                           const Graph& graph,
                                           std::uint64_t seed) {
  if (kind != SchedulerKind::kDfs)
    return run_scheduler(kind, graph, {.seed = seed});

  // DFS needs a connected traversal: schedule each component independently
  // and let components share slots (no cross-component conflicts exist).
  const auto labels = connected_components(graph);
  const std::size_t components =
      labels.empty() ? 0
                     : *std::max_element(labels.begin(), labels.end()) + 1;
  if (components <= 1) return run_scheduler(kind, graph, {.seed = seed});

  ScheduleResult total;
  total.coloring = ArcColoring(2 * graph.num_edges());
  const ArcView view(graph);
  for (std::size_t comp = 0; comp < components; ++comp) {
    std::vector<NodeId> nodes;
    for (NodeId v = 0; v < graph.num_nodes(); ++v)
      if (labels[v] == comp) nodes.push_back(v);
    if (nodes.size() <= 1) continue;
    const InducedSubgraph sub = induced_subgraph(graph, nodes);
    const ScheduleResult part = run_scheduler(
        kind, sub.graph, {.seed = seed + comp});
    // Map sub-arc colors back to the global arc ids.
    const ArcView sub_view(sub.graph);
    for (ArcId a = 0; a < sub_view.num_arcs(); ++a) {
      const NodeId tail = sub.to_original[sub_view.tail(a)];
      const NodeId head = sub.to_original[sub_view.head(a)];
      const ArcId global = view.find_arc(tail, head);
      FDLSP_ASSERT(global != kNoArc, "component arc missing in parent");
      total.coloring.set(global, part.coloring.color(a));
    }
    total.rounds = std::max(total.rounds, part.rounds);
    total.messages += part.messages;
    total.async_time = std::max(total.async_time, part.async_time);
  }
  total.num_slots = total.coloring.num_colors_used();
  return total;
}

}  // namespace fdlsp
