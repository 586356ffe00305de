// Tests for the distributed repair protocol.
#include <gtest/gtest.h>

#include <cstdint>

#include "algos/dist_repair.h"
#include "algos/repair.h"
#include "coloring/checker.h"
#include "coloring/greedy.h"
#include "graph/arcs.h"
#include "graph/generators.h"
#include "support/rng.h"

namespace fdlsp {
namespace {

TEST(DistRepair, ColorsFromScratch) {
  // Entirely uncolored input: repair degenerates to distributed coloring.
  const Graph graph = generate_cycle(8);
  const ArcView view(graph);
  const auto result =
      run_distributed_repair(graph, ArcColoring(view.num_arcs()), {.seed = 3});
  EXPECT_TRUE(is_feasible_schedule(view, result.coloring));
  EXPECT_EQ(result.recolored_arcs, view.num_arcs());
  EXPECT_GT(result.rounds, 0u);
}

TEST(DistRepair, KeepsFeasibleScheduleUntouched) {
  Rng rng(1001);
  const Graph graph = generate_gnm(25, 55, rng);
  const ArcView view(graph);
  const ArcColoring good = greedy_coloring(view);
  const auto result = run_distributed_repair(graph, good, {.seed = 5});
  EXPECT_TRUE(is_feasible_schedule(view, result.coloring));
  EXPECT_EQ(result.recolored_arcs, 0u);
  EXPECT_EQ(result.coloring.raw(), good.raw());
}

TEST(DistRepair, FixesInjectedConflict) {
  const Graph path = generate_path(4);
  const ArcView view(path);
  ArcColoring bad = greedy_coloring(view);
  bad.set(view.find_arc(2, 3), bad.color(view.find_arc(0, 1)));
  const auto result = run_distributed_repair(path, bad, {.seed = 7});
  EXPECT_TRUE(is_feasible_schedule(view, result.coloring));
  EXPECT_GE(result.recolored_arcs, 1u);
  EXPECT_LT(result.recolored_arcs, view.num_arcs());
}

TEST(DistRepair, NodeJoinIsLocal) {
  Rng rng(1003);
  auto positions = generate_udg(40, 5.0, 0.8, rng).positions;
  const Graph old_graph = udg_from_positions(positions, 0.8);
  const ArcView old_view(old_graph);
  const ArcColoring old_coloring = greedy_coloring(old_view);

  positions.push_back(Point{2.5, 2.5});
  const Graph new_graph = udg_from_positions(positions, 0.8);
  const ArcView new_view(new_graph);
  const ArcColoring transferred =
      transfer_coloring(old_view, old_coloring, new_view);

  const auto result =
      run_distributed_repair(new_graph, transferred, {.seed = 9});
  EXPECT_TRUE(is_feasible_schedule(new_view, result.coloring));
  EXPECT_LT(result.recolored_arcs, new_view.num_arcs() / 2);
}

TEST(DistRepair, ChurnSequenceStaysFeasible) {
  Rng rng(1007);
  auto positions = generate_udg(30, 4.0, 0.8, rng).positions;
  Graph graph = udg_from_positions(positions, 0.8);
  ArcColoring coloring = greedy_coloring(ArcView(graph));
  for (std::uint64_t step = 0; step < 10; ++step) {
    const std::size_t mover = rng.next_index(positions.size());
    positions[mover] = Point{rng.next_double() * 4.0,
                             rng.next_double() * 4.0};
    const Graph new_graph = udg_from_positions(positions, 0.8);
    const ArcView new_view(new_graph);
    const ArcColoring transferred =
        transfer_coloring(ArcView(graph), coloring, new_view);
    const auto result =
        run_distributed_repair(new_graph, transferred, {.seed = 100 + step});
    ASSERT_TRUE(is_feasible_schedule(new_view, result.coloring))
        << "step " << step;
    graph = new_graph;
    coloring = result.coloring;
  }
}

TEST(DistRepair, AgreesWithCentralizedRepairOnCost) {
  // The distributed protocol's clearing is more conservative than the
  // centralized one's, but the cost must stay the same order of magnitude.
  Rng rng(1009);
  auto positions = generate_udg(35, 4.5, 0.8, rng).positions;
  const Graph old_graph = udg_from_positions(positions, 0.8);
  const ArcColoring old_coloring = greedy_coloring(ArcView(old_graph));
  positions[7] = Point{2.0, 2.0};
  const Graph new_graph = udg_from_positions(positions, 0.8);
  const ArcView new_view(new_graph);
  const ArcColoring transferred =
      transfer_coloring(ArcView(old_graph), old_coloring, new_view);

  const auto distributed =
      run_distributed_repair(new_graph, transferred, {.seed = 11});
  const auto centralized = repair_schedule(new_view, transferred);
  EXPECT_TRUE(is_feasible_schedule(new_view, distributed.coloring));
  EXPECT_TRUE(is_feasible_schedule(new_view, centralized.coloring));
  if (centralized.recolored_arcs > 0) {
    EXPECT_LE(distributed.recolored_arcs,
              10 * centralized.recolored_arcs + 10);
  }
}

TEST(DistRepair, DeterministicUnderSeed) {
  Rng rng(1013);
  const Graph graph = generate_gnm(20, 40, rng);
  const ArcView view(graph);
  const ArcColoring empty(view.num_arcs());
  const auto a = run_distributed_repair(graph, empty, {.seed = 77});
  const auto b = run_distributed_repair(graph, empty, {.seed = 77});
  EXPECT_EQ(a.coloring.raw(), b.coloring.raw());
  EXPECT_EQ(a.rounds, b.rounds);
}

TEST(DistRepair, EdgelessGraph) {
  const auto result =
      run_distributed_repair(Graph(3), ArcColoring(0), {.seed = 1});
  EXPECT_EQ(result.num_slots, 0u);
}

}  // namespace
}  // namespace fdlsp
