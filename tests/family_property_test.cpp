// Parameterized property sweeps across topology families: the conflict
// machinery, bounds, exact optimum, and every scheduler agree on the
// fundamental invariants regardless of graph shape.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "algos/scheduler.h"
#include "coloring/bounds.h"
#include "coloring/checker.h"
#include "coloring/conflict.h"
#include "coloring/exact.h"
#include "coloring/greedy.h"
#include "graph/algorithms.h"
#include "graph/arcs.h"
#include "graph/generators.h"
#include "support/rng.h"

namespace fdlsp {
namespace {

struct Family {
  std::string name;
  std::function<Graph(Rng&)> make;
};

class FamilyTest : public ::testing::TestWithParam<Family> {};

TEST_P(FamilyTest, ConflictEnumerationMatchesPredicate) {
  Rng rng(11);
  const Graph graph = GetParam().make(rng);
  const ArcView view(graph);
  for (ArcId a = 0; a < view.num_arcs(); ++a) {
    const auto enumerated = conflicting_arcs(view, a);
    std::size_t reference = 0;
    for (ArcId b = 0; b < view.num_arcs(); ++b)
      if (b != a && arcs_conflict(view, a, b)) ++reference;
    EXPECT_EQ(enumerated.size(), reference) << GetParam().name << " arc " << a;
  }
}

TEST_P(FamilyTest, GreedySandwichedByBounds) {
  Rng rng(13);
  const Graph graph = GetParam().make(rng);
  if (graph.num_edges() == 0) return;
  const ArcView view(graph);
  const ArcColoring coloring = greedy_coloring(view);
  ASSERT_TRUE(is_feasible_schedule(view, coloring));
  EXPECT_GE(coloring.num_colors_used(), lower_bound_theorem1(graph));
  EXPECT_LE(coloring.num_colors_used(), upper_bound_colors(graph));
}

TEST_P(FamilyTest, TheoremOneLowerBoundNeverExceedsOptimum) {
  // The LB proof must hold against the true optimum, not just heuristics.
  Rng rng(17);
  const Graph graph = GetParam().make(rng);
  if (graph.num_edges() == 0 || graph.num_edges() > 12) return;  // exact-only
  const auto exact = optimal_fdlsp(ArcView(graph));
  ASSERT_TRUE(exact.optimal);
  EXPECT_GE(exact.num_colors, lower_bound_theorem1(graph))
      << GetParam().name;
}

TEST_P(FamilyTest, AllDistributedSchedulersFeasible) {
  Rng rng(19);
  const Graph graph = GetParam().make(rng);
  for (SchedulerKind kind :
       {SchedulerKind::kDistMisGbg, SchedulerKind::kDistMisGeneral,
        SchedulerKind::kDmgc, SchedulerKind::kRandomized}) {
    const auto result = run_scheduler(kind, graph, {.seed = 23});
    EXPECT_TRUE(is_feasible_schedule(ArcView(graph), result.coloring))
        << GetParam().name << " / " << scheduler_name(kind);
  }
  if (is_connected(graph) && graph.num_nodes() > 0) {
    const auto dfs = run_scheduler(SchedulerKind::kDfs, graph, {.seed = 23});
    EXPECT_TRUE(is_feasible_schedule(ArcView(graph), dfs.coloring));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, FamilyTest,
    ::testing::Values(
        Family{"path", [](Rng&) { return generate_path(10); }},
        Family{"even_cycle", [](Rng&) { return generate_cycle(10); }},
        Family{"odd_cycle", [](Rng&) { return generate_cycle(9); }},
        Family{"star", [](Rng&) { return generate_star(9); }},
        Family{"complete", [](Rng&) { return generate_complete(6); }},
        Family{"bipartite",
               [](Rng&) { return generate_complete_bipartite(3, 4); }},
        Family{"grid", [](Rng&) { return generate_grid(4, 4); }},
        Family{"tree",
               [](Rng& rng) { return generate_random_tree(20, rng); }},
        Family{"sparse_gnm",
               [](Rng& rng) { return generate_gnm(25, 30, rng); }},
        Family{"dense_gnm",
               [](Rng& rng) { return generate_gnm(15, 70, rng); }},
        Family{"udg",
               [](Rng& rng) {
                 return generate_udg(40, 4.0, 0.7, rng).graph;
               }},
        Family{"quasi_udg",
               [](Rng& rng) {
                 return generate_quasi_udg(40, 4.0, 0.7, 0.5, 0.5, rng).graph;
               }}),
    [](const auto& param_info) { return param_info.param.name; });

}  // namespace
}  // namespace fdlsp
