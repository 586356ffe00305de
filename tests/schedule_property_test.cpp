// Cross-algorithm property tests: every scheduler produces feasible
// schedules inside the theoretical bounds on randomized instance sweeps,
// and the relative orderings the paper reports hold on average.
#include <gtest/gtest.h>

#include <tuple>

#include "algos/scheduler.h"
#include "coloring/bounds.h"
#include "coloring/checker.h"
#include "coloring/exact.h"
#include "graph/algorithms.h"
#include "graph/arcs.h"
#include "graph/generators.h"
#include "support/rng.h"

namespace fdlsp {
namespace {

using Param = std::tuple<SchedulerKind, std::uint64_t /*seed*/>;

class AllSchedulersTest : public ::testing::TestWithParam<Param> {};

TEST_P(AllSchedulersTest, FeasibleAndBoundedOnConnectedGnm) {
  const auto [kind, seed] = GetParam();
  Rng rng(seed);
  Graph graph = generate_gnm(18, 36, rng);
  while (!is_connected(graph)) graph = generate_gnm(18, 36, rng);
  const auto result = run_scheduler(kind, graph, {.seed = seed});
  const ArcView view(graph);
  EXPECT_TRUE(is_feasible_schedule(view, result.coloring))
      << scheduler_name(kind);
  EXPECT_GE(result.num_slots, lower_bound_trivial(graph));
  // D-MGC may exceed 2Δ² only through injection; everyone else must not.
  if (kind != SchedulerKind::kDmgc) {
    EXPECT_LE(result.num_slots, upper_bound_colors(graph));
  }
}

TEST_P(AllSchedulersTest, FeasibleOnUdg) {
  const auto [kind, seed] = GetParam();
  Rng rng(seed * 77 + 1);
  auto geo = generate_udg(50, 4.0, 0.6, rng);
  auto nodes = largest_component(geo.graph);
  const Graph graph = induced_subgraph(geo.graph, nodes).graph;
  const auto result = run_scheduler(kind, graph, {.seed = seed});
  EXPECT_TRUE(is_feasible_schedule(ArcView(graph), result.coloring))
      << scheduler_name(kind);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllSchedulersTest,
    ::testing::Combine(::testing::Values(SchedulerKind::kDistMisGbg,
                                         SchedulerKind::kDistMisGeneral,
                                         SchedulerKind::kDfs,
                                         SchedulerKind::kDmgc,
                                         SchedulerKind::kGreedy),
                       ::testing::Values(1u, 2u, 3u, 4u)),
    [](const auto& param_info) {
      std::string name = scheduler_name(std::get<0>(param_info.param)) +
                         "_seed" + std::to_string(std::get<1>(param_info.param));
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

TEST(ScheduleComparison, NoAlgorithmBeatsTheOptimum) {
  Rng rng(401);
  for (int trial = 0; trial < 4; ++trial) {
    Graph graph = generate_gnm(9, 14, rng);
    while (!is_connected(graph)) graph = generate_gnm(9, 14, rng);
    const auto optimal = optimal_fdlsp(ArcView(graph));
    ASSERT_TRUE(optimal.optimal);
    for (SchedulerKind kind :
         {SchedulerKind::kDistMisGbg, SchedulerKind::kDistMisGeneral,
          SchedulerKind::kDfs, SchedulerKind::kDmgc, SchedulerKind::kGreedy}) {
      const auto result = run_scheduler(kind, graph, {.seed = 7});
      EXPECT_GE(result.num_slots, optimal.num_colors)
          << scheduler_name(kind) << " trial " << trial;
    }
  }
}

TEST(ScheduleComparison, ProposedAlgorithmsBeatDmgcOnAverageGeneralGraphs) {
  // Figures 11-12: DFS produces ~25% fewer slots than D-MGC on general
  // graphs; DistMIS also fewer. Assert the averaged ordering (with slack).
  Rng rng(403);
  double dfs_total = 0, dmgc_total = 0, mis_total = 0;
  int trials = 0;
  while (trials < 8) {
    const Graph graph = generate_gnm(40, 140, rng);
    if (!is_connected(graph)) continue;
    ++trials;
    dfs_total += static_cast<double>(
        run_scheduler(SchedulerKind::kDfs, graph, {.seed = 11}).num_slots);
    dmgc_total += static_cast<double>(
        run_scheduler(SchedulerKind::kDmgc, graph, {.seed = 11}).num_slots);
    mis_total += static_cast<double>(
        run_scheduler(SchedulerKind::kDistMisGeneral, graph, {.seed = 11})
            .num_slots);
  }
  EXPECT_LT(dfs_total, dmgc_total);
  EXPECT_LT(mis_total, dmgc_total * 1.1);  // DistMIS is close or better
}

TEST(ScheduleName, AllKindsNamed) {
  EXPECT_EQ(scheduler_name(SchedulerKind::kDistMisGbg), "distMIS");
  EXPECT_EQ(scheduler_name(SchedulerKind::kDistMisGeneral), "distMIS-gen");
  EXPECT_EQ(scheduler_name(SchedulerKind::kDfs), "DFS");
  EXPECT_EQ(scheduler_name(SchedulerKind::kDmgc), "D-MGC");
  EXPECT_EQ(scheduler_name(SchedulerKind::kGreedy), "greedy");
  EXPECT_EQ(scheduler_name(SchedulerKind::kRandomized), "randomized");
}

}  // namespace
}  // namespace fdlsp
