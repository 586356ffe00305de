// Tests for the experiment harness: workloads, component-aware scheduling,
// parallel point runner and report rendering.
#include <gtest/gtest.h>

#include <sstream>

#include "coloring/checker.h"
#include "exp/report.h"
#include "exp/runner.h"
#include "exp/workloads.h"
#include "graph/algorithms.h"
#include "graph/arcs.h"

namespace fdlsp {
namespace {

TEST(Workloads, UdgSeriesMatchesPaper) {
  const auto series = udg_series(15.0);
  ASSERT_EQ(series.size(), 4u);
  EXPECT_EQ(series[0].nodes, 50u);
  EXPECT_EQ(series[3].nodes, 300u);
  for (const UdgPoint& point : series) {
    EXPECT_DOUBLE_EQ(point.side, 15.0 * kUdgUnitLength);
    EXPECT_DOUBLE_EQ(point.radius, 0.5);
  }
}

TEST(Workloads, GeneralSeriesSweepsDegrees) {
  const auto series = general_series(200);
  ASSERT_EQ(series.size(), 4u);
  EXPECT_EQ(series[0].edges, 400u);   // avg degree 4
  EXPECT_EQ(series[3].edges, 3200u);  // avg degree 32
  for (const GeneralPoint& point : series) EXPECT_EQ(point.nodes, 200u);
}

TEST(ComponentScheduling, DfsHandlesDisconnectedGraphs) {
  GraphBuilder builder(7);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(3, 4);
  builder.add_edge(4, 5);  // node 6 isolated
  const Graph graph = builder.build();
  const ScheduleResult result =
      run_scheduler_on_components(SchedulerKind::kDfs, graph, 5);
  EXPECT_TRUE(is_feasible_schedule(ArcView(graph), result.coloring));
  // Components share slots: two identical paths need only one path's worth.
  EXPECT_EQ(result.num_slots, 4u);
}

TEST(ComponentScheduling, ConnectedGraphPassesThrough) {
  const Graph path = generate_path(5);
  const auto direct = run_scheduler(SchedulerKind::kDfs, path, {.seed = 5});
  const auto component = run_scheduler_on_components(SchedulerKind::kDfs,
                                                     path, 5);
  EXPECT_EQ(direct.num_slots, component.num_slots);
}

TEST(Runner, UdgPointAggregatesAllAlgorithms) {
  ThreadPool pool(2);
  SweepConfig config;
  config.kinds = {SchedulerKind::kGreedy, SchedulerKind::kDmgc};
  config.instances = 4;
  config.seed = 9;
  const PointResult point =
      run_udg_point(UdgPoint{30, 4.0, 0.5}, config, pool);
  EXPECT_EQ(point.label, "n=30");
  EXPECT_EQ(point.avg_degree.count(), 4u);
  EXPECT_EQ(point.lower_bound.count(), 4u);
  ASSERT_EQ(point.algorithms.size(), 2u);
  for (const auto& [kind, agg] : point.algorithms) {
    EXPECT_EQ(agg.slots.count(), 4u);
    EXPECT_GE(agg.slots.mean(), point.lower_bound.mean());
    EXPECT_LE(agg.slots.mean(), point.upper_bound.mean());
  }
}

TEST(Runner, DeterministicAcrossThreadCounts) {
  SweepConfig config;
  config.kinds = {SchedulerKind::kGreedy};
  config.instances = 6;
  config.seed = 11;
  ThreadPool one(1), many(4);
  const PointResult a = run_general_point(GeneralPoint{40, 80}, config, one);
  const PointResult b = run_general_point(GeneralPoint{40, 80}, config, many);
  EXPECT_DOUBLE_EQ(a.avg_degree.mean(),
                   b.avg_degree.mean());
  EXPECT_DOUBLE_EQ(a.algorithms.at(SchedulerKind::kGreedy).slots.mean(),
                   b.algorithms.at(SchedulerKind::kGreedy).slots.mean());
}

TEST(Report, SlotsTableShape) {
  ThreadPool pool(2);
  SweepConfig config;
  config.kinds = {SchedulerKind::kGreedy};
  config.instances = 2;
  std::vector<PointResult> points{
      run_general_point(GeneralPoint{20, 40}, config, pool)};
  const TextTable table = slots_table(points, config.kinds);
  EXPECT_EQ(table.rows(), 1u);
  EXPECT_EQ(table.columns(), 5u);  // point, degree, greedy, lb, ub
  std::ostringstream os;
  table.print(os);
  EXPECT_NE(os.str().find("m=40"), std::string::npos);
}

TEST(Report, RoundsTableShape) {
  ThreadPool pool(2);
  SweepConfig config;
  config.kinds = {SchedulerKind::kDistMisGeneral};
  config.instances = 2;
  std::vector<PointResult> points{
      run_general_point(GeneralPoint{20, 40}, config, pool)};
  const TextTable table =
      rounds_table(points, SchedulerKind::kDistMisGeneral);
  EXPECT_EQ(table.rows(), 1u);
  EXPECT_EQ(table.columns(), 4u);
  std::ostringstream os;
  print_report(os, "demo", table);
  EXPECT_NE(os.str().find("== demo =="), std::string::npos);
}

}  // namespace
}  // namespace fdlsp
