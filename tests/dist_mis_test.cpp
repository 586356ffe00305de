// Tests for the DistMIS distributed algorithm (both variants).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "algos/dist_mis.h"
#include "coloring/bounds.h"
#include "coloring/checker.h"
#include "graph/arcs.h"
#include "graph/generators.h"
#include "support/rng.h"
#include "support/thread_pool.h"

namespace fdlsp {
namespace {

void expect_valid_schedule(const Graph& graph, const ScheduleResult& result) {
  const ArcView view(graph);
  EXPECT_TRUE(is_feasible_schedule(view, result.coloring));
  EXPECT_EQ(result.num_slots, result.coloring.num_colors_used());
  if (graph.num_edges() > 0) {
    EXPECT_GE(result.num_slots, lower_bound_trivial(graph));
    EXPECT_LE(result.num_slots, upper_bound_colors(graph));
  }
}

class DistMisVariantTest
    : public ::testing::TestWithParam<DistMisVariant> {};

TEST_P(DistMisVariantTest, SingleEdge) {
  const Graph graph = generate_path(2);
  DistMisOptions options{GetParam(), 1, 100000};
  const auto result = run_dist_mis(graph, options);
  expect_valid_schedule(graph, result);
  EXPECT_EQ(result.num_slots, 2u);
}

TEST_P(DistMisVariantTest, PathAndCycle) {
  for (const Graph& graph : {generate_path(9), generate_cycle(9)}) {
    DistMisOptions options{GetParam(), 2, 100000};
    const auto result = run_dist_mis(graph, options);
    expect_valid_schedule(graph, result);
  }
}

TEST_P(DistMisVariantTest, StarAndComplete) {
  for (const Graph& graph : {generate_star(8), generate_complete(6)}) {
    DistMisOptions options{GetParam(), 3, 100000};
    const auto result = run_dist_mis(graph, options);
    expect_valid_schedule(graph, result);
  }
}

TEST_P(DistMisVariantTest, DisconnectedGraphStillColors) {
  GraphBuilder builder(6);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(3, 4);  // node 5 isolated
  const Graph graph = builder.build();
  DistMisOptions options{GetParam(), 4, 100000};
  const auto result = run_dist_mis(graph, options);
  expect_valid_schedule(graph, result);
}

TEST_P(DistMisVariantTest, RandomGraphSweep) {
  Rng rng(101);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 8 + rng.next_index(30);
    const std::size_t m = rng.next_index(n * 2 + 1);
    const Graph graph = generate_gnm(n, m, rng);
    DistMisOptions options{GetParam(), rng(), 200000};
    const auto result = run_dist_mis(graph, options);
    expect_valid_schedule(graph, result);
  }
}

TEST_P(DistMisVariantTest, UdgSweep) {
  Rng rng(103);
  for (int trial = 0; trial < 4; ++trial) {
    const auto geo = generate_udg(60, 5.0, 0.6, rng);
    DistMisOptions options{GetParam(), rng(), 200000};
    const auto result = run_dist_mis(geo.graph, options);
    expect_valid_schedule(geo.graph, result);
  }
}

TEST_P(DistMisVariantTest, DeterministicUnderSeed) {
  Rng rng(107);
  const Graph graph = generate_gnm(20, 40, rng);
  DistMisOptions options{GetParam(), 99, 100000};
  const auto a = run_dist_mis(graph, options);
  const auto b = run_dist_mis(graph, options);
  EXPECT_EQ(a.num_slots, b.num_slots);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.coloring.raw(), b.coloring.raw());
}

TEST_P(DistMisVariantTest, RoundsScaleFarBelowQuadratic) {
  // Figures 13-15: rounds are far below n even on dense instances.
  Rng rng(109);
  const Graph graph = generate_gnm(120, 600, rng);
  DistMisOptions options{GetParam(), 5, 500000};
  const auto result = run_dist_mis(graph, options);
  expect_valid_schedule(graph, result);
  EXPECT_LT(result.rounds, 120u * 120u);
  EXPECT_GT(result.messages, 0u);
}

INSTANTIATE_TEST_SUITE_P(BothVariants, DistMisVariantTest,
                         ::testing::Values(DistMisVariant::kGbg,
                                           DistMisVariant::kGeneral),
                         [](const auto& param_info) {
                           return param_info.param == DistMisVariant::kGbg
                                      ? "Gbg"
                                      : "General";
                         });

TEST(DistMis, EdgelessGraphFinishesImmediately) {
  const Graph graph(4);
  DistMisOptions options;
  const auto result = run_dist_mis(graph, options);
  EXPECT_EQ(result.num_slots, 0u);
  EXPECT_EQ(result.coloring.num_arcs(), 0u);
}

// Golden pins: absolute results of fixed runs. The suites above and the
// equivalence suites only compare runs with each other, so a change that
// moved every path the same way would pass them; these values would not.
// The fingerprint is FNV-1a over the raw colors (tdmabench's
// coloring_fingerprint).
struct GoldenRun {
  DistMisVariant variant;
  std::size_t nodes;
  std::uint64_t field_seed;
  std::uint64_t fingerprint;
  std::size_t slots;
  std::size_t rounds;
  std::size_t messages;
};

constexpr GoldenRun kGoldenRuns[] = {
    {DistMisVariant::kGbg, 300, 11, 0xdc112384b1456d63, 78, 316, 109820},
    {DistMisVariant::kGbg, 600, 12, 0x186ebc7b4eee74f5, 100, 389, 237657},
    {DistMisVariant::kGbg, 1000, 13, 0x9f410ddda1cea2e6, 87, 392, 391458},
    {DistMisVariant::kGeneral, 300, 11, 0xc380864b019a09ff, 85, 184, 45599},
    {DistMisVariant::kGeneral, 600, 12, 0x1b4ad7964347a8f7, 103, 227, 94295},
    {DistMisVariant::kGeneral, 1000, 13, 0xb5333f2e3509b496, 94, 230, 155115},
};

constexpr std::uint64_t kGoldenAlgoSeed = 42;

std::uint64_t coloring_fingerprint(const ArcColoring& coloring) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const Color color : coloring.raw()) {
    auto bits = static_cast<std::uint32_t>(color);
    for (int byte = 0; byte < 4; ++byte) {
      hash ^= bits & 0xffU;
      hash *= 0x100000001b3ULL;
      bits >>= 8;
    }
  }
  return hash;
}

/// The BM_DistMisUdg field: radius 0.5 on a square sized for mean degree 6.
Graph golden_field(const GoldenRun& run) {
  const double radius = 0.5;
  const double side = std::sqrt(static_cast<double>(run.nodes) * 3.14159265 *
                                radius * radius / 6.0);
  Rng rng(run.field_seed);
  return generate_udg(run.nodes, side, radius, rng).graph;
}

void expect_golden(const GoldenRun& run, const ScheduleResult& result,
                   const std::string& path) {
  SCOPED_TRACE(::testing::Message()
               << path << " n=" << run.nodes << " field_seed="
               << run.field_seed << " variant="
               << (run.variant == DistMisVariant::kGbg ? "Gbg" : "General"));
  EXPECT_EQ(coloring_fingerprint(result.coloring), run.fingerprint);
  EXPECT_EQ(result.num_slots, run.slots);
  EXPECT_EQ(result.rounds, run.rounds);
  EXPECT_EQ(result.messages, run.messages);
}

TEST(DistMisGolden, SerialRunsMatchPins) {
  for (const GoldenRun& run : kGoldenRuns) {
    const Graph graph = golden_field(run);
    DistMisOptions options;
    options.variant = run.variant;
    options.seed = kGoldenAlgoSeed;
    expect_golden(run, run_dist_mis(graph, options), "serial");
  }
}

TEST(DistMisGolden, PooledRunsMatchPinsForEveryShardCount) {
  ThreadPool pool(2);
  for (const GoldenRun& run : kGoldenRuns) {
    const Graph graph = golden_field(run);
    for (const std::size_t shards : {1u, 3u, 16u}) {
      DistMisOptions options;
      options.variant = run.variant;
      options.seed = kGoldenAlgoSeed;
      options.pool = &pool;
      options.shards = shards;
      expect_golden(run, run_dist_mis(graph, options),
                    "pooled/" + std::to_string(shards));
    }
  }
}

TEST(DistMisGolden, AsyncRunsMatchPins) {
  for (const GoldenRun& run : kGoldenRuns) {
    const Graph graph = golden_field(run);
    AsyncDistMisOptions options;
    options.variant = run.variant;
    options.seed = kGoldenAlgoSeed;
    expect_golden(run, run_dist_mis_async(graph, options), "async");
  }
}

}  // namespace
}  // namespace fdlsp
