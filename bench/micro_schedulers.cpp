// Microbenchmarks for end-to-end scheduler runs on fixed workloads.
#include <benchmark/benchmark.h>

#include "algos/scheduler.h"
#include "exp/workloads.h"
#include "graph/generators.h"
#include "support/rng.h"

namespace {

using namespace fdlsp;

Graph fixed_udg() {
  Rng rng(11);
  return generate_udg(150, 8.0, 0.5, rng).graph;
}

Graph fixed_gnm() {
  Rng rng(11);
  return generate_gnm(150, 600, rng);
}

void BM_DistMisGbg(benchmark::State& state) {
  const Graph graph = fixed_udg();
  std::uint64_t seed = 1;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        run_scheduler(SchedulerKind::kDistMisGbg, graph, {.seed = seed++})
            .num_slots);
}
BENCHMARK(BM_DistMisGbg);

void BM_DistMisGeneral(benchmark::State& state) {
  const Graph graph = fixed_gnm();
  std::uint64_t seed = 1;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        run_scheduler(SchedulerKind::kDistMisGeneral, graph, {.seed = seed++})
            .num_slots);
}
BENCHMARK(BM_DistMisGeneral);

void BM_DfsSchedule(benchmark::State& state) {
  const Graph graph = fixed_udg();
  std::uint64_t seed = 1;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        run_scheduler_on_components(SchedulerKind::kDfs, graph, seed++)
            .num_slots);
}
BENCHMARK(BM_DfsSchedule);

void BM_Dmgc(benchmark::State& state) {
  const Graph graph = fixed_gnm();
  for (auto _ : state)
    benchmark::DoNotOptimize(
        run_scheduler(SchedulerKind::kDmgc, graph).num_slots);
}
BENCHMARK(BM_Dmgc);

void BM_GreedyReference(benchmark::State& state) {
  const Graph graph = fixed_gnm();
  for (auto _ : state)
    benchmark::DoNotOptimize(
        run_scheduler(SchedulerKind::kGreedy, graph).num_slots);
}
BENCHMARK(BM_GreedyReference);

}  // namespace

BENCHMARK_MAIN();
