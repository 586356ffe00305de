// Golden pins for the synchronous engine's delivery paths and for both
// engines' reliable transport.
//
// tests/dist_mis_test.cpp pins fault-free DistMIS (broadcast traffic through
// a SyncProgramSet). The runs here pin what it does not reach: unicast
// `send` traffic (the randomized scheduler's vetoes), distributed repair
// (serial and pooled), FaultPlan verdicts with and without the reliable
// decorator — its aggregated transport counters and suspicions included —
// and the exact event sequence a SimTrace observes. The AsyncTransport pins
// hold the asynchronous wrapper the same way: every transport counter, the
// suspicions, and the engine's frame deliveries and timer events. The
// equivalence suites only compare runs with each other; these absolute
// values catch a delivery change that moves every path the same way — for
// instance FaultPlan verdicts taken in another order, which shifts the
// per-edge burst budget both directions of an edge share.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <ostream>
#include <utility>
#include <vector>

#include "algos/dfs_schedule.h"
#include "algos/dist_mis.h"
#include "algos/dist_repair.h"
#include "algos/repair.h"
#include "algos/scheduler.h"
#include "coloring/greedy.h"
#include "graph/arcs.h"
#include "graph/generators.h"
#include "sim/async_engine.h"
#include "sim/trace.h"
#include "support/rng.h"
#include "support/thread_pool.h"

namespace fdlsp {
namespace {

/// What one pinned run produced. `extra` is run-specific: the trace hash of
/// a traced run, the transport retransmits of a reliable run, the recolored
/// arcs of a repair run.
struct Pin {
  std::uint64_t fingerprint = 0;
  std::size_t slots = 0;
  std::size_t rounds = 0;
  std::size_t messages = 0;
  bool completed = false;
  /// dropped, duplicated, corrupted, burst, prr, region, link-down, crash.
  std::array<std::uint64_t, 8> faults{};
  std::uint64_t extra = 0;

  friend bool operator==(const Pin&, const Pin&) = default;
  friend std::ostream& operator<<(std::ostream& out, const Pin& pin) {
    out << "{0x" << std::hex << pin.fingerprint << std::dec << ", "
        << pin.slots << ", " << pin.rounds << ", " << pin.messages << ", "
        << (pin.completed ? "true" : "false") << ", {";
    for (std::size_t i = 0; i < pin.faults.size(); ++i)
      out << (i == 0 ? "" : ", ") << pin.faults[i];
    return out << "}, 0x" << std::hex << pin.extra << std::dec << "}";
  }
};

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t fnv_mix(std::uint64_t hash, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= word & 0xffU;
    hash *= 0x100000001b3ULL;
    word >>= 8;
  }
  return hash;
}

/// FNV-1a over the raw colors (tdmabench's coloring_fingerprint).
std::uint64_t coloring_fingerprint(const ArcColoring& coloring) {
  std::uint64_t hash = kFnvBasis;
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

std::array<std::uint64_t, 8> fault_counts(const FaultStats& stats) {
  return {stats.dropped,     stats.duplicated,    stats.corrupted,
          stats.burst_dropped, stats.prr_dropped, stats.region_drops,
          stats.link_down_drops, stats.crash_drops};
}

Pin pin_of(const ScheduleResult& result, std::uint64_t extra) {
  return Pin{coloring_fingerprint(result.coloring), result.num_slots,
             result.rounds,  result.messages,
             result.completed, fault_counts(result.faults), extra};
}

/// The reliable transport's aggregate over all nodes: every TransportStats
/// field plus an FNV hash of the merged suspected list.
struct TransportPin {
  /// retransmits, probes, suspicions, retrusts, abandoned.
  std::array<std::uint64_t, 5> counts{};
  double max_backoff = 0.0;
  std::uint64_t suspected = 0;

  friend bool operator==(const TransportPin&, const TransportPin&) = default;
  friend std::ostream& operator<<(std::ostream& out, const TransportPin& pin) {
    out << "{{";
    for (std::size_t i = 0; i < pin.counts.size(); ++i)
      out << (i == 0 ? "" : ", ") << pin.counts[i];
    return out << "}, " << std::setprecision(17) << pin.max_backoff
               << ", 0x" << std::hex
               << pin.suspected << std::dec << "}";
  }
};

TransportPin transport_pin(const TransportStats& stats,
                           const std::vector<NodeId>& suspected) {
  std::uint64_t hash = kFnvBasis;
  for (const NodeId node : suspected) hash = fnv_mix(hash, node);
  return TransportPin{{stats.retransmits, stats.probes, stats.suspicions,
                       stats.retrusts, stats.abandoned},
                      stats.max_backoff,
                      hash};
}

/// Folds every engine event, in order, into one hash.
class HashingTrace final : public SimTrace {
 public:
  void on_local_step(NodeId node) override { fold(1, node, 0); }
  void on_send(NodeId from, NodeId to) override { fold(2, from, to); }
  void on_deliver(NodeId from, NodeId to) override { fold(3, from, to); }
  void on_state_read(NodeId reader, NodeId owner) override {
    fold(4, reader, owner);
  }
  std::uint64_t hash() const noexcept { return hash_; }

 private:
  void fold(std::uint64_t kind, NodeId a, NodeId b) {
    hash_ = fnv_mix(hash_, (kind << 60) ^ (std::uint64_t{a} << 30) ^ b);
  }
  std::uint64_t hash_ = kFnvBasis;
};

/// A UDG field of mean degree about 6 (the BM_DistMisUdg field).
Graph field(std::size_t n, std::uint64_t seed) {
  const double radius = 0.5;
  const double side =
      std::sqrt(static_cast<double>(n) * 3.14159265 * radius * radius / 6.0);
  Rng rng(seed);
  return generate_udg(n, side, radius, rng).graph;
}

/// Drop, duplicate and Gilbert–Elliott bursts armed at once, plus
/// corruption when `corrupt`. Unhardened DistMIS rejects a corrupted tag
/// loudly, so only the reliable run and the repair run take corruption.
FaultSpec noisy_spec(bool corrupt) {
  FaultSpec spec;
  spec.seed = 17;
  spec.drop_rate = 0.05;
  spec.duplicate_rate = 0.05;
  spec.corrupt_rate = corrupt ? 0.03 : 0.0;
  spec.burst_rate = 0.05;
  spec.burst_recover = 0.5;
  return spec;
}

TEST(SyncGolden, RandomizedUnicastTrafficMatchesPin) {
  constexpr Pin kPin{0x3286501a0a4e771f, 165, 265, 83442, true,
                     {0, 0, 0, 0, 0, 0, 0, 0}, 0x0};
  const Graph graph = field(300, 21);
  EXPECT_EQ(pin_of(run_scheduler(SchedulerKind::kRandomized, graph,
                                 {.seed = 42}),
                   0),
            kPin)
      << "serial";
  ThreadPool pool(2);
  for (const std::size_t shards : {1u, 3u, 16u}) {
    const RunConfig config{.seed = 42, .pool = &pool, .shards = shards};
    EXPECT_EQ(pin_of(run_scheduler(SchedulerKind::kRandomized, graph, config),
                     0),
              kPin)
        << "pooled/" << shards;
  }
}

/// A churned field: a greedy schedule of 150 nodes, six of them moved, the
/// old colors transferred onto the new topology.
struct StaleField {
  Graph graph;
  ArcColoring stale;
};

StaleField stale_field() {
  Rng rng(1009);
  auto positions = generate_udg(150, 6.0, 0.8, rng).positions;
  const Graph old_graph = udg_from_positions(positions, 0.8);
  const ArcView old_view(old_graph);
  const ArcColoring old_coloring = greedy_coloring(old_view);
  for (std::size_t k = 0; k < 6; ++k) {
    const std::size_t mover = rng.next_index(positions.size());
    positions[mover] = Point{rng.next_double() * 6.0, rng.next_double() * 6.0};
  }
  const Graph graph = udg_from_positions(positions, 0.8);
  const ArcView view(graph);
  ArcColoring stale = transfer_coloring(old_view, old_coloring, view);
  return {graph, std::move(stale)};
}

Pin pin_repair(const DistRepairResult& result) {
  return Pin{coloring_fingerprint(result.coloring), result.num_slots,
             result.rounds,  result.messages,
             result.completed, fault_counts(result.faults),
             result.recolored_arcs};
}

TEST(SyncGolden, DistributedRepairMatchesPin) {
  constexpr Pin kPin{0xd7ab4f5c2f4bd3d3, 124, 73, 34413, true,
                     {0, 0, 0, 0, 0, 0, 0, 0}, 0x50};
  const auto [graph, stale] = stale_field();
  EXPECT_EQ(pin_repair(run_distributed_repair(graph, stale, {.seed = 9})),
            kPin)
      << "serial";
  ThreadPool pool(2);
  for (const std::size_t shards : {1u, 3u, 16u}) {
    const RunConfig config{.seed = 9, .pool = &pool, .shards = shards};
    EXPECT_EQ(pin_repair(run_distributed_repair(graph, stale, config)), kPin)
        << "pooled/" << shards;
  }
}

TEST(SyncGolden, UnhardenedRepairUnderNoisyPlanMatchesPin) {
  constexpr Pin kPin{0x401610afda74a40a, 127, 118, 298330, true,
                     {5511, 14434, 3306, 3895, 0, 0, 0, 0}, 0x50};
  const auto [graph, stale] = stale_field();
  const FaultSpec spec = noisy_spec(true);
  EXPECT_EQ(pin_repair(run_distributed_repair(graph, stale,
                                              {.seed = 9, .faults = &spec})),
            kPin);
}

TEST(SyncGolden, ReliableRepairUnderNoisyPlanMatchesPin) {
  constexpr Pin kPin{0xd7ab4f5c2f4bd3d3, 124, 7253, 63154, true,
                     {2595, 3108, 1586, 2532, 0, 0, 0, 0}, 0x50};
  constexpr TransportPin kTransport{{13702, 0, 0, 0, 0}, 5.0, kFnvBasis};
  const auto [graph, stale] = stale_field();
  const FaultSpec spec = noisy_spec(true);
  const DistRepairResult result = run_distributed_repair(
      graph, stale, {.seed = 9, .faults = &spec, .reliable = true});
  EXPECT_EQ(pin_repair(result), kPin);
  // The repair result carries no suspected list.
  EXPECT_EQ(transport_pin(result.transport, {}), kTransport);
}

TEST(SyncGolden, ReliableRandomizedUnderCrashPlanMatchesPin) {
  constexpr Pin kPin{0x82551cc63e21975d, 64, 6671, 27836, true,
                     {1490, 0, 0, 0, 0, 0, 0, 2136}, 0x0};
  constexpr TransportPin kTransport{{2530, 1040, 52, 0, 602}, 5.0,
                                0x2efff7230aadc0df};
  const Graph graph = field(120, 31);
  FaultSpec spec;
  spec.seed = 29;
  spec.crash_fraction = 0.1;
  spec.crash_horizon = 40.0;
  spec.drop_rate = 0.05;
  const ScheduleResult result = run_scheduler(
      SchedulerKind::kRandomized, graph,
      {.seed = 42, .faults = &spec, .reliable = true});
  EXPECT_EQ(pin_of(result, 0), kPin);
  EXPECT_EQ(transport_pin(result.transport, result.suspected), kTransport);
}

TEST(SyncGolden, DistMisUnderLossyPlanMatchesPin) {
  constexpr Pin kPin{0xa13604c5ea3b24b6, 76, 240, 33773, true,
                     {1659, 1702, 0, 1976, 0, 0, 0, 0}, 0x0};
  const Graph graph = field(120, 31);
  const FaultSpec spec = noisy_spec(false);
  DistMisOptions options;
  options.seed = 42;
  options.faults = &spec;
  EXPECT_EQ(pin_of(run_dist_mis(graph, options), 0), kPin);
}

TEST(SyncGolden, ReliableDistMisUnderNoisyPlanMatchesPin) {
  constexpr Pin kPin{0xbd60f41571ab1c50, 76, 25775, 75298, true,
                     {2781, 3774, 1714, 2485, 0, 0, 0, 0}, 0x1f7f};
  const Graph graph = field(120, 31);
  const FaultSpec spec = noisy_spec(true);
  DistMisOptions options;
  options.seed = 42;
  options.faults = &spec;
  options.reliable = true;
  const ScheduleResult result = run_dist_mis(graph, options);
  EXPECT_EQ(pin_of(result, result.transport.retransmits), kPin);
  constexpr TransportPin kTransport{{8063, 0, 0, 0, 0}, 5.0, kFnvBasis};
  EXPECT_EQ(transport_pin(result.transport, result.suspected), kTransport);
}

TEST(SyncGolden, DistMisUnderCrashPlanMatchesPin) {
  constexpr Pin kPin{0x10c9b208292ddd7, 76, 221, 22108, true,
                     {461, 0, 0, 0, 0, 0, 0, 2235}, 0x0};
  const Graph graph = field(120, 31);
  FaultSpec spec;
  spec.seed = 23;
  spec.crash_fraction = 0.1;
  spec.crash_horizon = 40.0;
  spec.drop_rate = 0.02;
  DistMisOptions options;
  options.seed = 42;
  options.faults = &spec;
  EXPECT_EQ(pin_of(run_dist_mis(graph, options), 0), kPin);
}

TEST(SyncGolden, TracedDistMisMatchesPin) {
  constexpr Pin kPin{0x1fb0b68330aaa8fc, 69, 283, 64051, true,
                     {0, 0, 0, 0, 0, 0, 0, 0}, 0x9c1683a91226c3b3};
  const Graph graph = field(200, 41);
  HashingTrace trace;
  DistMisOptions options;
  options.seed = 42;
  options.trace = &trace;
  const ScheduleResult result = run_dist_mis(graph, options);
  EXPECT_EQ(pin_of(result, trace.hash()), kPin);
}

TEST(SyncGolden, TracedDistMisUnderLossyPlanMatchesPin) {
  constexpr Pin kPin{0xa13604c5ea3b24b6, 76, 240, 33773, true,
                     {1659, 1702, 0, 1976, 0, 0, 0, 0}, 0xbdc46052da26139e};
  const Graph graph = field(120, 31);
  const FaultSpec spec = noisy_spec(false);
  HashingTrace trace;
  DistMisOptions options;
  options.seed = 42;
  options.faults = &spec;
  options.trace = &trace;
  const ScheduleResult result = run_dist_mis(graph, options);
  EXPECT_EQ(pin_of(result, trace.hash()), kPin);
}

/// The engine-level counters of an asynchronous run.
struct EnginePin {
  std::size_t messages = 0;
  std::size_t timer_events = 0;

  friend bool operator==(const EnginePin&, const EnginePin&) = default;
  friend std::ostream& operator<<(std::ostream& out, const EnginePin& pin) {
    return out << "{" << pin.messages << ", " << pin.timer_events << "}";
  }
};

EnginePin engine_pin(const AsyncMetrics& metrics) {
  return EnginePin{metrics.messages, metrics.timer_events};
}

/// A reliable DFS run under `spec`, pinned whole.
void expect_dfs_pins(const Graph& graph, const FaultSpec& spec,
                     DelayModel delays, const Pin& pin,
                     const TransportPin& transport, const EnginePin& engine) {
  AsyncMetrics metrics;
  DfsOptions options;
  options.seed = 5;
  options.delay_model = delays;
  options.faults = &spec;
  options.reliable = true;
  options.engine_metrics = &metrics;
  const ScheduleResult result = run_dfs_schedule(graph, options);
  EXPECT_EQ(pin_of(result, 0), pin);
  EXPECT_EQ(transport_pin(result.transport, result.suspected), transport);
  EXPECT_EQ(engine_pin(metrics), engine);
}

TEST(AsyncTransportGolden, ReliableAsyncDistMisUnderBurstPlanMatchesPin) {
  constexpr Pin kPin{0xbd60f41571ab1c50, 76, 261, 36493, true,
                     {5024, 0, 0, 2512, 0, 0, 0, 0}, 0x0};
  constexpr TransportPin kTransport{{65740, 0, 0, 0, 0}, 8.492399106192094,
                                    kFnvBasis};
  constexpr EnginePin kEngine{447169, 144194};
  const Graph graph = field(120, 31);
  FaultSpec spec;
  spec.seed = 19;
  spec.drop_rate = 0.05;
  spec.burst_rate = 0.05;
  spec.burst_recover = 0.5;
  AsyncMetrics metrics;
  AsyncDistMisOptions options;
  options.seed = 42;
  options.delay_model = DelayModel::kUniformRandom;
  options.delay_seed = 7;
  options.faults = &spec;
  options.reliable = true;
  options.engine_metrics = &metrics;
  const ScheduleResult result = run_dist_mis_async(graph, options);
  EXPECT_EQ(pin_of(result, 0), kPin);
  EXPECT_EQ(transport_pin(result.transport, result.suspected), kTransport);
  EXPECT_EQ(engine_pin(metrics), kEngine);
}

TEST(AsyncTransportGolden, ReliableDfsUnderLossyPlanMatchesPin) {
  FaultSpec spec;
  spec.seed = 11;
  spec.drop_rate = 0.25;
  spec.duplicate_rate = 0.15;
  spec.corrupt_rate = 0.10;
  expect_dfs_pins(generate_grid(4, 5), spec, DelayModel::kUniformRandom,
                  Pin{0x8fd1a82de7bdc239, 12, 0, 1984, true,
                      {337, 308, 145, 0, 0, 0, 0, 0}, 0x0},
                  TransportPin{{423, 0, 0, 0, 0}, 8.4893227384895731,
                               kFnvBasis},
                  EnginePin{1984, 883});
}

// Budget exhaustion: crashed peers are suspected, probed past the budget,
// declared dead, and their traffic abandoned.
TEST(AsyncTransportGolden, ReliableDfsUnderCrashPlanMatchesPin) {
  FaultSpec spec;
  spec.seed = 43;
  spec.crash_fraction = 0.2;
  spec.crash_horizon = 2.0;
  spec.max_losses_per_channel = 1;
  expect_dfs_pins(generate_cycle(8), spec, DelayModel::kUnit,
                  Pin{0x84cc4da0e20ecde5, 0, 0, 32, false,
                      {0, 0, 0, 0, 0, 0, 0, 50}, 0x0},
                  TransportPin{{26, 18, 3, 0, 4}, 8.4948801436530843,
                               0x6c3ba113458dd821},
                  EnginePin{32, 50});
}

// Retrust: an outage covering every edge outlasts the suspicion threshold,
// then lifts; suspected peers answer the probes and parked frames resume.
TEST(AsyncTransportGolden, ReliableDfsUnderRegionOutageMatchesPin) {
  FaultSpec spec;
  spec.seed = 47;
  spec.region_count = 1;
  spec.region_radius = 2.0;
  spec.region_horizon = 1.0;
  spec.region_duration = 60.0;
  spec.max_losses_per_channel = 1;
  expect_dfs_pins(generate_cycle(6), spec, DelayModel::kUnit,
                  Pin{0x8d73a3daddbcd025, 8, 0, 252, true,
                      {0, 0, 0, 0, 0, 146, 0, 0}, 0x0},
                  TransportPin{{112, 60, 12, 12, 0}, 8.4948801436530843,
                               0x703461c07025044},
                  EnginePin{252, 203});
}

}  // namespace
}  // namespace fdlsp
