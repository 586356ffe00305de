// Async/sync equivalence property suite.
//
// run_dist_mis_async runs DistMIS on the AsyncEngine behind the
// α-synchronizer, and dist_mis.h promises that its coloring, slot count,
// rounds and messages are byte-identical to run_dist_mis with the same
// variant and seed. That contract is what makes the whole synchronous
// corpus an oracle for the asynchronous engine, so this suite pins it
// across all six scenario families × all three delay models × three
// transport modes:
//
//   plain    — the bare synchronizer over perfect channels;
//   reliable — every node behind the async ack/retransmit wrapper;
//   faulted  — the wrapper under a correlated fault plan (Gilbert–Elliott
//              bursts, a region outage and link-down windows), which the
//              wrapper must hide from the synchronizer completely.
//
// Every case also reruns with the same seeds and compares the engine's own
// AsyncMetrics bit for bit — completion_time by exact double equality and
// the fault counters included — so any nondeterminism in the event order
// surfaces here. The suite rides the TSan preset like every proptest.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "algos/dist_mis.h"
#include "sim/async_engine.h"
#include "sim/delay.h"
#include "sim/fault.h"
#include "verify/scenario.h"

namespace fdlsp {
namespace {

constexpr std::uint64_t kSeed = 42;
constexpr DelayModel kDelayModels[] = {
    DelayModel::kUnit, DelayModel::kUniformRandom, DelayModel::kAdversarial};

enum class Mode { kPlain, kReliable, kFaulted };

std::string mode_name(Mode mode) {
  switch (mode) {
    case Mode::kPlain:
      return "plain";
    case Mode::kReliable:
      return "reliable";
    case Mode::kFaulted:
      return "faulted";
  }
  return "unknown";
}

/// The correlated plan of the faulted mode: burst loss, one region outage
/// and link-down windows, all recoverable by the reliable wrapper.
FaultSpec correlated_spec() {
  FaultSpec spec;
  spec.seed = 9;
  spec.burst_rate = 0.15;
  spec.burst_recover = 0.5;
  spec.region_count = 1;
  spec.link_down_fraction = 0.2;
  return spec;
}

struct AsyncRun {
  ScheduleResult result;
  AsyncMetrics metrics;
};

AsyncRun run_async(const Graph& graph, DelayModel model, Mode mode) {
  const FaultSpec spec = correlated_spec();
  AsyncRun run;
  AsyncDistMisOptions options;
  options.variant = DistMisVariant::kGbg;
  options.seed = kSeed;
  options.delay_model = model;
  options.delay_seed = 7;
  options.faults = mode == Mode::kFaulted ? &spec : nullptr;
  options.reliable = mode != Mode::kPlain;
  options.engine_metrics = &run.metrics;
  run.result = run_dist_mis_async(graph, options);
  return run;
}

/// Asserts the engine's metrics of two same-seed runs agree bit for bit.
void expect_same_metrics(const AsyncMetrics& first, const AsyncMetrics& second,
                         const std::string& label) {
  EXPECT_EQ(first.messages, second.messages) << label;
  EXPECT_EQ(first.timer_events, second.timer_events) << label;
  // Same event order means the same arithmetic, so even the floating-point
  // completion time must agree to the last bit.
  EXPECT_EQ(first.completion_time, second.completion_time) << label;
  EXPECT_EQ(first.completed, second.completed) << label;
  EXPECT_EQ(first.fifo_ok, second.fifo_ok) << label;
  EXPECT_EQ(first.stall_diagnosis, second.stall_diagnosis) << label;
  // Fault streams consume per-channel randomness in delivery order, so the
  // counters are sensitive to any ordering divergence.
  EXPECT_EQ(first.faults.dropped, second.faults.dropped) << label;
  EXPECT_EQ(first.faults.duplicated, second.faults.duplicated) << label;
  EXPECT_EQ(first.faults.corrupted, second.faults.corrupted) << label;
  EXPECT_EQ(first.faults.burst_dropped, second.faults.burst_dropped) << label;
  EXPECT_EQ(first.faults.region_drops, second.faults.region_drops) << label;
  EXPECT_EQ(first.faults.link_down_drops, second.faults.link_down_drops)
      << label;
}

Scenario family_scenario(GraphFamily family) {
  Scenario scenario;
  scenario.family = family;
  scenario.n = 16;
  scenario.density = 0.5;
  scenario.seed = 0xa5c0 + static_cast<std::uint64_t>(family);
  return scenario;
}

class AsyncSyncEquivalence : public ::testing::TestWithParam<Mode> {};

TEST_P(AsyncSyncEquivalence, AsyncMatchesSyncAcrossFamiliesAndDelayModels) {
  const Mode mode = GetParam();
  for (const GraphFamily family : kAllFamilies) {
    const Graph graph = materialize(family_scenario(family));
    DistMisOptions sync_options;
    sync_options.variant = DistMisVariant::kGbg;
    sync_options.seed = kSeed;
    const ScheduleResult sync = run_dist_mis(graph, sync_options);
    for (const DelayModel model : kDelayModels) {
      const std::string label = family_name(family) + "/" +
                                delay_model_name(model) + "/" +
                                mode_name(mode);
      const AsyncRun async = run_async(graph, model, mode);
      ASSERT_TRUE(async.metrics.completed) << label;
      ASSERT_TRUE(async.metrics.fifo_ok) << label;
      if (mode == Mode::kFaulted) {
        EXPECT_GT(async.metrics.faults.burst_dropped +
                      async.metrics.faults.region_drops +
                      async.metrics.faults.link_down_drops,
                  0u)
            << label
            << ": fault plan never fired — the scenario does not test "
               "recovery";
      }
      // The schedule and the synchronous-projection metrics match the
      // lock-step engine exactly, not merely feasibly.
      EXPECT_EQ(async.result.coloring.raw(), sync.coloring.raw()) << label;
      EXPECT_EQ(async.result.num_slots, sync.num_slots) << label;
      EXPECT_EQ(async.result.rounds, sync.rounds) << label;
      EXPECT_EQ(async.result.messages, sync.messages) << label;

      const AsyncRun repeat = run_async(graph, model, mode);
      EXPECT_EQ(repeat.result.coloring.raw(), async.result.coloring.raw())
          << label;
      expect_same_metrics(async.metrics, repeat.metrics, label + "/repeat");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, AsyncSyncEquivalence,
    ::testing::Values(Mode::kPlain, Mode::kReliable, Mode::kFaulted),
    [](const ::testing::TestParamInfo<Mode>& param) {
      return mode_name(param.param);
    });

}  // namespace
}  // namespace fdlsp
