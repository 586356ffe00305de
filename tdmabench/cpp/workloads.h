// The pipeline benchmark: workloads, output gate, statistics and metrics.
//
// Each workload is a closed loop with one caller: the next iteration (or
// the next soak event) starts only after the previous one has finished.
// The library receives only inputs generated from the workload seed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "trace.h"

namespace fdlsp {
class ArcColoring;
class ArcView;
class ConflictIndex;
}  // namespace fdlsp

namespace tdmabench {

enum class WorkloadKind { kFieldSync, kFieldAsync, kSoak };

/// One benchmark workload. Field workloads schedule a random unit disk
/// graph once per iteration; soak workloads keep a schedule feasible over
/// a stream of topology events.
struct Workload {
  std::string name;
  WorkloadKind kind = WorkloadKind::kFieldSync;
  std::size_t n = 0;
  /// Independent inputs per run, all derived from the run seed. Averaging
  /// over them keeps one unusual random field or stream from moving the
  /// run's figures.
  std::size_t instances = 1;
  // Field workloads.
  std::size_t pool_threads = 0;  ///< 0 = no pool (serial)
  double drop_rate = 0.0;        ///< i.i.d. loss (reliable transport on)
  double burst_rate = 0.0;       ///< Gilbert–Elliott good -> bad rate
  // Soak workloads.
  std::uint64_t events = 0;
  bool distributed = false;
  std::uint64_t check_stride = 0;  ///< feasibility check every k events
};

/// Seed of input instance k of a run with seed `seed`.
std::uint64_t instance_seed(std::uint64_t seed, std::size_t k);

/// The four workloads, in BENCHMARK.json order.
const std::vector<Workload>& workloads();

/// The workload named `name`, or nullptr.
const Workload* find_workload(const std::string& name);

/// Output checks of one run. A failed check is counted, never thrown, so a
/// bad output shows in `failed` without aborting the run.
struct Gate {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< distinct failure descriptions

  void check(bool ok, const std::string& what);
};

/// Checks one complete schedule: is_feasible_schedule against `index`, then
/// a TdmaSchedule whose replay_frame must deliver every arc. Two checks.
/// Returns the share of arcs the replay delivered (0 without a frame).
double verify_schedule(const fdlsp::ArcView& view,
                            const fdlsp::ArcColoring& coloring,
                            const fdlsp::ConflictIndex& index, Tracer& tracer,
                            Gate& gate);

/// FNV-1a hash of the raw colors, arc by arc.
std::uint64_t coloring_fingerprint(const fdlsp::ArcColoring& coloring);

/// Median of a non-empty sample.
double median(std::vector<double> values);

/// p-th percentile (p in [0, 100]) with linear interpolation between ranks.
double percentile(std::vector<double> values, double p);

/// Samples strictly above the interpolated p-th percentile of n samples.
std::size_t samples_beyond(std::size_t n, double p);

/// The highest percentile of {99.9, 99, 95, 90, 75, 50} that keeps at
/// least 10 of n samples beyond it; nullopt when none does (n < 21).
std::optional<double> reported_tail(std::size_t n);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// What must repeat exactly when one input instance is scheduled again.
struct InstanceId {
  std::uint64_t fingerprint = 0;  ///< coloring_fingerprint of the output
  std::size_t slots = 0;     ///< frame length; max over a soak stream
  std::size_t rounds = 0;    ///< DistMIS rounds; 0 on soak workloads
  std::size_t messages = 0;  ///< DistMIS messages; 0 on soak workloads
  friend bool operator==(const InstanceId&, const InstanceId&) = default;
};

struct RunResult {
  std::vector<Metric> end_to_end;  ///< from untraced iterations
  std::vector<Metric> per_layer;   ///< from traced iterations; empty untraced
  Gate gate;
  std::size_t iterations = 0;
  std::vector<InstanceId> instances;  ///< first outcome per instance
  std::uint64_t fingerprint = 0;      ///< hash of the instance fingerprints
  std::vector<std::string> report;    ///< human-readable lines
  std::uint64_t trace_id = 0;
  std::vector<Span> spans;  ///< recorded spans (traced iterations only)
};

/// Runs `workload` as a closed loop over its instances: one iteration
/// schedules and checks one instance, and iterations cycle through the
/// instances until every instance ran, one ran twice (traced runs: every
/// instance once traced, once untraced) and `options.seconds` have passed.
RunResult run_workload(const Workload& workload, const RunOptions& options);

}  // namespace tdmabench
