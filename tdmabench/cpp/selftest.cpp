// Self-test of the benchmark: the percentile rule, metric names, the output
// gate and same-seed determinism. Runs scaled-down copies of the workloads
// so it finishes in seconds. Exit code 0 iff every check passes.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "algos/dist_mis.h"
#include "coloring/conflict_index.h"
#include "graph/arcs.h"
#include "graph/generators.h"
#include "support/rng.h"
#include "workloads.h"

namespace {

using namespace tdmabench;

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::cerr << "FAIL: " << what << '\n';
}

/// A copy of the named workload, shrunk to self-test size.
Workload small(const std::string& name) {
  Workload w = *find_workload(name);
  w.instances = 2;
  switch (w.kind) {
    case WorkloadKind::kFieldSync: w.n = 400; break;
    case WorkloadKind::kFieldAsync: w.n = 60; break;
    case WorkloadKind::kSoak:
      w.n = w.distributed ? 32 : 64;
      w.events = 60;
      w.check_stride = 20;
      break;
  }
  return w;
}

RunResult run_small(const std::string& name, std::uint64_t seed, bool trace) {
  RunOptions options;
  options.seed = seed;
  options.seconds = 0.01;
  options.trace = trace;
  return run_workload(small(name), options);
}

void test_percentile_rule() {
  for (std::size_t n = 0; n <= 5000; ++n) {
    const auto p = reported_tail(n);
    if (!p) {
      expect(n < 21, "no tail reported for n=" + std::to_string(n));
      continue;
    }
    std::vector<double> values(n);
    for (std::size_t i = 0; i < n; ++i) values[i] = static_cast<double>(i);
    const double cut = percentile(values, *p);
    const auto beyond = static_cast<std::size_t>(std::count_if(
        values.begin(), values.end(), [cut](double v) { return v > cut; }));
    expect(beyond >= 10 && beyond == samples_beyond(n, *p),
           "tail p" + std::to_string(*p) + " of n=" + std::to_string(n) +
               " keeps " + std::to_string(beyond) + " samples beyond it");
  }
  expect(reported_tail(1000) == 99.0, "p99 reported for 1000 samples");
  expect(reported_tail(2000) == 99.0, "p99 reported for 2000 samples");
  expect(reported_tail(20'000) == 99.9, "p99.9 reported for 20000 samples");
}

void test_metric_names() {
  const std::regex pattern("[A-Za-z0-9_.-]+");
  for (const Workload& w : workloads()) {
    const RunResult result = run_small(w.name, 3, true);
    std::set<std::string> seen;
    for (const auto* list : {&result.end_to_end, &result.per_layer}) {
      for (const Metric& m : *list) {
        expect(std::regex_match(m.name, pattern) && m.name.size() <= 64,
               "metric name '" + m.name + "'");
        expect(seen.insert(m.name).second, "duplicate metric " + m.name);
      }
    }
    expect(result.end_to_end.size() == 6, w.name + ": 6 end-to-end metrics");
    expect(!result.per_layer.empty(), w.name + ": traced run has layers");
    expect(result.gate.attempted > 0 && result.gate.failed == 0,
           w.name + ": small run passes its output gate");
    expect(!result.spans.empty(), w.name + ": traced run records spans");
  }
}

void test_corrupted_coloring_fails_gate() {
  fdlsp::Rng rng(5);
  const fdlsp::GeometricGraph field = fdlsp::generate_udg(200, 5.0, 0.5, rng);
  const fdlsp::ArcView view(field.graph);
  const fdlsp::ConflictIndex index(view);
  fdlsp::DistMisOptions options;
  options.seed = 5;
  fdlsp::ArcColoring coloring = fdlsp::run_dist_mis(field.graph, options).coloring;
  Tracer tracer;

  Gate clean;
  verify_schedule(view, coloring, index, tracer, clean);
  expect(clean.attempted == 2 && clean.failed == 0, "clean coloring passes");

  // Give one arc the color of an arc it conflicts with.
  fdlsp::ArcId victim = fdlsp::kNoArc;
  for (fdlsp::ArcId a = 0; a < view.num_arcs(); ++a)
    if (index.conflict_degree(a) > 0) {
      victim = a;
      break;
    }
  expect(victim != fdlsp::kNoArc, "field has a conflicting arc pair");
  if (victim == fdlsp::kNoArc) return;
  coloring.set(victim, coloring.color(index.conflicts(victim)[0]));
  Gate corrupted;
  verify_schedule(view, coloring, index, tracer, corrupted);
  expect(corrupted.failed > 0, "one corrupted arc is counted as failed");
  expect(std::count(corrupted.failures.begin(), corrupted.failures.end(),
                    "is_feasible_schedule") == 1,
         "the feasibility check names the failure");
}

void test_same_seed_repeats() {
  for (const Workload& w : workloads()) {
    const RunResult a = run_small(w.name, 11, false);
    const RunResult b = run_small(w.name, 11, false);
    const RunResult c = run_small(w.name, 12, false);
    expect(a.fingerprint == b.fingerprint, w.name + ": same fingerprint");
    expect(a.instances == b.instances,
           w.name + ": same fingerprint, slots, rounds, messages per instance");
    expect(a.fingerprint != c.fingerprint,
           w.name + ": another seed gives another coloring");
    expect(a.gate.failed == 0 && b.gate.failed == 0,
           w.name + ": repeated runs pass the gate");
  }
}

}  // namespace

int main() {
  test_percentile_rule();
  test_corrupted_coloring_fails_gate();
  test_metric_names();
  test_same_seed_repeats();
  if (failures != 0) {
    std::cerr << failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "tdmabench self-test: all checks passed\n";
  return 0;
}
