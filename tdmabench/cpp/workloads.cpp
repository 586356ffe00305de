#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <exception>
#include <map>
#include <memory>
#include <numbers>
#include <sstream>

#include "algos/dist_mis.h"
#include "coloring/checker.h"
#include "coloring/conflict_index.h"
#include "graph/arcs.h"
#include "graph/generators.h"
#include "sim/async_engine.h"
#include "soak/driver.h"
#include "support/alloc_audit.h"
#include "support/rng.h"
#include "support/thread_pool.h"
#include "tdma/radio_sim.h"
#include "tdma/schedule.h"

namespace tdmabench {

using namespace fdlsp;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = [] {
    std::vector<Workload> list;
    Workload sync;
    sync.name = "field-sync";
    sync.kind = WorkloadKind::kFieldSync;
    sync.n = 10'000;
    sync.instances = 16;
    sync.pool_threads = 4;
    list.push_back(sync);

    Workload async;
    async.name = "field-async-burst";
    async.kind = WorkloadKind::kFieldAsync;
    async.n = 500;
    async.instances = 9;
    async.drop_rate = 0.05;
    async.burst_rate = 0.02;
    list.push_back(async);

    Workload churn;
    churn.name = "soak-churn";
    churn.kind = WorkloadKind::kSoak;
    churn.n = 1000;
    churn.instances = 16;
    churn.events = 2000;
    churn.check_stride = 100;
    list.push_back(churn);

    Workload distributed;
    distributed.name = "soak-distributed";
    distributed.kind = WorkloadKind::kSoak;
    distributed.n = 256;
    distributed.instances = 32;
    distributed.events = 250;
    distributed.distributed = true;
    distributed.check_stride = 50;
    list.push_back(distributed);
    return list;
  }();
  return all;
}

std::uint64_t instance_seed(std::uint64_t seed, std::size_t k) {
  return seed * 1'000'003ULL + k;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& workload : workloads())
    if (workload.name == name) return &workload;
  return nullptr;
}

void Gate::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (std::find(failures.begin(), failures.end(), what) == failures.end())
    failures.push_back(what);
}

double verify_schedule(const ArcView& view, const ArcColoring& coloring,
                       const ConflictIndex& index, Tracer& tracer,
                       Gate& gate) {
  bool feasible = false;
  {
    Scope span(tracer, "coloring.check");
    feasible = is_feasible_schedule(view, coloring, &index);
  }
  gate.check(feasible, "is_feasible_schedule");
  // TdmaSchedule refuses an incomplete coloring or a node that transmits
  // and receives in one slot; either way the replay check fails.
  RadioReport report;
  bool built = false;
  try {
    std::optional<TdmaSchedule> schedule;
    {
      Scope span(tracer, "tdma.build");
      schedule.emplace(view, coloring);
    }
    Scope span(tracer, "tdma.replay");
    report = replay_frame(*schedule);
    built = true;
  } catch (const std::exception&) {
    built = false;
  }
  gate.check(built && report.scheduled == view.num_arcs() &&
                 report.delivered == report.scheduled,
             "replay_frame delivers every arc");
  if (view.num_arcs() == 0) return built ? 1.0 : 0.0;
  return static_cast<double>(report.delivered) /
         static_cast<double>(view.num_arcs());
}

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

double median(std::vector<double> values) { return percentile(values, 50.0); }

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  const double rank = p / 100.0 * static_cast<double>(n - 1);
  return n - 1 - static_cast<std::size_t>(rank);
}

std::optional<double> reported_tail(std::size_t n) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0})
    if (samples_beyond(n, p) >= 10) return p;
  return std::nullopt;
}

namespace {

constexpr double kMs = 1e3;
constexpr double kUs = 1e6;

/// Per-layer counters, reported as the mean over traced iterations. An
/// instance fills the ones its layers produce; the rest read 0, which is
/// the predicted value on workloads that bypass the layer.
struct CounterDef {
  const char* name;
  const char* unit;
};
constexpr CounterDef kCounters[] = {
    {"graph.nodes", "count"},
    {"graph.edges", "count"},
    {"graph.max_degree", "count"},
    {"coloring.index_bytes", "bytes"},
    {"coloring.conflicts", "count"},
    {"tdma.delivered_frac", "fraction"},
    {"algos.rounds", "count"},
    {"algos.messages", "count"},
    {"sim.sync.allocs", "count"},
    {"sim.sync.alloc_rounds", "count"},
    {"sim.async.engine_messages", "count"},
    {"sim.async.timer_events", "count"},
    {"sim.async.completion_delays", "delays"},
    {"sim.async.allocs", "count"},
    {"sim.fault.dropped", "count"},
    {"sim.fault.burst_dropped", "count"},
    {"sim.reliable.retransmits", "count"},
    {"sim.reliable.probes", "count"},
    {"sim.reliable.suspicions", "count"},
    {"sim.reliable.retransmit_share", "fraction"},
    {"soak.repairs", "count"},
    {"soak.recomputes", "count"},
    {"soak.noop_events", "count"},
    {"soak.fallbacks", "count"},
    {"soak.recolored_per_event", "arcs"},
    {"soak.max_slots", "count"},
};

using Counters = std::map<std::string, double>;

/// Outcome of one iteration: one instance scheduled and checked.
struct InstanceRun {
  double setup_s = 0.0;
  double schedule_s = 0.0;
  double verify_s = 0.0;
  double events = 0.0;  ///< the events behind events_per_s
  InstanceId id;
  Counters counters;
};

double peak_rss_mb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The paper's field: transmission radius 0.5, and a square side that
/// gives a mean degree of 6 for n nodes.
constexpr double kFieldRadius = 0.5;
constexpr double kFieldMeanDegree = 6.0;

double field_side(std::size_t n) {
  return std::sqrt(static_cast<double>(n) * std::numbers::pi * kFieldRadius *
                   kFieldRadius / kFieldMeanDegree);
}

std::string format_double(double value, int precision = 3) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << value;
  return os.str();
}

void record_graph(Counters& c, const Graph& graph, const ConflictIndex& index) {
  c["graph.nodes"] = static_cast<double>(graph.num_nodes());
  c["graph.edges"] = static_cast<double>(graph.num_edges());
  c["graph.max_degree"] = static_cast<double>(graph.max_degree());
  c["coloring.index_bytes"] =
      static_cast<double>(index.raw_offsets().size() * sizeof(std::size_t) +
                          index.raw_neighbors().size() * sizeof(ArcId));
  c["coloring.conflicts"] = static_cast<double>(index.total_conflicts()) / 2;
}

InstanceRun run_field_instance(const Workload& w, std::uint64_t seed,
                               bool traced, ThreadPool* pool, Tracer& tracer,
                               Gate& gate) {
  InstanceRun run;
  Scope iteration(tracer, "iteration");

  Scope setup(tracer, "setup");
  Rng rng(seed);
  const GeometricGraph field = [&] {
    Scope span(tracer, "graph.generate");
    return generate_udg(w.n, field_side(w.n), kFieldRadius, rng);
  }();
  const ArcView view(field.graph);
  std::optional<ConflictIndex> index;
  {
    Scope span(tracer, "coloring.index_build");
    if (pool != nullptr) {
      index.emplace(view, *pool);
    } else {
      index.emplace(view);
    }
  }
  run.setup_s = setup.stop();

  const bool sync = w.kind == WorkloadKind::kFieldSync;
  AllocAudit audit;
  AsyncMetrics engine;
  ScheduleResult result;
  if (sync) {
    DistMisOptions options;
    options.seed = seed;
    options.pool = pool;
    options.audit = traced ? &audit : nullptr;
    Scope span(tracer, "sim.sync.run");
    result = run_dist_mis(field.graph, options);
    run.schedule_s = span.stop();
  } else {
    FaultSpec faults;
    faults.seed = seed;
    faults.drop_rate = w.drop_rate;
    faults.burst_rate = w.burst_rate;
    AsyncDistMisOptions options;
    options.seed = seed;
    options.delay_seed = seed;
    options.faults = &faults;
    options.reliable = true;
    options.audit = traced ? &audit : nullptr;
    options.engine_metrics = &engine;
    Scope span(tracer, "sim.async.run");
    result = run_dist_mis_async(field.graph, options);
    run.schedule_s = span.stop();
  }

  Scope verify(tracer, "verify");
  gate.check(result.completed, "scheduler completed");
  const double delivered =
      verify_schedule(view, result.coloring, *index, tracer, gate);
  run.verify_s = verify.stop();

  run.id = {coloring_fingerprint(result.coloring), result.num_slots,
            result.rounds, result.messages};
  run.events = sync ? static_cast<double>(result.messages)
                    : static_cast<double>(engine.messages + engine.timer_events);
  Counters& c = run.counters;
  record_graph(c, field.graph, *index);
  c["tdma.delivered_frac"] = delivered;
  c["algos.rounds"] = static_cast<double>(result.rounds);
  c["algos.messages"] = static_cast<double>(result.messages);
  if (sync) {
    c["sim.sync.allocs"] = static_cast<double>(audit.total_allocations());
    c["sim.sync.alloc_rounds"] = static_cast<double>(audit.allocating_rounds());
    return run;
  }
  c["sim.async.engine_messages"] = static_cast<double>(engine.messages);
  c["sim.async.timer_events"] = static_cast<double>(engine.timer_events);
  c["sim.async.completion_delays"] = engine.completion_time;
  c["sim.async.allocs"] = static_cast<double>(audit.total_allocations());
  c["sim.fault.dropped"] = static_cast<double>(result.faults.dropped);
  c["sim.fault.burst_dropped"] =
      static_cast<double>(result.faults.burst_dropped);
  c["sim.reliable.retransmits"] =
      static_cast<double>(result.transport.retransmits);
  c["sim.reliable.probes"] = static_cast<double>(result.transport.probes);
  c["sim.reliable.suspicions"] =
      static_cast<double>(result.transport.suspicions);
  c["sim.reliable.retransmit_share"] =
      engine.messages == 0 ? 0.0
                           : static_cast<double>(result.transport.retransmits) /
                                 static_cast<double>(engine.messages);
  return run;
}

/// Soak verification: a fresh ConflictIndex of the current topology (so the
/// check does not trust the SoakDriver's incrementally patched index), then
/// verify_schedule on the live coloring.
double verify_soak(const SoakDriver& driver, Tracer& tracer, Gate& gate) {
  const ArcView view(driver.graph());
  std::optional<ConflictIndex> index;
  {
    Scope span(tracer, "coloring.index_build");
    index.emplace(view);
  }
  return verify_schedule(view, driver.coloring(), *index, tracer, gate);
}

/// One soak stream. Untraced step latencies are appended to `step_us`.
InstanceRun run_soak_instance(const Workload& w, std::uint64_t seed,
                              Tracer& tracer, Gate& gate,
                              std::vector<double>* step_us) {
  InstanceRun run;
  SoakSpec spec;
  spec.seed = seed;
  spec.n = w.n;
  spec.events = w.events;
  // Side grows with sqrt(n) so density stays that of the soak micro suite.
  spec.side = 0.9 * std::sqrt(static_cast<double>(w.n));
  SoakOptions options;
  options.distributed = w.distributed;

  Scope iteration(tracer, "iteration");
  std::optional<SoakDriver> driver;
  {
    Scope setup(tracer, "setup");
    Scope span(tracer, "soak.init");
    driver.emplace(spec, options);
    span.stop();
    run.setup_s = setup.stop();
  }
  double delivered = 0.0;
  for (std::uint64_t e = 0; e < w.events; ++e) {
    Scope span(tracer, "soak.step");
    driver->step(e);
    const double step_s = span.stop();
    run.schedule_s += step_s;
    if (step_us != nullptr) step_us->push_back(step_s * kUs);
    if ((e + 1) % w.check_stride == 0 || e + 1 == w.events) {
      Scope verify(tracer, "verify");
      delivered = verify_soak(*driver, tracer, gate);
      run.verify_s += verify.stop();
    }
  }

  const SoakStats& stats = driver->stats();
  run.id = {coloring_fingerprint(driver->coloring()), stats.max_slots, 0, 0};
  run.events = static_cast<double>(w.events);
  Counters& c = run.counters;
  record_graph(c, driver->graph(), driver->index());
  c["tdma.delivered_frac"] = delivered;
  c["soak.repairs"] = static_cast<double>(stats.repairs);
  c["soak.recomputes"] = static_cast<double>(stats.recomputes);
  c["soak.noop_events"] = static_cast<double>(stats.noop_events);
  c["soak.fallbacks"] = static_cast<double>(stats.fallbacks);
  c["soak.max_slots"] = static_cast<double>(stats.max_slots);
  const std::size_t scheduled = stats.repairs + stats.recomputes;
  c["soak.recolored_per_event"] =
      scheduled == 0 ? 0.0
                     : static_cast<double>(stats.total_recolored) /
                           static_cast<double>(scheduled);
  return run;
}

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/// Seconds reference_seconds takes on the idle machine the benchmark was
/// defined on (4 vCPUs at 2.1 GHz, RelWithDebInfo): run once serially, and
/// run once per worker of a 4-thread pool at the same time.
constexpr double kReferenceNominalS = 0.0650;
constexpr double kPooledReferenceNominalS = 0.0730;

/// A fixed loop of the benchmark's own: sort 400k pseudo-random words,
/// then a dependent walk over them. It shares no code with the library, so
/// a change to the library cannot move it; only the machine's speed can.
void reference_loop(std::vector<std::uint32_t>& words) {
  words.resize(400'000);
  std::uint64_t x = 88172645463325252ULL;
  for (std::uint32_t& word : words) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    word = static_cast<std::uint32_t>(x);
  }
  std::sort(words.begin(), words.end());
  std::uint64_t sum = 0;
  std::size_t at = 0;
  for (int step = 0; step < 2'000'000; ++step) {
    at = (at * 2654435761U + words[at]) % words.size();
    sum += words[at];
  }
  // Keep the walk observable so the compiler cannot drop it.
  if (sum == 1) words[0] = 0;
}

/// Wall time of the reference loop on the caller's thread, or with a pool
/// once per worker at the same time. Pooled code waits for its slowest
/// worker at every barrier, so it suffers more from a stalled core than
/// serial code; the pooled reference does too.
double reference_seconds(ThreadPool* pool,
                         std::vector<std::vector<std::uint32_t>>& words) {
  const Clock::time_point start = Clock::now();
  if (pool == nullptr) {
    words.resize(1);
    reference_loop(words[0]);
  } else {
    words.resize(pool->size());
    for (std::vector<std::uint32_t>& mine : words)
      pool->submit([&mine] { reference_loop(mine); });
    pool->wait_idle();
  }
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Self time of the named spans, ms per traced iteration.
double self_ms(const std::map<std::string, SelfTime>& table,
               std::initializer_list<const char*> names, double iterations) {
  double ns = 0.0;
  for (const char* name : names) {
    const auto it = table.find(name);
    if (it != table.end()) ns += it->second.self_ns;
  }
  return ns / 1e6 / iterations;
}

}  // namespace

RunResult run_workload(const Workload& w, const RunOptions& options) {
  RunResult out;
  out.trace_id =
      static_cast<std::uint64_t>(Clock::now().time_since_epoch().count()) ^
      (options.seed * 0x9e3779b97f4a7c15ULL);
  Tracer tracer;
  std::unique_ptr<ThreadPool> pool;
  if (w.pool_threads > 0) pool = std::make_unique<ThreadPool>(w.pool_threads);

  // Untraced runs schedule every instance once and instance 0 twice, the
  // repeat that the determinism check needs. Traced runs make one traced
  // and one untraced pass over half of the instances, which keeps them as
  // long as an untraced run.
  const std::size_t k_count =
      options.trace ? (w.instances + 1) / 2 : w.instances;
  const std::size_t min_iterations = options.trace ? 2 * k_count : k_count + 1;
  std::vector<std::vector<std::uint32_t>> reference_words;
  std::vector<double> serial_reference_s, pooled_reference_s;
  std::vector<double> setup_s;
  std::vector<std::vector<double>> schedule_s(k_count), verify_s(k_count),
      traced_schedule_s(k_count);
  std::vector<double> events(k_count, 0.0);
  std::vector<std::optional<InstanceId>> first(k_count);
  std::vector<double> step_us;
  Counters counter_sum;
  double traced_runs = 0.0;
  double traced_events = 0.0;

  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const std::size_t k = i % k_count;
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (i >= min_iterations && elapsed >= options.seconds) break;
    serial_reference_s.push_back(reference_seconds(nullptr, reference_words));
    if (pool)
      pooled_reference_s.push_back(reference_seconds(pool.get(), reference_words));
    // Traced runs alternate whole passes over the instances, traced first.
    const bool traced = options.trace && (i / k_count) % 2 == 0;
    tracer.set_enabled(traced);
    const std::uint64_t seed = instance_seed(options.seed, k);
    const InstanceRun run =
        w.kind == WorkloadKind::kSoak
            ? run_soak_instance(w, seed, tracer, out.gate,
                                traced ? nullptr : &step_us)
            : run_field_instance(w, seed, traced, pool.get(), tracer,
                                 out.gate);
    if (!first[k]) {
      first[k] = run.id;
    } else {
      out.gate.check(run.id == *first[k],
                     "same seed repeats fingerprint, slots, rounds, messages");
    }
    events[k] = run.events;
    if (traced) {
      traced_runs += 1.0;
      traced_events += run.events;
      traced_schedule_s[k].push_back(run.schedule_s);
      for (const auto& [name, value] : run.counters) counter_sum[name] += value;
    } else {
      setup_s.push_back(run.setup_s);
      schedule_s[k].push_back(run.schedule_s);
      verify_s[k].push_back(run.verify_s);
    }
    ++out.iterations;
  }

  out.fingerprint = 0xcbf29ce484222325ULL;
  for (std::size_t k = 0; k < k_count; ++k) {
    const InstanceId& id = *first[k];
    out.instances.push_back(id);
    out.fingerprint = (out.fingerprint ^ id.fingerprint) * 0x100000001b3ULL;
    std::ostringstream line;
    line << "instance " << k << " (seed " << instance_seed(options.seed, k)
         << "): fingerprint " << std::hex << id.fingerprint << std::dec
         << "  slots " << id.slots << "  rounds " << id.rounds
         << "  messages " << id.messages;
    out.report.push_back(line.str());
  }

  // Other tenants of the machine slow whole runs down by 10-30% for tens of
  // seconds. The reference loops, timed before every iteration, slow down
  // with them, so times are scaled to the speed at which they take their
  // nominal time: pooled phases (the index build and the engine of a pooled
  // workload) by the pooled loop, serial ones by the serial loop. Per
  // instance the median over its repeats, per run the mean over instances,
  // which evens out how much the random inputs differ. Slots are
  // deterministic per instance.
  const double serial_speed =
      kReferenceNominalS / median(serial_reference_s);
  const double pooled_speed =
      pool ? kPooledReferenceNominalS / median(pooled_reference_s)
           : serial_speed;
  std::vector<double> schedule_k, verify_k, slots_k;
  double events_total = 0.0;
  double schedule_total = 0.0;
  for (std::size_t k = 0; k < k_count; ++k) {
    schedule_k.push_back(median(schedule_s[k]) * pooled_speed);
    schedule_total += schedule_k.back();
    verify_k.push_back(median(verify_s[k]) * serial_speed);
    slots_k.push_back(static_cast<double>(first[k]->slots));
    events_total += events[k];
  }
  out.end_to_end = {
      {"setup_s", median(setup_s) * pooled_speed, "s"},
      {"schedule_s", mean(schedule_k), "s"},
      {"verify_s", mean(verify_k), "s"},
      {"events_per_s", events_total / schedule_total, "1/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"slots", mean(slots_k), "count"},
  };
  out.report.push_back(
      "machine speed: serial reference median " +
      format_double(median(serial_reference_s) * kMs) + " ms (nominal " +
      format_double(kReferenceNominalS * kMs) + "), times scaled by " +
      format_double(serial_speed, 4));
  if (pool)
    out.report.push_back(
        "machine speed: pooled reference median " +
        format_double(median(pooled_reference_s) * kMs) + " ms (nominal " +
        format_double(kPooledReferenceNominalS * kMs) +
        "), pooled phases scaled by " + format_double(pooled_speed, 4));
  out.report.push_back("iterations: " + std::to_string(out.iterations) +
                       " over " + std::to_string(k_count) + " instances, " +
                       format_double(traced_runs, 0) + " traced");
  if (const auto tail = reported_tail(step_us.size())) {
    out.report.push_back(
        "event latency over " + std::to_string(step_us.size()) +
        " untraced steps: p50 " + format_double(percentile(step_us, 50.0), 1) +
        " us, p" + format_double(*tail, 1) + " " +
        format_double(percentile(step_us, *tail), 1) + " us");
  }
  if (!options.trace) return out;

  out.spans = tracer.spans();
  const auto table = self_times(out.spans);
  // Scaled to the nominal machine speed like the end-to-end times.
  const auto layer_ms = [&](std::initializer_list<const char*> names,
                            double speed) {
    return self_ms(table, names, traced_runs) * speed;
  };
  const double sched_ms =
      layer_ms({"sim.sync.run", "sim.async.run", "soak.step"}, pooled_speed);
  std::vector<double> overhead_k;
  for (std::size_t k = 0; k < k_count; ++k)
    overhead_k.push_back(median(traced_schedule_s[k]) * pooled_speed -
                         schedule_k[k]);
  out.per_layer = {
      {"input.self_ms", layer_ms({"graph.generate", "soak.init"}, serial_speed),
       "ms"},
      {"coloring.index_build_ms",
       layer_ms({"coloring.index_build"}, pooled_speed), "ms"},
      {"coloring.check_ms", layer_ms({"coloring.check"}, serial_speed), "ms"},
      {"tdma.build_ms", layer_ms({"tdma.build"}, serial_speed), "ms"},
      {"tdma.replay_ms", layer_ms({"tdma.replay"}, serial_speed), "ms"},
      {"sched.self_ms", sched_ms, "ms"},
      {"sched.ns_per_event", sched_ms * 1e6 * traced_runs / traced_events,
       "ns"},
      {"trace.spans", static_cast<double>(out.spans.size()) / traced_runs,
       "count"},
      {"trace.overhead_ms", mean(overhead_k) * kMs, "ms"},
  };
  for (const auto& [name, value] : counter_sum)
    if (std::none_of(std::begin(kCounters), std::end(kCounters),
                     [&](const CounterDef& d) { return name == d.name; }))
      throw std::logic_error("counter without a definition: " + name);
  for (const CounterDef& def : kCounters)
    out.per_layer.push_back(
        {def.name, counter_sum[def.name] / traced_runs, def.unit});

  out.report.push_back(
      "self time per layer, ms per traced iteration (unscaled):");
  for (const auto& [name, entry] : table) {
    std::string label = "  " + name;
    label.resize(std::max<std::size_t>(label.size() + 1, 26), ' ');
    out.report.push_back(label + "self " +
                         format_double(entry.self_ns / 1e6 / traced_runs) +
                         "  total " +
                         format_double(entry.total_ns / 1e6 / traced_runs) +
                         "  spans " + std::to_string(entry.spans));
  }
  return out;
}

}  // namespace tdmabench
