#include "algos/sync_run.h"

#include <optional>

#include "sim/fault.h"

namespace fdlsp {

SyncRun run_sync(const Graph& graph, SyncProgramSet& set,
                 const RunConfig& config, std::size_t max_rounds,
                 AllocAudit* audit) {
  const FaultSpec spec =
      config.faults != nullptr ? *config.faults : FaultSpec{};
  std::optional<ReliableSyncSet> reliable;
  std::size_t round_budget = max_rounds;
  if (config.reliable) {
    reliable.emplace(set, spec);
    round_budget *= ReliableSyncSet::round_dilation(spec);
  }
  SyncEngine engine(graph, reliable.has_value() ? *reliable : set);
  engine.set_trace(config.trace);
  engine.set_thread_pool(config.pool);
  engine.set_shards(config.shards);
  engine.set_alloc_audit(audit);
  std::optional<FaultPlan> plan;
  if (config.faults != nullptr && config.faults->any()) {
    plan.emplace(spec, graph);
    engine.set_fault_plan(&*plan);
  }
  SyncRun run;
  run.metrics = engine.run(round_budget);
  run.faulted = plan.has_value();
  if (reliable.has_value()) {
    run.transport = reliable->transport_stats();
    run.suspected = reliable->suspected();
  }
  return run;
}

}  // namespace fdlsp
