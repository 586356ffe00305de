// The synchronous schedulers' shared run wiring (algos-internal): install
// the optional fault plan and reliable decorator, configure the engine's
// seams from a RunConfig, run, and collect the transport outcome. Each
// driver keeps its own result checks.
#pragma once

#include <cstddef>
#include <vector>

#include "algos/scheduler.h"
#include "graph/graph.h"
#include "sim/reliable.h"
#include "sim/sync_engine.h"

namespace fdlsp {

class AllocAudit;

/// What a synchronous scheduler run produced besides its set's own state.
struct SyncRun {
  SyncMetrics metrics;
  bool faulted = false;      ///< a fault plan was installed
  TransportStats transport;  ///< all zero without config.reliable
  std::vector<NodeId> suspected;  ///< sorted, unique; empty without reliable
};

/// Runs `set` over `graph` under `config`: with config.reliable the set
/// runs behind a ReliableSyncSet and `max_rounds` counts inner rounds (the
/// engine budget is dilated to match). `audit` brackets every engine round
/// (SyncEngine::set_alloc_audit); not owned, may be null.
SyncRun run_sync(const Graph& graph, SyncProgramSet& set,
                 const RunConfig& config, std::size_t max_rounds,
                 AllocAudit* audit = nullptr);

}  // namespace fdlsp
