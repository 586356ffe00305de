#include "algos/scheduler.h"

#include "algos/dfs_schedule.h"
#include "algos/dist_mis.h"
#include "algos/dmgc.h"
#include "algos/randomized.h"
#include "coloring/greedy.h"
#include "graph/arcs.h"
#include "support/check.h"

namespace fdlsp {

std::string scheduler_name(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kDistMisGbg:
      return "distMIS";
    case SchedulerKind::kDistMisGeneral:
      return "distMIS-gen";
    case SchedulerKind::kDfs:
      return "DFS";
    case SchedulerKind::kDmgc:
      return "D-MGC";
    case SchedulerKind::kGreedy:
      return "greedy";
    case SchedulerKind::kRandomized:
      return "randomized";
  }
  FDLSP_REQUIRE(false, "unknown scheduler kind");
  return {};
}

ScheduleResult run_scheduler(SchedulerKind kind, const Graph& graph,
                             const RunConfig& config) {
  switch (kind) {
    case SchedulerKind::kDistMisGbg:
    case SchedulerKind::kDistMisGeneral: {
      DistMisOptions options;
      options.variant = kind == SchedulerKind::kDistMisGbg
                            ? DistMisVariant::kGbg
                            : DistMisVariant::kGeneral;
      options.seed = config.seed;
      options.trace = config.trace;
      options.faults = config.faults;
      options.reliable = config.reliable;
      options.pool = config.pool;
      options.shards = config.shards;
      return run_dist_mis(graph, options);
    }
    case SchedulerKind::kDfs: {
      DfsOptions options;
      options.seed = config.seed;
      options.trace = config.trace;
      options.faults = config.faults;
      options.reliable = config.reliable;
      return run_dfs_schedule(graph, options);
    }
    case SchedulerKind::kDmgc:
      return run_dmgc(graph);
    case SchedulerKind::kGreedy: {
      const ArcView view(graph);
      ScheduleResult result;
      result.coloring = greedy_coloring(view, GreedyOrder::kByDegreeDesc);
      result.num_slots = result.coloring.num_colors_used();
      return result;
    }
    case SchedulerKind::kRandomized: {
      RandomizedOptions options;
      options.seed = config.seed;
      options.trace = config.trace;
      options.faults = config.faults;
      options.reliable = config.reliable;
      options.pool = config.pool;
      options.shards = config.shards;
      return run_randomized(graph, options);
    }
  }
  FDLSP_REQUIRE(false, "unknown scheduler kind");
  return {};
}

}  // namespace fdlsp
