// Toolchain example: generate a field, schedule it, persist both graph and
// schedule to text files, reload them, validate, and export Graphviz —
// the round trip a deployment pipeline performs between the scheduler and
// the sensors' configuration images.
//
//   ./schedule_io [--nodes=N] [--out=DIR] [--seed=K]
#include <fstream>
#include <iostream>

#include "algos/scheduler.h"
#include "coloring/checker.h"
#include "graph/algorithms.h"
#include "graph/arcs.h"
#include "graph/generators.h"
#include "io/io.h"
#include "support/cli.h"
#include "support/rng.h"

int main(int argc, char** argv) {
  using namespace fdlsp;
  const CliArgs args(argc, argv);
  const auto nodes = static_cast<std::size_t>(args.get_int("nodes", 40));
  const std::string dir = args.get("out", "/tmp");
  Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 13)));

  const GeometricGraph field = generate_udg(nodes, 4.0, 1.0, rng);
  const auto nodes_kept = largest_component(field.graph);
  const InducedSubgraph sub = induced_subgraph(field.graph, nodes_kept);
  std::vector<Point> positions;
  for (NodeId v : sub.to_original) positions.push_back(field.positions[v]);

  const ScheduleResult result =
      run_scheduler(SchedulerKind::kDistMisGbg, sub.graph, {.seed = 99});

  const std::string graph_path = dir + "/field.graph";
  const std::string schedule_path = dir + "/field.schedule";
  const std::string dot_path = dir + "/field.dot";
  save_graph_file(graph_path, sub.graph, &positions);
  save_schedule_file(schedule_path, result.coloring);
  {
    std::ofstream dot(dot_path);
    write_dot(dot, sub.graph, &result.coloring);
  }
  std::cout << "wrote " << graph_path << ", " << schedule_path << ", "
            << dot_path << '\n';

  // Reload and validate — what a sensor's boot loader would do.
  const GeometricGraph reloaded = load_graph_file(graph_path);
  const ArcColoring schedule = load_schedule_file(schedule_path);
  const bool ok =
      is_feasible_schedule(ArcView(reloaded.graph), schedule);
  std::cout << "reloaded " << reloaded.graph.num_nodes() << " nodes, "
            << reloaded.graph.num_edges() << " links, "
            << schedule.num_colors_used() << " slots — "
            << (ok ? "schedule valid" : "SCHEDULE INVALID") << '\n';
  return ok ? 0 : 1;
}
