// Shared driver code for the figure-reproduction binaries.
//
// Every figure binary accepts:
//   --instances=N   random instances per point (default 15; paper used 75)
//   --seed=S        base RNG seed (default 1)
//   --csv=PATH      also dump the table as CSV
//   --threads=T     worker threads (default: hardware concurrency)
#pragma once

#include <string>
#include <vector>

#include "exp/runner.h"
#include "support/cli.h"

namespace fdlsp::bench {

/// Configuration decoded from the command line.
struct FigureConfig {
  SweepConfig run;
  std::string csv_path;
  std::size_t threads = 0;
};

/// Parses the standard figure flags.
FigureConfig parse_figure_args(int argc, const char* const* argv,
                               std::vector<SchedulerKind> kinds);

/// Runs a UDG slots figure (Figures 8-10): one point per node count on the
/// given plan side, comparing all schedulers plus bounds.
int run_udg_slots_figure(const std::string& title, double side, int argc,
                         const char* const* argv);

/// Runs a general-graph slots figure (Figures 11-12).
int run_general_slots_figure(const std::string& title, std::size_t nodes,
                             int argc, const char* const* argv);

/// Runs a DistMIS rounds figure over general graphs (Figures 14-15).
int run_general_rounds_figure(const std::string& title, std::size_t nodes,
                              int argc, const char* const* argv);

}  // namespace fdlsp::bench
