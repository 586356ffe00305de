// Runs one benchmark workload in this process and prints its metrics.
//
//   tdmabench --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]
//
// Human-readable lines start with "# "; the last line of stdout is one JSON
// object with the machine context, the output-gate tally and every metric
// by name, value and unit. With --trace 1 the spans are written to FILE
// when the run ends.
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

using namespace tdmabench;

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "tdmabench: " << message
            << "\nusage: tdmabench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans FILE]\nworkloads:";
  for (const Workload& w : workloads()) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  std::exit(2);
}

std::string json_number(double value) {
  std::ostringstream os;
  os << std::setprecision(17) << value;
  return os.str();
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
           json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

std::string context_json(const Workload& w, const RunOptions& options) {
  double load[3] = {0.0, 0.0, 0.0};
  if (getloadavg(load, 3) != 3) load[0] = load[1] = load[2] = -1.0;
  std::ostringstream os;
  os << "{\"workload\": \"" << w.name << "\", \"seed\": " << options.seed
     << ", \"seconds\": " << json_number(options.seconds)
     << ", \"trace\": " << (options.trace ? 1 : 0)
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"loadavg\": [" << json_number(load[0]) << ", "
     << json_number(load[1]) << ", " << json_number(load[2])
     << "], \"build_type\": \"" << TDMABENCH_BUILD_TYPE
     << "\", \"pool_threads\": " << w.pool_threads << "}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string spans_path;
  RunOptions options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        workload_name = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--spans") {
        spans_path = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  const Workload* workload = find_workload(workload_name);
  if (workload == nullptr) usage("unknown workload '" + workload_name + "'");
  if (!have_seed) usage("--seed is required");
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");

  const std::string context = context_json(*workload, options);
  RunResult result;
  try {
    result = run_workload(*workload, options);
  } catch (const std::exception& error) {
    std::cerr << "tdmabench: " << workload->name
              << " aborted: " << error.what() << '\n';
    return 1;
  }

  for (const std::string& line : result.report) std::cout << "# " << line << '\n';
  if (options.trace && !spans_path.empty()) {
    std::ofstream out(spans_path);
    write_spans_json(out, result.trace_id, context, result.spans);
    if (!out) {
      std::cerr << "tdmabench: cannot write " << spans_path << '\n';
      return 1;
    }
    std::cout << "# spans: " << result.spans.size() << " written to "
              << spans_path << '\n';
  }
  std::ostringstream fingerprint;
  fingerprint << std::hex << result.fingerprint;
  std::cout << "{\"context\": " << context
            << ", \"iterations\": " << result.iterations
            << ", \"attempted\": " << result.gate.attempted
            << ", \"failed\": " << result.gate.failed << ", \"failures\": [";
  for (std::size_t i = 0; i < result.gate.failures.size(); ++i)
    std::cout << (i == 0 ? "\"" : ", \"") << result.gate.failures[i] << '"';
  std::cout << "], \"fingerprint\": \"" << fingerprint.str()
            << "\", \"instances\": [";
  for (std::size_t k = 0; k < result.instances.size(); ++k) {
    const InstanceId& id = result.instances[k];
    std::cout << (k == 0 ? "" : ", ") << "{\"fingerprint\": \"" << std::hex
              << id.fingerprint << std::dec << "\", \"slots\": " << id.slots
              << ", \"rounds\": " << id.rounds
              << ", \"messages\": " << id.messages << '}';
  }
  std::cout << "], \"end_to_end\": " << json_metrics(result.end_to_end)
            << ", \"per_layer\": " << json_metrics(result.per_layer) << "}"
            << std::endl;
  return 0;
}
