// perfbench — the repository benchmark's measuring binary. Runs one named
// workload for a time budget and prints one JSON object on its last line:
// correctness verdict, attempted/failed counts, every metric value keyed
// by its registry name (perfbench/metrics.json), and the run's bookkeeping.
// perfbench/run.py builds it, drives it and formats the result.
//
//   perfbench --workload=hot_stream|cold_stream|zipf_serve --seed=N
//             --seconds=S --trace=0|1 [--artifact-prefix=PATH]
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include "dsm/util/cli.hpp"
#include "harness.hpp"

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const dsm::util::Cli cli(argc, argv);
    RunOptions options;
    options.workload = cli.getString("workload", "");
    options.seed = cli.getUint("seed", 1);
    options.seconds = cli.getDouble("seconds", 30.0);
    options.trace = cli.getUint("trace", 0) != 0;
    options.artifactPrefix = cli.getString("artifact-prefix", "");

    Report report;
    if (options.workload == "hot_stream") {
      report = runStreamWorkload(options, false);
    } else if (options.workload == "cold_stream") {
      report = runStreamWorkload(options, true);
    } else if (options.workload == "zipf_serve") {
      report = runZipfWorkload(options);
    } else {
      std::cerr << "perfbench: unknown workload '" << options.workload
                << "' (hot_stream, cold_stream, zipf_serve)\n";
      return 2;
    }

    std::string out = "{\"correct\": ";
    out += report.correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(report.attempted);
    out += ", \"failed\": " + std::to_string(report.failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, value] : report.metrics) {
      out += (first ? "" : ", ") + quoted(name) + ": " + number(value);
      first = false;
    }
    out += "}, \"info\": {";
    first = true;
    for (const auto& [name, json] : report.info) {
      out += (first ? "" : ", ") + quoted(name) + ": " + json;
      first = false;
    }
    out += "}, \"failures\": [";
    for (std::size_t i = 0; i < report.failures.size(); ++i) {
      out += (i ? ", " : "") + quoted(report.failures[i]);
    }
    out += "]}";
    std::cout << out << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
