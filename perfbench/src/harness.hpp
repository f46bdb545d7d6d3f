// Shared harness types: run options, the per-run report, the simulated-count
// signature used by the determinism checks, and small statistics helpers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dsm/mpc/machine.hpp"
#include "dsm/protocol/engines.hpp"
#include "dsm/serve/serve.hpp"
#include "probes.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::string artifactPrefix;  ///< spans go to <prefix>-spans.tsv if set
};

/// Everything one run reports. Metric values are keyed by the registry
/// names in perfbench/metrics.json; `info` holds bookkeeping that is not a
/// metric (run config, determinism verdicts, open-loop detail).
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> info;  ///< values are JSON literals
  std::vector<std::string> failures;        ///< why `correct` is false

  void fail(const std::string& why) {
    correct = false;
    failures.push_back(why);
  }
};

/// Every simulated count a run produces: a pure function of the workload
/// inputs, so it must repeat bit for bit across repeated rounds and between
/// traced and untraced runs.
struct SimCounts {
  // MPC machine.
  std::uint64_t cycles = 0, issued = 0, granted = 0, maxModuleQueue = 0,
                grantsDropped = 0, netCycles = 0, netPackets = 0,
                netMaxQueue = 0, netIdealCycles = 0;
  // Protocol engine.
  std::uint64_t batches = 0, requests = 0, wireRequests = 0, cacheHits = 0,
                cacheMisses = 0, addrLanes = 0, addrChunks = 0,
                planSavings = 0, escalations = 0, maxPlannedLoad = 0,
                plannedNetCycles = 0, deadCopies = 0, stagedAborted = 0,
                repairs = 0, commitsLost = 0, abortsLost = 0,
                unsatisfiable = 0;
  // Serving layer (zero for the offline streams).
  std::uint64_t submitted = 0, served = 0, shed = 0, rejected = 0,
                composed = 0, combinedReads = 0, combinedWrites = 0,
                maxQueueDepth = 0, planPlacements = 0, planDeflections = 0;
  // Outcomes: kOk responses and a hash of every response (status, value).
  std::uint64_t ok = 0, outcomeHash = 0;

  bool operator==(const SimCounts&) const = default;
};

SimCounts captureCounts(const dsm::mpc::Machine& machine,
                        const dsm::protocol::EngineBase& engine,
                        const dsm::serve::AdmissionScheduler* scheduler);

/// FNV-1a style fold of one response into a running hash.
inline std::uint64_t foldOutcome(std::uint64_t h, std::uint64_t status,
                                 std::uint64_t value) {
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  h = (h ^ status) * kPrime;
  h = (h ^ value) * kPrime;
  return h;
}

/// A value standing for `weight` equal samples.
struct Weighted {
  double value = 0.0;
  std::uint64_t weight = 0;
};

/// a / b, or 0 when b is 0.
inline double ratio(std::uint64_t a, std::uint64_t b) {
  return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
}
/// `count` per 1000 kOk requests.
inline double perKreq(std::uint64_t count, std::uint64_t ok) {
  return 1e3 * ratio(count, ok);
}

/// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);
double weightedPercentile(std::vector<Weighted> values, double p);

/// Per-span self time: duration minus the direct children on its thread.
struct SpanTimes {
  std::vector<double> durMs;   ///< one per span of the requested name
  std::vector<double> selfMs;  ///< same order
  double totalMs = 0.0;
  double childMs = 0.0;  ///< summed durations of direct children
};
SpanTimes spanTimes(const Tracer& tracer, const std::string& name);
/// Summed duration of every span named `name`, on any thread.
double spanTotalMs(const Tracer& tracer, const std::string& name);

/// CPUs this process may run on (the affinity mask, as nproc reports).
unsigned usableCpus();
double peakRssMb();

/// The run config as a JSON object: workload, seed, budget, host CPUs,
/// machine threads, field-kernel dispatch and build type.
std::string runConfigJson(const RunOptions& options, unsigned threads);

Report runStreamWorkload(const RunOptions& options, bool cold);
Report runZipfWorkload(const RunOptions& options);

}  // namespace perfbench
