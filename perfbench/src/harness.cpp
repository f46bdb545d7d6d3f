#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <thread>

#include "dsm/util/kernel_dispatch.hpp"

namespace perfbench {

SimCounts captureCounts(const dsm::mpc::Machine& machine,
                        const dsm::protocol::EngineBase& engine,
                        const dsm::serve::AdmissionScheduler* scheduler) {
  SimCounts c;
  const dsm::mpc::MachineMetrics& mm = machine.metrics();
  c.cycles = mm.cycles;
  c.issued = mm.requestsIssued;
  c.granted = mm.requestsGranted;
  c.maxModuleQueue = mm.maxModuleQueue;
  c.grantsDropped = mm.grantsDropped;
  c.netCycles = mm.networkCycles;
  c.netPackets = mm.networkPackets;
  c.netMaxQueue = mm.networkMaxQueue;
  c.netIdealCycles = mm.networkIdealCycles;
  const dsm::protocol::EngineMetrics& em = engine.metrics();
  c.batches = em.batches;
  c.requests = em.requests;
  c.wireRequests = em.wireRequests;
  c.cacheHits = em.cacheHits;
  c.cacheMisses = em.cacheMisses;
  c.addrLanes = em.addrBatchLanes;
  c.addrChunks = em.addrBatchChunks;
  c.planSavings = em.plannedWireSavings;
  c.escalations = em.escalations;
  c.maxPlannedLoad = em.maxPlannedModuleLoad;
  c.plannedNetCycles = em.plannedNetworkCycles;
  c.deadCopies = em.faults.deadCopies;
  c.stagedAborted = em.faults.stagedAborted;
  c.repairs = em.faults.repairsPerformed;
  c.commitsLost = em.faults.commitsLost;
  c.abortsLost = em.faults.abortsLost;
  c.unsatisfiable = em.faults.unsatisfiable;
  if (scheduler != nullptr) {
    const dsm::serve::ServeMetrics& sm = scheduler->metrics();
    c.submitted = sm.submitted;
    c.served = sm.served;
    c.shed = sm.shed;
    c.rejected = sm.rejectedQueueFull + sm.rejectedInvalid + sm.rejectedClosed;
    c.composed = sm.batchesComposed;
    c.combinedReads = sm.combinedReads;
    c.combinedWrites = sm.combinedWrites;
    c.maxQueueDepth = sm.maxQueueDepth;
    c.planPlacements = sm.planAwarePlacements;
    c.planDeflections = sm.planDeflections;
  }
  return c;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      std::min(values.size() - 1,
               static_cast<std::size_t>(std::max(1.0, rank)) - 1);
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double weightedPercentile(std::vector<Weighted> values, double p) {
  std::uint64_t total = 0;
  for (const Weighted& w : values) total += w.weight;
  if (total == 0) return 0.0;
  std::sort(values.begin(), values.end(),
            [](const Weighted& a, const Weighted& b) { return a.value < b.value; });
  const auto rank = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(total))));
  std::uint64_t seen = 0;
  for (const Weighted& w : values) {
    seen += w.weight;
    if (seen >= rank) return w.value;
  }
  return values.back().value;
}

SpanTimes spanTimes(const Tracer& tracer, const std::string& name) {
  SpanTimes out;
  for (const auto& thread : tracer.threads()) {
    const std::vector<Span>& spans = thread->spans;
    std::vector<double> child_ns(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.end - s.start);
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (name != spans[i].name) continue;
      const double dur = static_cast<double>(spans[i].end - spans[i].start);
      out.durMs.push_back(dur * 1e-6);
      out.selfMs.push_back((dur - child_ns[i]) * 1e-6);
      out.totalMs += dur * 1e-6;
      out.childMs += child_ns[i] * 1e-6;
    }
  }
  return out;
}

double spanTotalMs(const Tracer& tracer, const std::string& name) {
  double total = 0.0;
  for (const auto& thread : tracer.threads()) {
    for (const Span& s : thread->spans) {
      if (name == s.name) total += static_cast<double>(s.end - s.start);
    }
  }
  return total * 1e-6;
}

unsigned usableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<unsigned>(count);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string runConfigJson(const RunOptions& options, unsigned threads) {
  std::ostringstream os;
  os << "{\"workload\": \"" << options.workload << "\", \"seed\": "
     << options.seed << ", \"seconds\": " << options.seconds
     << ", \"trace\": " << (options.trace ? "true" : "false")
     << ", \"host_cpus\": " << usableCpus()
     << ", \"machine_threads\": " << threads << ", \"kernel_dispatch\": \""
     << dsm::util::kernelDispatchName() << "\", \"build_type\": \""
     << PERFBENCH_BUILD_TYPE << "\"}";
  return os.str();
}

}  // namespace perfbench
