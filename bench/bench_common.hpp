// Shared helpers for the experiment-regeneration binaries. Each bench prints
// the table EXPERIMENTS.md records; flags (--n=3,5,7 --seed=...) rescale the
// run without recompiling.
#pragma once

#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "dsm/mpc/machine.hpp"
#include "dsm/mpc/thread_pool.hpp"
#include "dsm/protocol/engines.hpp"
#include "dsm/serve/serve.hpp"
#include "dsm/util/cli.hpp"
#include "dsm/util/reflect.hpp"
#include "dsm/util/table.hpp"

namespace dsm::bench {

/// Tiny ordered JSON builder for the BENCH_*.json artifacts the benches
/// emit next to their human-readable tables. Insertion order is preserved
/// so diffs between runs stay readable. Covers exactly what the benches
/// need: objects, arrays, strings, integers, doubles, bools.
class Json {
 public:
  static Json obj() { return Json(Kind::kObject); }
  static Json arr() { return Json(Kind::kArray); }
  static Json str(std::string s) {
    Json j(Kind::kScalar);
    j.scalar_ = quote(s);
    return j;
  }
  static Json num(std::uint64_t v) {
    Json j(Kind::kScalar);
    j.scalar_ = std::to_string(v);
    return j;
  }
  static Json num(double v) {
    Json j(Kind::kScalar);
    if (!std::isfinite(v)) {
      j.scalar_ = "null";
    } else {
      std::ostringstream os;
      os.precision(12);
      os << v;
      j.scalar_ = os.str();
    }
    return j;
  }
  static Json boolean(bool v) {
    Json j(Kind::kScalar);
    j.scalar_ = v ? "true" : "false";
    return j;
  }

  Json& set(const std::string& key, Json value) {
    members_.emplace_back(key, std::move(value));
    return *this;
  }
  Json& set(const std::string& key, const std::string& v) {
    return set(key, str(v));
  }
  Json& set(const std::string& key, const char* v) {
    return set(key, str(v));
  }
  Json& set(const std::string& key, std::uint64_t v) {
    return set(key, num(v));
  }
  Json& set(const std::string& key, int v) {
    return set(key, num(static_cast<std::uint64_t>(v)));
  }
  Json& set(const std::string& key, double v) { return set(key, num(v)); }
  Json& set(const std::string& key, bool v) { return set(key, boolean(v)); }

  Json& push(Json value) {
    members_.emplace_back(std::string(), std::move(value));
    return *this;
  }

  void dump(std::ostream& os, int indent = 0) const {
    const std::string pad(static_cast<std::size_t>(indent) + 2, ' ');
    const std::string close_pad(static_cast<std::size_t>(indent), ' ');
    switch (kind_) {
      case Kind::kScalar:
        os << scalar_;
        break;
      case Kind::kObject:
      case Kind::kArray: {
        const bool object = kind_ == Kind::kObject;
        os << (object ? '{' : '[');
        for (std::size_t i = 0; i < members_.size(); ++i) {
          os << (i ? ",\n" : "\n") << pad;
          if (object) os << quote(members_[i].first) << ": ";
          members_[i].second.dump(os, indent + 2);
        }
        if (!members_.empty()) os << "\n" << close_pad;
        os << (object ? '}' : ']');
        break;
      }
    }
  }

 private:
  enum class Kind { kScalar, kObject, kArray };
  explicit Json(Kind kind) : kind_(kind) {}

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (c == '\n') {
        out += "\\n";
      } else {
        out += c;
      }
    }
    out += '"';
    return out;
  }

  Kind kind_;
  std::string scalar_;
  std::vector<std::pair<std::string, Json>> members_;
};

/// Writes `root` to `path` (pretty-printed, trailing newline) and prints a
/// one-line note so the artifact is discoverable from the bench output.
inline void writeJson(const std::string& path, const Json& root) {
  std::ofstream out(path);
  if (!out) {
    std::cout << "  json: could not open " << path << " for writing\n";
    return;
  }
  root.dump(out);
  out << "\n";
  std::cout << "  json: wrote " << path << "\n";
}

inline void banner(const std::string& id, const std::string& title) {
  std::cout << "\n=== " << id << ": " << title << " ===\n";
}

inline void footnote(const std::string& text) {
  std::cout << "  note: " << text << "\n";
}

/// Returns run() with every ThreadPool built inside it at the fixed
/// fork-grain floor (ThreadPool::kMinItemsPerWorker), then restores the
/// calibrated grain. Timed rows run at the calibrated grain, which keeps
/// bench-sized wires inline on a host whose fork overhead outweighs them;
/// an untimed identity run at the floor forks them on any host.
template <typename F>
auto atFloorForkGrain(F&& run) {
  mpc::ThreadPool::setForkGrainForTesting(mpc::ThreadPool::kMinItemsPerWorker);
  auto out = run();
  mpc::ThreadPool::setForkGrainForTesting(0);
  return out;
}

/// One-line summary of an engine's pipeline counters (E14 and any bench
/// that wants the cache/stage split next to its own table).
inline void printEngineMetrics(const std::string& label,
                               const protocol::EngineMetrics& m) {
  std::cout << "  " << label << ": batches=" << m.batches
            << " requests=" << m.requests << " wire=" << m.wireRequests
            << " cache-hit=" << util::TextTable::num(m.cacheHitRate() * 100, 1)
            << "% allocs-avoided=" << m.allocationsAvoided
            << " | build=" << util::TextTable::num(m.wireBuildSeconds * 1e3, 1)
            << "ms step=" << util::TextTable::num(m.stepSeconds * 1e3, 1)
            << "ms scan=" << util::TextTable::num(m.scanSeconds * 1e3, 1)
            << "ms addr=" << util::TextTable::num(m.addrSeconds * 1e3, 1)
            << "ms";
  if (m.addrBatchChunks > 0) {
    std::cout << " addr-lanes/chunk="
              << util::TextTable::num(
                     static_cast<double>(m.addrBatchLanes) /
                         static_cast<double>(m.addrBatchChunks),
                     1);
  }
  if (m.networkCycles > 0) std::cout << " net-cycles=" << m.networkCycles;
  if (m.plannedWireSavings > 0 || m.escalations > 0) {
    std::cout << " plan-savings=" << m.plannedWireSavings
              << " escalations=" << m.escalations
              << " max-planned-load=" << m.maxPlannedModuleLoad;
  }
  std::cout << "\n";
}

// Full-field JSON serializers for the metrics structs. The static_asserts
// pin each struct's field count: adding a counter without serializing it
// here fails the build instead of silently skipping the bench artifacts
// (the audit that added these found addrSeconds, the cache-miss split and
// the addr-batch occupancy missing from every BENCH_*.json).

inline Json faultMetricsJson(const protocol::FaultMetrics& f) {
  static_assert(util::aggregateFieldCount<protocol::FaultMetrics>() == 7,
                "FaultMetrics changed: serialize the new field here");
  Json degraded = Json::arr();
  for (const std::uint64_t d : f.degradedQuorum) degraded.push(Json::num(d));
  return Json::obj()
      .set("deadCopies", f.deadCopies)
      .set("stagedAborted", f.stagedAborted)
      .set("repairsPerformed", f.repairsPerformed)
      .set("commitsLost", f.commitsLost)
      .set("abortsLost", f.abortsLost)
      .set("unsatisfiable", f.unsatisfiable)
      .set("degradedQuorum", std::move(degraded));
}

inline Json engineMetricsJson(const protocol::EngineMetrics& m) {
  static_assert(util::aggregateFieldCount<protocol::EngineMetrics>() == 18,
                "EngineMetrics changed: serialize the new field here");
  return Json::obj()
      .set("batches", m.batches)
      .set("requests", m.requests)
      .set("wireRequests", m.wireRequests)
      .set("cacheHits", m.cacheHits)
      .set("cacheMisses", m.cacheMisses)
      .set("addrBatchLanes", m.addrBatchLanes)
      .set("addrBatchChunks", m.addrBatchChunks)
      .set("allocationsAvoided", m.allocationsAvoided)
      .set("wireBuildSeconds", m.wireBuildSeconds)
      .set("stepSeconds", m.stepSeconds)
      .set("scanSeconds", m.scanSeconds)
      .set("addrSeconds", m.addrSeconds)
      .set("networkCycles", m.networkCycles)
      .set("plannedNetworkCycles", m.plannedNetworkCycles)
      .set("plannedWireSavings", m.plannedWireSavings)
      .set("escalations", m.escalations)
      .set("maxPlannedModuleLoad", m.maxPlannedModuleLoad)
      .set("faults", faultMetricsJson(m.faults));
}

inline Json machineMetricsJson(const mpc::MachineMetrics& m) {
  static_assert(util::aggregateFieldCount<mpc::MachineMetrics>() == 12,
                "MachineMetrics changed: serialize the new field here");
  return Json::obj()
      .set("cycles", m.cycles)
      .set("requestsIssued", m.requestsIssued)
      .set("requestsGranted", m.requestsGranted)
      .set("maxModuleQueue", m.maxModuleQueue)
      .set("grantsDropped", m.grantsDropped)
      .set("networkCycles", m.networkCycles)
      .set("networkPackets", m.networkPackets)
      .set("networkMaxQueue", m.networkMaxQueue)
      .set("networkIdealCycles", m.networkIdealCycles)
      .set("networkStretch", m.networkStretch)
      .set("arbSeconds", m.arbSeconds)
      .set("accessSeconds", m.accessSeconds);
}

inline Json serveMetricsJson(const serve::ServeMetrics& m) {
  static_assert(util::aggregateFieldCount<serve::ServeMetrics>() == 20,
                "ServeMetrics changed: serialize the new field here");
  return Json::obj()
      .set("submitted", m.submitted)
      .set("admitted", m.admitted)
      .set("rejectedQueueFull", m.rejectedQueueFull)
      .set("rejectedInvalid", m.rejectedInvalid)
      .set("rejectedClosed", m.rejectedClosed)
      .set("shed", m.shed)
      .set("served", m.served)
      .set("unsatisfiable", m.unsatisfiable)
      .set("droppedClosed", m.droppedClosed)
      .set("batchesComposed", m.batchesComposed)
      .set("streamsRun", m.streamsRun)
      .set("coalesceDeferrals", m.coalesceDeferrals)
      .set("combinedReads", m.combinedReads)
      .set("combinedWrites", m.combinedWrites)
      .set("frontCacheHits", m.frontCacheHits)
      .set("frontCacheMisses", m.frontCacheMisses)
      .set("frontCacheInvalidations", m.frontCacheInvalidations)
      .set("maxQueueDepth", m.maxQueueDepth)
      .set("planAwarePlacements", m.planAwarePlacements)
      .set("planDeflections", m.planDeflections);
}

/// One-line summary of the fault/recovery counters (E11, E15).
inline void printFaultMetrics(const std::string& label,
                              const protocol::FaultMetrics& f) {
  std::cout << "  " << label << ": dead-copies=" << f.deadCopies
            << " staged-aborted=" << f.stagedAborted
            << " repairs=" << f.repairsPerformed
            << " commits-lost=" << f.commitsLost
            << " aborts-lost=" << f.abortsLost
            << " unsatisfiable=" << f.unsatisfiable << " degraded=[";
  for (std::size_t d = 0; d < f.degradedQuorum.size(); ++d) {
    std::cout << (d ? " " : "") << f.degradedQuorum[d];
  }
  std::cout << "]\n";
}

}  // namespace dsm::bench
