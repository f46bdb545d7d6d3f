#include "oracle/reference_cycle.hpp"

#include <algorithm>
#include <atomic>

#include "dsm/util/assert.hpp"
#include "dsm/util/rng.hpp"

namespace dsm::mpc {

namespace {
constexpr std::uint64_t kNoWinner = ~0ULL;  // idle arb_ value

std::uint64_t arbKey(std::uint32_t processor, std::size_t request_index) {
  return (static_cast<std::uint64_t>(processor) << 32) |
         static_cast<std::uint64_t>(request_index);
}

void atomicMin(std::atomic<std::uint64_t>& target, std::uint64_t value) {
  std::uint64_t cur = target.load(std::memory_order_relaxed);
  while (value < cur && !target.compare_exchange_weak(
                            cur, value, std::memory_order_relaxed)) {
  }
}
}  // namespace

ReferenceCycle::ReferenceCycle(Machine& machine)
    : machine_(machine),
      arb_(machine.module_count_),
      counts_(machine.module_count_),
      staged_(machine.module_count_),
      sparse_(machine.eager_ ? 0 : machine.module_count_) {
  for (auto& a : arb_) a.store(kNoWinner, std::memory_order_relaxed);
}

void ReferenceCycle::checkInSync() const {
  DSM_CHECK_MSG(machine_.lifetimeCycles() == cycles_run_,
                "the machine stepped outside its ReferenceCycle");
}

// The seed's committed-cell access: the machine's flat array when eager,
// per-module std::unordered_map (default-inserting operator[]) when sparse.
Cell& ReferenceCycle::cellRef(std::uint64_t module, std::uint64_t slot) {
  if (machine_.eager_) return machine_.cellRef(module, slot);
  return sparse_[static_cast<std::size_t>(module)][slot];
}

// Pure function of (seed, cycle, module), as Machine::step draws it.
bool ReferenceCycle::dropsGrant(std::uint64_t module) const {
  const std::uint64_t threshold =
      machine_.drop_threshold_[static_cast<std::size_t>(module)];
  if (threshold == 0) return false;
  util::SplitMix64 g(machine_.plan_.seed ^ (module * 0xA24BAED4963EE407ULL) ^
                     (machine_.lifetime_cycles_ * 0x9E3779B97F4A7C15ULL));
  return g.next() < threshold;
}

Cell ReferenceCycle::peek(std::uint64_t module, std::uint64_t slot) const {
  checkInSync();
  if (machine_.eager_) return machine_.peek(module, slot);
  machine_.checkAddress(module, slot);
  const Table& map = sparse_[static_cast<std::size_t>(module)];
  const auto it = map.find(slot);
  return it == map.end() ? Cell{} : it->second;
}

void ReferenceCycle::poke(std::uint64_t module, std::uint64_t slot,
                          Cell cell) {
  checkInSync();
  machine_.checkAddress(module, slot);
  cellRef(module, slot) = cell;
}

bool ReferenceCycle::hasStagedEntry(std::uint64_t module,
                                    std::uint64_t slot) const {
  checkInSync();
  machine_.checkAddress(module, slot);
  return staged_[static_cast<std::size_t>(module)].contains(slot);
}

void ReferenceCycle::step(const std::vector<Request>& requests,
                          std::vector<Response>& responses) {
  checkInSync();
  Machine& mach = machine_;
  mach.applyDueFaultEvents();
  responses.assign(requests.size(), Response{});
  if (requests.empty()) return;

  for (const Request& r : requests) mach.checkAddress(r.module, r.slot);

  // Phase A: elect a winner per module (commutative atomic min, so the
  // result is identical for any thread count) and count per-module load.
  // Failed modules take no part in arbitration.
  mach.pool_.parallelFor(requests.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      if (mach.failed_[static_cast<std::size_t>(requests[i].module)]) {
        responses[i].moduleFailed = true;
        continue;
      }
      atomicMin(arb_[static_cast<std::size_t>(requests[i].module)],
                arbKey(requests[i].processor, i));
      counts_[requests[i].module].fetch_add(1, std::memory_order_relaxed);
    }
  });

  // Phase B: winners perform their access. Distinct winners own distinct
  // modules, so cell and staged-table mutation is race-free; sparse-table
  // insertion is confined to the winning thread of that module.
  std::atomic<std::uint64_t> granted{0};
  std::atomic<std::uint64_t> dropped{0};
  mach.pool_.parallelFor(requests.size(), [&](std::size_t lo, std::size_t hi) {
    std::uint64_t local_granted = 0;
    std::uint64_t local_dropped = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      const Request& r = requests[i];
      const std::size_t m = static_cast<std::size_t>(r.module);
      if (responses[i].moduleFailed) continue;
      if (arb_[m].load(std::memory_order_relaxed) != arbKey(r.processor, i)) {
        continue;
      }
      // FaultPlan drop noise: the port is consumed but the grant is lost;
      // the requester retries in a later cycle.
      if (mach.has_drops_ && dropsGrant(r.module)) {
        ++local_dropped;
        responses[i].dropped = true;
        continue;
      }
      Cell& cell = cellRef(r.module, r.slot);
      switch (r.op) {
        case Op::kRead:
          break;
        case Op::kWrite:
          // Stage only: committed state is untouched until kCommit.
          staged_[m][r.slot] = Cell{r.value, r.timestamp};
          break;
        case Op::kCommit: {
          auto& map = staged_[m];
          const auto it = map.find(r.slot);
          if (it != map.end() && it->second.timestamp == r.timestamp) {
            cell = it->second;
            map.erase(it);
          }
          break;
        }
        case Op::kAbort: {
          auto& map = staged_[m];
          const auto it = map.find(r.slot);
          if (it != map.end() && it->second.timestamp == r.timestamp) {
            map.erase(it);
          }
          break;
        }
        case Op::kRepair:
          // Monotone: a repair can only move a copy forward in time.
          if (r.timestamp > cell.timestamp) {
            cell = Cell{r.value, r.timestamp};
          }
          break;
      }
      // Winners own their module this cycle, so the counter bump is
      // race-free across workers.
      if (!mach.module_load_.empty()) {
        ++mach.module_load_[m];
      }
      responses[i].granted = true;
      responses[i].value = cell.value;
      responses[i].timestamp = cell.timestamp;
      ++local_granted;
    }
    granted.fetch_add(local_granted, std::memory_order_relaxed);
    dropped.fetch_add(local_dropped, std::memory_order_relaxed);
  });

  // Phase C: read off the peak per-module contention of this cycle, then
  // reset the arbitration and count slots we touched.
  std::atomic<std::uint32_t> peak{0};
  mach.pool_.parallelFor(requests.size(), [&](std::size_t lo, std::size_t hi) {
    std::uint32_t local_peak = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      local_peak = std::max(
          local_peak,
          counts_[requests[i].module].load(std::memory_order_relaxed));
    }
    std::uint32_t cur = peak.load(std::memory_order_relaxed);
    while (local_peak > cur &&
           !peak.compare_exchange_weak(cur, local_peak,
                                       std::memory_order_relaxed)) {
    }
  });
  mach.pool_.parallelFor(requests.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      arb_[requests[i].module].store(kNoWinner, std::memory_order_relaxed);
      counts_[requests[i].module].store(0, std::memory_order_relaxed);
    }
  });

  MachineMetrics& metrics = mach.metrics_;
  metrics.cycles += 1;
  mach.lifetime_cycles_ += 1;
  cycles_run_ += 1;
  metrics.requestsIssued += requests.size();
  metrics.requestsGranted += granted.load(std::memory_order_relaxed);
  metrics.grantsDropped += dropped.load(std::memory_order_relaxed);
  metrics.maxModuleQueue = std::max<std::uint64_t>(
      metrics.maxModuleQueue, peak.load(std::memory_order_relaxed));

  // The reference cycle prices a routed backend exactly like step() does,
  // so the differential oracles stay bit-identical on every metric.
  if (mach.network_ != nullptr) mach.routeCycleWinners(requests, responses);
}

}  // namespace dsm::mpc
