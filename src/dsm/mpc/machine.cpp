#include "dsm/mpc/machine.hpp"

#include <algorithm>
#include <cmath>

#include "dsm/mpc/interconnect.hpp"
#include "dsm/util/assert.hpp"
#include "dsm/util/rng.hpp"
#include "dsm/util/timer.hpp"

namespace dsm::mpc {

namespace {
constexpr std::uint64_t kNoWinner = ~0ULL;
constexpr std::uint64_t kNoBadIndex = ~0ULL;

// Arbitration key: lowest processor wins; ties (which a well-formed protocol
// never produces) break towards the lowest request index.
std::uint64_t arbKey(std::uint32_t processor, std::size_t request_index) {
  return (static_cast<std::uint64_t>(processor) << 32) |
         static_cast<std::uint64_t>(request_index);
}

// Scales a probability in [0, 1) to a 64-bit comparison threshold.
std::uint64_t dropThreshold(double p) {
  return static_cast<std::uint64_t>(
      std::ldexp(static_cast<long double>(p), 64));
}
}  // namespace

Machine::Machine(std::uint64_t module_count, std::uint64_t slots_per_module,
                 unsigned threads)
    : module_count_(module_count),
      slots_per_module_(slots_per_module),
      eager_(slots_per_module != 0 &&
             module_count * slots_per_module <= kEagerLimit),
      arb_(module_count, kNoWinner),
      counts_(module_count, 0),
      pool_(threads) {
  DSM_CHECK_MSG(module_count > 0, "machine needs at least one module");
  if (eager_) {
    flat_.assign(static_cast<std::size_t>(module_count * slots_per_module_),
                 Cell{});
  } else {
    sparse_.resize(static_cast<std::size_t>(module_count));
  }
  staged_.resize(static_cast<std::size_t>(module_count));
  failed_.assign(static_cast<std::size_t>(module_count), 0);
}

// Out of line: Interconnect is incomplete in the header.
Machine::~Machine() = default;

void Machine::setInterconnect(std::unique_ptr<Interconnect> backend) {
  if (backend != nullptr && !backend->zeroCost()) {
    DSM_CHECK_MSG(backend->moduleLimit() >= module_count_,
                  "interconnect '" << backend->name() << "' covers only "
                                   << backend->moduleLimit()
                                   << " modules, machine has "
                                   << module_count_);
  }
  interconnect_ = std::move(backend);
  // Zero-cost backends (and none at all) keep the cycle pristine:
  // network_ stays null and step() never collects winners.
  network_ = (interconnect_ != nullptr && !interconnect_->zeroCost())
                 ? interconnect_.get()
                 : nullptr;
}

void Machine::announcePlan(const WirePlan& plan) {
  if (network_ != nullptr) network_->onPlan(plan);
}

void Machine::routeCycleWinners(const std::vector<Request>& requests,
                                const std::vector<Response>& responses) {
  // At most one winner per live module: the cycle sets granted or dropped
  // exactly on the arbitration winner at a live module (losers and
  // failed-module requests clear both). Winners surface in wire order, so
  // packet injection order — and therefore the butterfly's FIFO tie-breaks
  // — is a pure function of the wire.
  winners_.clear();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (responses[i].granted || responses[i].dropped) {
      winners_.push_back(GrantLink{requests[i].processor, requests[i].module});
    }
  }
  const net::RoutingStats stats = network_->routeWinners(winners_);
  metrics_.networkCycles += stats.cycles;
  metrics_.networkPackets += stats.packets;
  metrics_.networkMaxQueue =
      std::max(metrics_.networkMaxQueue, stats.maxQueue);
  if (!winners_.empty()) {
    metrics_.networkIdealCycles += network_->idealCycles();
  }
  metrics_.networkStretch =
      metrics_.networkIdealCycles == 0
          ? 0.0
          : static_cast<double>(metrics_.networkCycles) /
                static_cast<double>(metrics_.networkIdealCycles);
}

void Machine::failModule(std::uint64_t module) {
  DSM_CHECK_MSG(module < module_count_, "module out of range: " << module);
  if (!failed_[static_cast<std::size_t>(module)]) {
    failed_[static_cast<std::size_t>(module)] = 1;
    ++failed_count_;
  }
}

void Machine::healModule(std::uint64_t module) {
  DSM_CHECK_MSG(module < module_count_, "module out of range: " << module);
  if (failed_[static_cast<std::size_t>(module)]) {
    failed_[static_cast<std::size_t>(module)] = 0;
    --failed_count_;
  }
}

void Machine::setFaultPlan(FaultPlan plan) {
  for (const FaultEvent& ev : plan.events) {
    DSM_CHECK_MSG(ev.module < module_count_,
                  "fault plan module out of range: " << ev.module);
  }
  DSM_CHECK_MSG(plan.grantDropProbability >= 0.0 &&
                    plan.grantDropProbability < 1.0,
                "grant-drop probability must be in [0, 1): "
                    << plan.grantDropProbability);
  for (const auto& [module, p] : plan.moduleDropOverrides) {
    DSM_CHECK_MSG(module < module_count_,
                  "drop override module out of range: " << module);
    DSM_CHECK_MSG(p >= 0.0 && p < 1.0,
                  "drop override probability must be in [0, 1): " << p);
  }
  plan_ = std::move(plan);
  // Stable by cycle so same-cycle events keep their scripted order.
  std::stable_sort(plan_.events.begin(), plan_.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.cycle < b.cycle;
                   });
  next_event_ = 0;
  has_drops_ = plan_.grantDropProbability > 0.0;
  for (const auto& [module, p] : plan_.moduleDropOverrides) {
    (void)module;
    has_drops_ = has_drops_ || p > 0.0;
  }
  drop_threshold_.clear();
  if (has_drops_) {
    drop_threshold_.assign(static_cast<std::size_t>(module_count_),
                           dropThreshold(plan_.grantDropProbability));
    for (const auto& [module, p] : plan_.moduleDropOverrides) {
      drop_threshold_[static_cast<std::size_t>(module)] = dropThreshold(p);
    }
  }
}

void Machine::clearFaultPlan() {
  plan_ = {};
  next_event_ = 0;
  has_drops_ = false;
  drop_threshold_.clear();
}

void Machine::applyDueFaultEvents() {
  while (next_event_ < plan_.events.size() &&
         plan_.events[next_event_].cycle <= lifetime_cycles_) {
    const FaultEvent& ev = plan_.events[next_event_];
    ev.fail ? failModule(ev.module) : healModule(ev.module);
    ++next_event_;
  }
}

void Machine::enableLoadTracking() {
  module_load_.assign(static_cast<std::size_t>(module_count_), 0);
}

bool Machine::isFailed(std::uint64_t module) const {
  DSM_CHECK_MSG(module < module_count_, "module out of range: " << module);
  return failed_[static_cast<std::size_t>(module)] != 0;
}

void Machine::checkAddress(std::uint64_t module, std::uint64_t slot) const {
  DSM_CHECK_MSG(module < module_count_, "module out of range: " << module);
  if (slots_per_module_ != 0) {
    DSM_CHECK_MSG(slot < slots_per_module_, "slot out of range: " << slot);
  }
}

Cell& Machine::cellRef(std::uint64_t module, std::uint64_t slot) {
  if (eager_) {
    return flat_[static_cast<std::size_t>(module * slots_per_module_ + slot)];
  }
  return sparse_[static_cast<std::size_t>(module)].ref(slot);
}

Cell Machine::peek(std::uint64_t module, std::uint64_t slot) const {
  checkAddress(module, slot);
  if (eager_) {
    return flat_[static_cast<std::size_t>(module * slots_per_module_ + slot)];
  }
  const Cell* cell = sparse_[static_cast<std::size_t>(module)].find(slot);
  return cell == nullptr ? Cell{} : *cell;
}

void Machine::poke(std::uint64_t module, std::uint64_t slot, Cell cell) {
  checkAddress(module, slot);
  cellRef(module, slot) = cell;
}

bool Machine::hasStagedEntry(std::uint64_t module, std::uint64_t slot) const {
  checkAddress(module, slot);
  return staged_[static_cast<std::size_t>(module)].contains(slot);
}

void Machine::reserveSparse(std::uint64_t cells_per_module) {
  if (eager_) return;
  for (StagedTable& table : sparse_) {
    table.reserve(static_cast<std::size_t>(cells_per_module));
  }
}

// Error-path cleanup: after a wire is rejected mid-arbitration, restore
// every scratch slot a valid-module request could have touched so the
// machine stays usable. Unconditional stores are fine — resetting an
// untouched slot is a no-op.
void Machine::resetTouchedScratch(const std::vector<Request>& requests) {
  for (const Request& r : requests) {
    if (r.module >= module_count_) continue;
    arb_[static_cast<std::size_t>(r.module)] = kNoWinner;
    counts_[static_cast<std::size_t>(r.module)] = 0;
  }
}

// The cycle's drop-noise inputs, hoisted out of the access sweep: the
// per-cycle salt is the same for every module, so each winner only mixes in
// its module id. A drop is a pure function of (seed, cycle, module), so it
// is reproducible across runs.
struct Machine::DropContext {
  explicit DropContext(const Machine& m)
      : thresholds(m.has_drops_ ? m.drop_threshold_.data() : nullptr),
        salt(m.plan_.seed ^ (m.lifetime_cycles_ * 0x9E3779B97F4A7C15ULL)) {}

  const std::uint64_t* thresholds;  // nullptr: the plan has no drop noise
  std::uint64_t salt;
};

// The cycle's grant/drop/peak counts, folded into the metrics by
// closeCycle().
struct Machine::CycleTally {
  std::uint64_t granted = 0;
  std::uint64_t dropped = 0;
  std::uint32_t peak = 0;
};

// Precondition: r won arbitration at live module m this cycle, so the
// winner owns m's cell, staged table and load counter. Forced inline: it
// runs once per winner on the hottest loop of the cycle.
[[gnu::always_inline]] inline void Machine::accessWinner(const Request& r, std::size_t m,
                                  const DropContext& drops, Response& resp,
                                  CycleTally& tally) {
  // FaultPlan drop noise: the port is consumed but the grant is lost; the
  // requester retries in a later cycle.
  if (drops.thresholds != nullptr && drops.thresholds[m] != 0) {
    util::SplitMix64 g(drops.salt ^ (r.module * 0xA24BAED4963EE407ULL));
    if (g.next() < drops.thresholds[m]) {
      ++tally.dropped;
      resp = Response{false, false, 0, 0, true};
      return;
    }
  }
  Cell& cell = cellRef(r.module, r.slot);
  switch (r.op) {
    case Op::kRead:
      break;
    case Op::kWrite:
      // Stage only: committed state is untouched until kCommit.
      staged_[m].put(r.slot, Cell{r.value, r.timestamp});
      break;
    case Op::kCommit: {
      Cell* entry = staged_[m].find(r.slot);
      if (entry != nullptr && entry->timestamp == r.timestamp) {
        cell = *entry;
        staged_[m].erase(r.slot);
      }
      break;
    }
    case Op::kAbort: {
      Cell* entry = staged_[m].find(r.slot);
      if (entry != nullptr && entry->timestamp == r.timestamp) {
        staged_[m].erase(r.slot);
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
  if (!module_load_.empty()) {
    ++module_load_[m];
  }
  resp = Response{true, false, cell.value, cell.timestamp, false};
  ++tally.granted;
}

void Machine::closeCycle(std::size_t n, const CycleTally& tally) {
  metrics_.cycles += 1;
  lifetime_cycles_ += 1;
  metrics_.requestsIssued += n;
  metrics_.requestsGranted += tally.granted;
  metrics_.grantsDropped += tally.dropped;
  metrics_.maxModuleQueue =
      std::max<std::uint64_t>(metrics_.maxModuleQueue, tally.peak);
}

// Address validation is folded into the arbitration loop: invalid entries
// take no part and the lowest offending index is returned, so the caller
// can restore the scratch before it throws. Failed modules take no part
// either; sweep 2 classifies their requests. The running minimum is the
// candidate winner; its committed cell is prefetched so sweep 2's access
// doesn't stall on the (much larger than L2) flat store — purely a hint,
// no effect on results.
std::uint64_t Machine::arbitrate(const std::vector<Request>& requests) {
  // Member loads hoisted into locals so the stores below can't force the
  // compiler to refetch them each iteration.
  const Request* req = requests.data();
  const std::size_t n = requests.size();
  const std::uint8_t* failed = failed_.data();
  std::uint64_t* arb = arb_.data();
  std::uint32_t* cnt = counts_.data();
  Cell* flat = eager_ ? flat_.data() : nullptr;
  const std::uint64_t mc = module_count_;
  const std::uint64_t spm = slots_per_module_;
  std::uint64_t bad = kNoBadIndex;
  for (std::size_t i = 0; i < n; ++i) {
    const Request& r = req[i];
    if (r.module >= mc || (spm != 0 && r.slot >= spm)) {
      bad = std::min<std::uint64_t>(bad, i);
      continue;
    }
    const std::size_t m = static_cast<std::size_t>(r.module);
    if (failed[m]) continue;
    const std::uint64_t key = arbKey(r.processor, i);
    if (key < arb[m]) {
      if (flat != nullptr) {
        __builtin_prefetch(&flat[m * spm + r.slot], 1, 1);
      }
      arb[m] = key;
    }
    ++cnt[m];
  }
  return bad;
}

void Machine::step(const std::vector<Request>& requests,
                   std::vector<Response>& responses) {
  applyDueFaultEvents();
  responses.resize(requests.size());
  if (requests.empty()) return;
  const std::size_t n = requests.size();

  // Sweep 1: validate + arbitrate + count.
  util::Timer arb_timer;
  const std::uint64_t bad = arbitrate(requests);
  if (bad != kNoBadIndex) {
    resetTouchedScratch(requests);
    checkAddress(requests[static_cast<std::size_t>(bad)].module,
                 requests[static_cast<std::size_t>(bad)].slot);  // throws
  }
  metrics_.arbSeconds += arb_timer.seconds();

  // Sweep 2: classify every request and write every Response field (no
  // pre-clearing pass). The winner folds the module's contention count
  // into the cycle peak and resets the arb/count slots it owns; losers
  // seen after that reset still classify correctly, because their key
  // matches neither the winner's key nor the kNoWinner sentinel.
  util::Timer access_timer;
  const DropContext drops(*this);
  CycleTally tally;
  for (std::size_t i = 0; i < n; ++i) {
    const Request& r = requests[i];
    const std::size_t m = static_cast<std::size_t>(r.module);
    if (failed_[m]) {
      responses[i] = Response{false, true, 0, 0};
    } else if (arb_[m] != arbKey(r.processor, i)) {
      responses[i] = Response{false, false, 0, 0};
    } else {
      tally.peak = std::max(tally.peak, counts_[m]);
      arb_[m] = kNoWinner;
      counts_[m] = 0;
      accessWinner(r, m, drops, responses[i], tally);
    }
  }
  metrics_.accessSeconds += access_timer.seconds();
  closeCycle(n, tally);
  // Interconnect epilogue: only a routed (non-zero-cost) backend collects
  // winners — the default crossbar keeps this plain-pointer test as the
  // cycle's entire interconnect cost.
  if (network_ != nullptr) routeCycleWinners(requests, responses);
}

}  // namespace dsm::mpc
