#include "dsm/mpc/machine.hpp"

#include <algorithm>
#include <cmath>

#include "dsm/mpc/arb_sweep.hpp"
#include "dsm/mpc/interconnect.hpp"
#include "dsm/util/assert.hpp"
#include "dsm/util/kernel_dispatch.hpp"
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

void atomicMin(std::atomic<std::uint64_t>& target, std::uint64_t value) {
  std::uint64_t cur = target.load(std::memory_order_relaxed);
  while (value < cur && !target.compare_exchange_weak(
                            cur, value, std::memory_order_relaxed)) {
  }
}
}  // namespace

Machine::Machine(std::uint64_t module_count, std::uint64_t slots_per_module,
                 unsigned threads)
    : module_count_(module_count),
      slots_per_module_(slots_per_module),
      eager_(slots_per_module != 0 &&
             module_count * slots_per_module <= kEagerLimit),
      arb_(module_count),
      counts_(module_count),
      pool_(threads) {
  DSM_CHECK_MSG(module_count > 0, "machine needs at least one module");
  if (eager_) {
    flat_.assign(static_cast<std::size_t>(module_count * slots_per_module_),
                 Cell{});
  } else {
    sparse_.resize(static_cast<std::size_t>(module_count));
  }
  staged_.resize(static_cast<std::size_t>(module_count));
  for (auto& a : arb_) a.store(kNoWinner, std::memory_order_relaxed);
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
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
  // Zero-cost backends (and none at all) keep the cycle paths pristine:
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
  // At most one winner per live module: every cycle path sets granted or
  // dropped exactly on the arbitration winner at a live module (losers and
  // failed-module requests clear both). Winners surface in wire order, so
  // packet injection order — and therefore the butterfly's FIFO tie-breaks
  // — is a pure function of the wire, independent of the thread count.
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
    arb_[static_cast<std::size_t>(r.module)].store(kNoWinner,
                                                   std::memory_order_relaxed);
    counts_[static_cast<std::size_t>(r.module)].store(
        0, std::memory_order_relaxed);
  }
}

void Machine::step(const std::vector<Request>& requests,
                   std::vector<Response>& responses) {
  applyDueFaultEvents();
  responses.resize(requests.size());
  if (requests.empty()) return;
  const std::size_t n = requests.size();

  // Cycle-path choice (all three produce bit-identical responses/metrics):
  // when the pool will fork and the wire is dense over the modules, the
  // counting-sort partition amortizes and each module runs on exactly one
  // thread; when modules outnumber the wire, per-module contention is
  // sparse and the atomic-min sweeps of stepFused win (no O(modules)
  // scratch).
  if (module_count_ < n && pool_.partitionWidth(n) > 1) {
    stepSharded(requests, responses);
  } else {
    stepFused(requests, responses);
  }
  // Interconnect epilogue: only a routed (non-zero-cost) backend collects
  // winners — the default crossbar keeps the plain-pointer test above as
  // the cycle's entire interconnect cost.
  if (network_ != nullptr) routeCycleWinners(requests, responses);
}

// The cycle's drop-noise inputs, hoisted out of the access sweep: the
// per-cycle salt is the same for every module, so each winner only mixes in
// its module id. A drop is a pure function of (seed, cycle, module):
// identical for every thread count and reproducible across runs.
struct Machine::DropContext {
  explicit DropContext(const Machine& m)
      : thresholds(m.has_drops_ ? m.drop_threshold_.data() : nullptr),
        salt(m.plan_.seed ^ (m.lifetime_cycles_ * 0x9E3779B97F4A7C15ULL)) {}

  const std::uint64_t* thresholds;  // nullptr: the plan has no drop noise
  std::uint64_t salt;
};

// Grant/drop/peak counts of one access-sweep participant. Each participant
// counts privately and merges into the cycle total once; sums and a max
// commute, so the total is independent of the thread count.
struct Machine::CycleTally {
  std::uint64_t granted = 0;
  std::uint64_t dropped = 0;
  std::uint32_t peak = 0;

  void mergeInto(CycleTally& total) const {
    constexpr auto kRelaxed = std::memory_order_relaxed;
    std::atomic_ref<std::uint64_t>(total.granted).fetch_add(granted, kRelaxed);
    std::atomic_ref<std::uint64_t>(total.dropped).fetch_add(dropped, kRelaxed);
    std::atomic_ref<std::uint32_t> total_peak(total.peak);
    std::uint32_t cur = total_peak.load(kRelaxed);
    while (peak > cur &&
           !total_peak.compare_exchange_weak(cur, peak, kRelaxed)) {
    }
  }
};

// Precondition: r won arbitration at live module m this cycle, so the
// winner owns m's cell, staged table and load counter outright — race-free
// on every path at any thread count. Forced inline: with two call sites
// GCC emits it out of line, which puts a call per winner on the hottest
// loop of the serial cycle.
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
// take no part and the lowest offending index is returned (pool bodies must
// not throw, so the caller throws after the sweep). Failed modules take no
// part either; sweep 2 classifies their requests. The running minimum is
// the candidate winner; its committed cell is prefetched so sweep 2's
// access doesn't stall on the (much larger than L2) flat store — purely a
// hint, no effect on results. Winners are a min however computed, so the
// relaxed plain-store (serial) and atomic-min (concurrent) variants agree.
template <bool kConcurrent>
std::uint64_t Machine::arbitrateRange(const Request* req, std::size_t lo,
                                      std::size_t hi) {
  // Member loads hoisted into locals so the stores below can't force the
  // compiler to refetch them each iteration.
  const std::uint8_t* failed = failed_.data();
  std::atomic<std::uint64_t>* arb = arb_.data();
  std::atomic<std::uint32_t>* cnt = counts_.data();
  Cell* flat = eager_ ? flat_.data() : nullptr;
  const std::uint64_t mc = module_count_;
  const std::uint64_t spm = slots_per_module_;
  std::uint64_t bad = kNoBadIndex;
  for (std::size_t i = lo; i < hi; ++i) {
    const Request& r = req[i];
    if (r.module >= mc || (spm != 0 && r.slot >= spm)) {
      bad = std::min<std::uint64_t>(bad, i);
      continue;
    }
    const std::size_t m = static_cast<std::size_t>(r.module);
    if (failed[m]) continue;
    const std::uint64_t key = arbKey(r.processor, i);
    if (key < arb[m].load(std::memory_order_relaxed)) {
      if (flat != nullptr) {
        __builtin_prefetch(&flat[m * spm + r.slot], 1, 1);
      }
      if constexpr (kConcurrent) {
        atomicMin(arb[m], key);
      } else {
        arb[m].store(key, std::memory_order_relaxed);
      }
    }
    if constexpr (kConcurrent) {
      cnt[m].fetch_add(1, std::memory_order_relaxed);
    } else {
      cnt[m].store(cnt[m].load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
    }
  }
  return bad;
}

void Machine::stepFused(const std::vector<Request>& requests,
                        std::vector<Response>& responses) {
  const std::size_t n = requests.size();
  util::Timer arb_timer;
  // Sweep 1: validate + arbitrate + count. When the pool would run it
  // inline anyway (the common shape late in a protocol phase, when the
  // persistent wire has shrunk to a handful of stragglers) it uses plain
  // relaxed loads/stores: no lock-prefixed RMWs.
  std::uint64_t bad = kNoBadIndex;
  if (pool_.partitionWidth(n) > 1) {
    std::atomic<std::uint64_t> first_bad{kNoBadIndex};
    pool_.parallelFor(n, [&](std::size_t lo, std::size_t hi) {
      atomicMin(first_bad, arbitrateRange<true>(requests.data(), lo, hi));
    });
    bad = first_bad.load(std::memory_order_relaxed);
  } else {
    bad = arbitrateRange<false>(requests.data(), 0, n);
  }
  if (bad != kNoBadIndex) {
    resetTouchedScratch(requests);
    checkAddress(requests[static_cast<std::size_t>(bad)].module,
                 requests[static_cast<std::size_t>(bad)].slot);  // throws
  }
  metrics_.arbSeconds += arb_timer.seconds();

  util::Timer access_timer;
  // Sweep 2: classify every request and write every Response field (no
  // pre-clearing pass). The winner folds the module's contention count
  // into the cycle peak and resets the arb/count slots it owns; losers
  // racing that reset still classify correctly, because their key matches
  // neither the winner's key nor the kNoWinner sentinel.
  const DropContext drops(*this);
  CycleTally total;
  pool_.parallelFor(n, [&](std::size_t lo, std::size_t hi) {
    CycleTally local;
    for (std::size_t i = lo; i < hi; ++i) {
      const Request& r = requests[i];
      const std::size_t m = static_cast<std::size_t>(r.module);
      if (failed_[m]) {
        responses[i] = Response{false, true, 0, 0};
      } else if (arb_[m].load(std::memory_order_relaxed) !=
                 arbKey(r.processor, i)) {
        responses[i] = Response{false, false, 0, 0};
      } else {
        // Winner-owned bookkeeping: read the (final) contention count
        // before clearing it. Only this request can observe its own key,
        // so the reset executes exactly once per contested module.
        local.peak =
            std::max(local.peak, counts_[m].load(std::memory_order_relaxed));
        arb_[m].store(kNoWinner, std::memory_order_relaxed);
        counts_[m].store(0, std::memory_order_relaxed);
        accessWinner(r, m, drops, responses[i], local);
      }
    }
    local.mergeInto(total);
  });
  metrics_.accessSeconds += access_timer.seconds();
  closeCycle(n, total);
}

void Machine::stepSharded(const std::vector<Request>& requests,
                          std::vector<Response>& responses) {
  const std::size_t n = requests.size();
  const std::size_t mc = static_cast<std::size_t>(module_count_);
  const std::size_t buckets = mc + 1;  // bucket mc collects invalid requests
  const Request* req = requests.data();
  const std::uint64_t spm = slots_per_module_;

  util::Timer arb_timer;
  // Partition pass 1: per-participant bucket counts. Participants cover the
  // pool's fixed chunk partition of [0, n) (participant index = lo / chunk,
  // a documented parallelFor guarantee), so pass 2 can scatter through
  // per-(participant, bucket) offsets and the sort is STABLE: bucket order
  // is ascending wire order.
  const std::size_t width = pool_.partitionWidth(n);
  const std::size_t chunk = (n + width - 1) / width;
  // A participant whose fixed range is empty never runs (and so never
  // zeroes its slice): walk only the ceil(n / chunk) populated slices.
  const std::size_t active_width = (n + chunk - 1) / chunk;
  part_counts_.resize(active_width * buckets);
  bucket_bounds_.resize(buckets + 1);
  bucket_entries_.resize(n);
  bucket_keys_.resize(n);
  const auto bucket_of = [mc, spm](const Request& r) {
    return (r.module >= mc || (spm != 0 && r.slot >= spm))
               ? mc
               : static_cast<std::size_t>(r.module);
  };
  pool_.parallelFor(n, [&](std::size_t lo, std::size_t hi) {
    std::size_t* cnt = &part_counts_[(lo / chunk) * buckets];
    std::fill(cnt, cnt + buckets, 0);
    for (std::size_t i = lo; i < hi; ++i) ++cnt[bucket_of(req[i])];
  });
  // Serial exclusive scan over (bucket, participant): bucket bounds for the
  // shard cuts, scatter offsets for pass 2.
  std::size_t pos = 0;
  for (std::size_t b = 0; b < buckets; ++b) {
    bucket_bounds_[b] = pos;
    for (std::size_t w = 0; w < active_width; ++w) {
      std::size_t& c = part_counts_[w * buckets + b];
      const std::size_t count = c;
      c = pos;
      pos += count;
    }
  }
  bucket_bounds_[buckets] = pos;  // == n
  // Partition pass 2: stable scatter of the wire indices, paired with each
  // entry's arbitration key so the min-sweep below reads one dense u64 run
  // per module instead of re-deriving keys through the wire indirection.
  pool_.parallelFor(n, [&](std::size_t lo, std::size_t hi) {
    std::size_t* offset = &part_counts_[(lo / chunk) * buckets];
    for (std::size_t i = lo; i < hi; ++i) {
      const std::size_t o = offset[bucket_of(req[i])]++;
      bucket_entries_[o] = static_cast<std::uint32_t>(i);
      bucket_keys_[o] = arbKey(req[i].processor, i);
    }
  });
  // Invalid requests never touched the per-module scratch (there is none to
  // touch on this path), so the error unwind is just the serial
  // first-offender throw: stability makes the overflow bucket's first entry
  // the lowest offending wire index.
  if (bucket_bounds_[mc + 1] != bucket_bounds_[mc]) {
    const Request& r =
        requests[bucket_entries_[bucket_bounds_[mc]]];
    checkAddress(r.module, r.slot);  // throws
  }
  metrics_.arbSeconds += arb_timer.seconds();

  util::Timer access_timer;
  const DropContext drops(*this);
  const std::uint32_t* entries = bucket_entries_.data();
  const std::uint64_t* keys = bucket_keys_.data();
  const std::size_t* bounds = bucket_bounds_.data();
  Cell* flat = eager_ ? flat_.data() : nullptr;
  // Dispatch seam, hoisted once per cycle: DSM_FORCE_SCALAR keeps the
  // pre-vectorization compare-and-branch walk (with its candidate-cell
  // prefetch) as the bit-identity oracle for the min-sweep.
  const bool force_scalar = util::forceScalar();
  // Execution: each shard is a contiguous module range, cut at bucket
  // boundaries with near-equal wire-entry counts, so one worker owns a
  // module's arbitration, access, staging and peak bookkeeping outright —
  // plain loads and stores throughout, merged into the cycle total once
  // per shard.
  CycleTally total;
  pool_.parallelForShards(bounds, mc, [&](std::size_t mlo, std::size_t mhi) {
    CycleTally local;
    for (std::size_t m = mlo; m < mhi; ++m) {
      const std::size_t b0 = bounds[m];
      const std::size_t b1 = bounds[m + 1];
      if (b0 == b1) continue;
      if (failed_[m]) {
        for (std::size_t e = b0; e < b1; ++e) {
          responses[entries[e]] = Response{false, true, 0, 0};
        }
        continue;
      }
      // Arbitration: a plain min over the bucket (same key, same winner as
      // the atomic path). Default is the branch-free min-sweep over the
      // module's contiguous key run; the key embeds its wire index, so the
      // winner falls out of the minimum's low 32 bits. The forced-scalar
      // oracle is the pre-vectorization compare-and-branch walk, where the
      // running minimum is the candidate winner and its committed cell is
      // prefetched like the serial sweep does. Keys are pairwise distinct
      // (the index is part of the key), so both reductions find the same
      // unique minimum — bit-identical winners.
      std::size_t win;
      if (!force_scalar) {
        const std::uint64_t best = arbMinSweep(keys + b0, b1 - b0);
        win = static_cast<std::size_t>(static_cast<std::uint32_t>(best));
        if (flat != nullptr) {
          __builtin_prefetch(&flat[m * spm + req[win].slot], 1, 1);
        }
      } else {
        win = entries[b0];
        std::uint64_t best = arbKey(req[win].processor, win);
        if (flat != nullptr) {
          __builtin_prefetch(&flat[m * spm + req[win].slot], 1, 1);
        }
        for (std::size_t e = b0 + 1; e < b1; ++e) {
          const std::size_t i = entries[e];
          const std::uint64_t key = arbKey(req[i].processor, i);
          if (key < best) {
            best = key;
            win = i;
            if (flat != nullptr) {
              __builtin_prefetch(&flat[m * spm + req[i].slot], 1, 1);
            }
          }
        }
      }
      local.peak = std::max(local.peak, static_cast<std::uint32_t>(b1 - b0));
      for (std::size_t e = b0; e < b1; ++e) {
        const std::size_t i = entries[e];
        if (i != win) responses[i] = Response{false, false, 0, 0};
      }
      accessWinner(req[win], m, drops, responses[win], local);
    }
    local.mergeInto(total);
  });
  metrics_.accessSeconds += access_timer.seconds();
  closeCycle(n, total);
}

}  // namespace dsm::mpc
