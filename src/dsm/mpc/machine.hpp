// The Module Parallel Computer (MPC) of Mehlhorn & Vishkin [MV84], the cost
// model the paper analyses: N processors and N memory modules joined by a
// complete bipartite interconnect; execution is synchronous, and each module
// fulfils at most ONE access request per cycle. The time to serve a batch of
// requests is therefore the number of cycles until every request is granted
// — exactly what this simulator counts.
//
// Arbitration is deterministic: among the requests that target a module in
// a cycle, the lowest processor id wins. This makes every simulation
// reproducible and independent of the number of worker threads used to
// execute a cycle (the winner is an associative/commutative min).
//
// Hot path: step() picks one of three arbitration strategies per cycle by
// wire size and module count. All three elect the same winner (lowest
// processor id wins is a pure min, however it is computed) and hand it to
// ONE access kernel, accessWinner(): drop noise, then the read / stage /
// commit / abort / repair, then the reply. Each participant tallies its
// grants, drops and peak contention privately; closeCycle() folds the
// merged tally into the metrics.
//   * serial    — the pool would not fork: one validate+arbitrate+count
//     sweep with plain relaxed ops and a candidate-winner cell prefetch.
//   * atomic    — the pool forks and modules outnumber the wire: the same
//     sweep, run concurrently with commutative atomic-min and counting.
//     Both then run a winner-owned access sweep: only the unique winner of
//     a module observes its own key, so it alone reads the contention
//     count and clears the scratch slot.
//   * sharded   — the pool forks and module_count < wire size: a stable
//     counting sort buckets the wire by module (two parallel passes paired
//     through the pool's fixed chunk partition), and parallelForShards
//     hands each worker whole modules, so a module's arbitration and
//     access run on one thread with no atomics. The per-module winner is a
//     branch-free min-sweep over the bucket's keys (arb_sweep.hpp);
//     DSM_FORCE_SCALAR keeps the compare-and-branch walk as its oracle.
// The differential tests and E16 check all three against the seed's
// five-sweep cycle, kept outside production code (DESIGN.md §6, §8).
//
// Fault model: modules fail and heal under a scripted FaultPlan (per-cycle
// events applied at step boundaries, so faults can strike mid-phase of a
// protocol batch) or via the immediate failModule()/healModule() calls. A
// failed module's cells are preserved — healing brings the stale contents
// back, exactly the scenario the timestamped majority rule [Tho79] is
// designed to survive. The plan can additionally drop individual grants
// with a per-module probability, decided by a deterministic hash of
// (seed, cycle, module) so results stay thread-count independent.
//
// Two-phase writes: Op::kWrite only STAGES a (value, timestamp) pair in a
// side table; the cell's committed contents are untouched until a matching
// Op::kCommit promotes the staged pair (or Op::kAbort discards it). Reads
// observe committed state only, so a write that dies before reaching its
// quorum can never leak a freshest-stamped value into a later read — the
// torn-write hazard the access engines' two-phase protocol closes.
//
// Interconnect seam: by default the machine IS the paper's MPC — a complete
// processor↔module crossbar where delivery is free. setInterconnect()
// installs a pluggable backend (see interconnect.hpp); for a zero-cost
// backend (CrossbarInterconnect, or none) the cycle paths above run
// untouched, with no winner collection and no virtual dispatch. A routed
// backend (ButterflyInterconnect) receives each cycle's post-arbitration
// winner set AFTER the access sweep and folds the bounded-degree delivery
// cost into the network* metrics. Every cycle path leaves the winners in
// the response flags — a request holds granted or dropped iff it won
// arbitration at a live module — so the winner set is read straight off
// them, one pass in wire order. Routing never changes responses or cell
// state — it prices the cycle, the paper's "request routing problem".
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "dsm/mpc/staged_table.hpp"
#include "dsm/mpc/thread_pool.hpp"
#include "dsm/mpc/wire_plan.hpp"

namespace dsm::mpc {

class Interconnect;  // interconnect.hpp
struct GrantLink;

/// One memory word with its majority-protocol timestamp [UW87, Tho79].
struct Cell {
  std::uint64_t value = 0;
  std::uint64_t timestamp = 0;
};

/// Module access operations.
///   kRead   — return the committed (value, timestamp) of a cell.
///   kWrite  — stage (value, timestamp); committed state is unchanged.
///   kCommit — promote the staged pair whose timestamp matches the request.
///   kAbort  — discard the staged pair whose timestamp matches the request.
///   kRepair — overwrite the committed pair iff the request's timestamp is
///             strictly newer (read-repair of lagging copies; monotone, so a
///             late repair can never roll a cell back).
enum class Op : std::uint8_t { kRead, kWrite, kCommit, kAbort, kRepair };

/// A single-cycle access request issued by a processor.
struct Request {
  std::uint32_t processor = 0;
  std::uint64_t module = 0;
  std::uint64_t slot = 0;
  Op op = Op::kRead;
  std::uint64_t value = 0;      ///< payload for writes/repairs
  std::uint64_t timestamp = 0;  ///< write/commit/abort/repair timestamp
};

/// Outcome of one request after a cycle.
struct Response {
  bool granted = false;
  bool moduleFailed = false;  ///< target module is down; retrying is futile
  std::uint64_t value = 0;      ///< cell contents for granted reads
  std::uint64_t timestamp = 0;  ///< cell timestamp for granted reads
  /// The request WON arbitration but FaultPlan drop noise ate the grant
  /// (port consumed, access not performed). Distinguishes a lossy module
  /// from an ordinary arbitration loss, so a quorum planner can escalate to
  /// a spare copy instead of hammering the same noisy module. Deterministic
  /// (pure function of (seed, cycle, module)) like the drop itself.
  bool dropped = false;

  bool operator==(const Response&) const = default;
};

/// Aggregate simulation metrics.
struct MachineMetrics {
  std::uint64_t cycles = 0;          ///< MPC time units consumed
  std::uint64_t requestsIssued = 0;  ///< total requests across cycles
  std::uint64_t requestsGranted = 0;
  std::uint64_t maxModuleQueue = 0;  ///< worst per-module contention seen
  std::uint64_t grantsDropped = 0;   ///< grants lost to FaultPlan drop noise
  // Bounded-degree interconnect cost (all zero under the default crossbar).
  // Deterministic — a pure function of the wire history, identical at any
  // thread count — so these DO belong in bit-identity comparisons between
  // machines with the same backend installed.
  std::uint64_t networkCycles = 0;   ///< store-and-forward cycles, summed
  std::uint64_t networkPackets = 0;  ///< winners routed through the network
  std::uint64_t networkMaxQueue = 0; ///< worst FIFO queue across all cycles
  std::uint64_t networkIdealCycles = 0;  ///< stretch denominator (d / cycle)
  double networkStretch = 0.0;  ///< networkCycles / networkIdealCycles
  // Per-stage wall time of step(). Wall-clock, so excluded from
  // bit-identity comparisons.
  double arbSeconds = 0.0;     ///< fused validate + arbitrate + count sweep
  double accessSeconds = 0.0;  ///< fused access + peak + reset sweep
};

/// One scripted fail/heal event. The event applies once the machine's
/// lifetime cycle counter reaches `cycle`: it takes effect before the step
/// with that index executes (cycle 0 = before the first step a fresh
/// machine ever runs).
struct FaultEvent {
  std::uint64_t cycle = 0;
  std::uint64_t module = 0;
  bool fail = true;  ///< false = heal
};

/// Scripted fault model for a Machine. Events are applied at step
/// boundaries keyed on the machine's lifetime cycle counter (see
/// Machine::lifetimeCycles()), so a plan can strike in the middle of a
/// protocol phase, not just between batches — and resetMetrics() cannot
/// shift an installed schedule. Events at the same cycle apply in insertion
/// order (fail-then-heal at one cycle is a zero-length outage).
struct FaultPlan {
  std::vector<FaultEvent> events;
  /// Probability that a module drops a grant it just arbitrated (the winner
  /// is elected, the port is consumed, but the access does not happen and
  /// the requester sees granted == false). Applies to every module unless
  /// overridden. Must be in [0, 1): 1 would livelock every retry loop.
  double grantDropProbability = 0.0;
  /// Per-module overrides of grantDropProbability (same [0, 1) domain).
  std::vector<std::pair<std::uint64_t, double>> moduleDropOverrides;
  /// Seed for the deterministic drop decisions: a drop is a pure function
  /// of (seed, cycle, module), independent of thread count.
  std::uint64_t seed = 0x5EEDULL;

  FaultPlan& failAt(std::uint64_t cycle, std::uint64_t module) {
    events.push_back({cycle, module, true});
    return *this;
  }
  FaultPlan& healAt(std::uint64_t cycle, std::uint64_t module) {
    events.push_back({cycle, module, false});
    return *this;
  }
  /// Transient outage: down for `duration` cycles starting at `cycle`.
  FaultPlan& transientAt(std::uint64_t cycle, std::uint64_t module,
                         std::uint64_t duration) {
    failAt(cycle, module);
    healAt(cycle + duration, module);
    return *this;
  }
  bool empty() const {
    return events.empty() && grantDropProbability == 0.0 &&
           moduleDropOverrides.empty();
  }
};

/// The synchronous MPC simulator. Storage is allocated eagerly as a flat
/// slot array when module_count * slots_per_module is small enough, and as
/// per-module open-addressed tables beyond that (large-n configurations
/// address far fewer cells than exist).
class Machine {
 public:
  /// slots_per_module == 0 selects sparse storage with unbounded slot ids
  /// (used by baseline schemes that key slots by variable index).
  Machine(std::uint64_t module_count, std::uint64_t slots_per_module,
          unsigned threads = 1);
  ~Machine();

  std::uint64_t moduleCount() const noexcept { return module_count_; }
  std::uint64_t slotsPerModule() const noexcept { return slots_per_module_; }
  unsigned threads() const noexcept { return pool_.threads(); }

  /// Executes one synchronous cycle over the given requests. Responses are
  /// written 1:1 (responses.size() is resized to requests.size()).
  /// Deterministic: the winner per module is the lowest processor id.
  /// Due FaultPlan events are applied before arbitration.
  void step(const std::vector<Request>& requests,
            std::vector<Response>& responses);

  /// Direct cell access (setup/verification; does not consume cycles).
  /// peek observes committed state only — staged writes are invisible.
  Cell peek(std::uint64_t module, std::uint64_t slot) const;
  void poke(std::uint64_t module, std::uint64_t slot, Cell cell);

  /// True while a staged (uncommitted, unaborted) write sits on the cell.
  /// Test/diagnostic hook; staged entries are invisible to reads.
  bool hasStagedEntry(std::uint64_t module, std::uint64_t slot) const;

  /// Pre-sizes every module's sparse committed table for `cells_per_module`
  /// entries (no-op for eager flat storage). Callers that know the
  /// addressed footprint (e.g. an engine that keys slots by variable index)
  /// use this to keep the access path rehash-free.
  void reserveSparse(std::uint64_t cells_per_module);

  /// Optional per-module grant accounting (off by default; costs one counter
  /// bump per grant). Used by the load-balance experiments.
  void enableLoadTracking();
  /// Cumulative grants per module since tracking was enabled (empty if
  /// tracking is off).
  const std::vector<std::uint64_t>& moduleLoad() const noexcept {
    return module_load_;
  }

  /// Fault injection: a failed module grants nothing (requests targeting it
  /// come back with moduleFailed set). failModule/healModule apply
  /// immediately; setFaultPlan scripts events against the machine's
  /// lifetime cycle counter so faults can land mid-batch.
  void failModule(std::uint64_t module);
  void healModule(std::uint64_t module);
  bool isFailed(std::uint64_t module) const;
  std::uint64_t failedCount() const noexcept { return failed_count_; }

  /// Installs a scripted fault plan (replacing any previous one). Events
  /// whose cycle is already in the past fire before the next step. The plan
  /// is validated eagerly: module ids must be in range and drop
  /// probabilities in [0, 1). The event schedule is keyed on the lifetime
  /// cycle counter, which resetMetrics() never touches — plans and metrics
  /// resets compose in any order.
  void setFaultPlan(FaultPlan plan);
  void clearFaultPlan();
  const FaultPlan& faultPlan() const noexcept { return plan_; }

  /// Installs a delivery backend for the processor↔module traffic (see
  /// interconnect.hpp). nullptr restores the default — the paper's complete
  /// crossbar, delivery free. A zero-cost backend leaves every cycle path
  /// untouched (no winner collection, no virtual dispatch); a routed
  /// backend (e.g. ButterflyInterconnect) must cover moduleCount() and is
  /// handed each cycle's post-arbitration winner set after the access
  /// sweep, folding its cost into the network* metrics. Responses and cell
  /// state are never affected.
  void setInterconnect(std::unique_ptr<Interconnect> backend);
  /// The installed backend, or nullptr when the default crossbar is active.
  const Interconnect* interconnect() const noexcept {
    return interconnect_.get();
  }
  /// True when a non-zero-cost backend is routing cycles.
  bool networkActive() const noexcept { return network_ != nullptr; }

  /// Forwards the upcoming batch's wire summary (see wire_plan.hpp) to a
  /// routed backend's Interconnect::onPlan so it can pre-size its delivery
  /// scratch. Stateless: the machine keeps nothing, and responses, cells
  /// and metrics are unaffected. No-op without a routed backend.
  void announcePlan(const WirePlan& plan);

  const MachineMetrics& metrics() const noexcept { return metrics_; }
  void resetMetrics() noexcept { metrics_ = {}; }

  /// Total cycles executed over the machine's lifetime. Unlike
  /// MachineMetrics::cycles this is never reset; FaultPlan schedules and
  /// grant-drop noise are keyed on it.
  std::uint64_t lifetimeCycles() const noexcept { return lifetime_cycles_; }

  ThreadPool& pool() noexcept { return pool_; }

 private:
  friend class ReferenceCycle;  // test/bench oracle, oracle/reference_cycle.hpp

  static constexpr std::uint64_t kEagerLimit = 1ULL << 24;

  Cell& cellRef(std::uint64_t module, std::uint64_t slot);
  void checkAddress(std::uint64_t module, std::uint64_t slot) const;
  void applyDueFaultEvents();
  void resetTouchedScratch(const std::vector<Request>& requests);
  struct DropContext;  // this cycle's drop-noise inputs (machine.cpp)
  struct CycleTally;   // one participant's grant/drop/peak counts
  /// The access kernel every step() path runs for a module's winner:
  /// drop noise, the op, the load counter, the reply, the tally.
  void accessWinner(const Request& r, std::size_t module,
                    const DropContext& drops, Response& resp,
                    CycleTally& tally);
  /// Folds one finished cycle of n requests into the metrics and advances
  /// the lifetime clock.
  void closeCycle(std::size_t n, const CycleTally& tally);
  /// Validate + arbitrate + count over wire entries [lo, hi); returns the
  /// lowest invalid index in range (or ~0). kConcurrent selects atomic-min
  /// and fetch_add for a sweep other participants run alongside.
  template <bool kConcurrent>
  std::uint64_t arbitrateRange(const Request* req, std::size_t lo,
                               std::size_t hi);
  /// The serial/atomic cycle (see file comment): sweep 1 validates,
  /// arbitrates and counts; sweep 2 accesses, records the peak and resets
  /// the scratch it owns.
  void stepFused(const std::vector<Request>& requests,
                 std::vector<Response>& responses);
  /// The module-sharded cycle (see file comment). Preconditions: requests
  /// nonempty, module_count_ < requests.size(), pool would fork.
  void stepSharded(const std::vector<Request>& requests,
                   std::vector<Response>& responses);
  /// Routed-backend epilogue: reads the cycle's winner set off the response
  /// flags (granted || dropped — winners whose grant the drop noise lost
  /// still crossed the network) in wire order and hands it to the installed
  /// backend. Serial O(wire); only a non-zero-cost interconnect ever pays
  /// it. Precondition: responses complete for this cycle.
  void routeCycleWinners(const std::vector<Request>& requests,
                         const std::vector<Response>& responses);

  std::uint64_t module_count_;
  std::uint64_t slots_per_module_;
  bool eager_;
  std::vector<Cell> flat_;  // eager storage (committed state)
  std::vector<StagedTable> sparse_;  // committed state when !eager_
  // Staged (uncommitted) writes, keyed per module by slot. Entries are
  // transient: a write stages, then the engine promotes (kCommit) or
  // discards (kAbort) it. Mutated only by the winning processor of the
  // module in a cycle, so access is race-free like the cells themselves.
  // Open-addressed with backward-shift erase: the stage/commit/abort churn
  // never allocates once the table is warm.
  std::vector<StagedTable> staged_;
  // Per-module arbitration scratch: current best (lowest) processor id + the
  // index of its request; reset lazily via the touched list. Used by the
  // serial and atomic cycle paths only — the sharded path arbitrates inside
  // each worker's private module range and needs no cross-thread scratch.
  std::vector<std::atomic<std::uint64_t>> arb_;
  std::vector<std::atomic<std::uint32_t>> counts_;  // per-module load scratch
  // Sharded-cycle scratch, persistent across cycles: the counting sort
  // scatters each wire index into its module's bucket (bucket module_count_
  // collects invalid requests; stable, so the first entry there is the
  // serial first offender). part_counts_ holds the per-participant count /
  // scatter-offset arrays; the two passes pair up through the pool's fixed
  // chunk partition (see ThreadPool::parallelFor's partition guarantee).
  std::vector<std::uint32_t> bucket_entries_;  // wire indices, bucket order
  // Arbitration keys scattered alongside bucket_entries_ (same positions),
  // so per-module arbitration is a branch-free min over a contiguous u64
  // run (see arb_sweep.hpp) instead of a compare-and-branch walk that
  // re-derives each key from the wire. The key embeds its wire index, so
  // the winner is uint32(min) — no argmin tracking.
  std::vector<std::uint64_t> bucket_keys_;
  std::vector<std::size_t> bucket_bounds_;     // module_count_ + 2 bounds
  std::vector<std::size_t> part_counts_;
  std::vector<std::uint8_t> failed_;  // fault flags, driven by plan + calls
  std::uint64_t failed_count_ = 0;
  std::vector<std::uint64_t> module_load_;  // grants per module (optional)
  FaultPlan plan_;
  std::size_t next_event_ = 0;  // cursor into plan_.events
  // Per-module drop thresholds scaled to 2^64 (empty when the plan has no
  // drop noise — the common case pays a single bool test).
  std::vector<std::uint64_t> drop_threshold_;
  bool has_drops_ = false;
  MachineMetrics metrics_;
  std::uint64_t lifetime_cycles_ = 0;  // never reset; keys fault schedules
  // Interconnect backend. network_ caches interconnect_.get() when (and
  // only when) the backend actually routes (zeroCost() is false): the hot
  // path tests one plain pointer and a crossbar machine never branches into
  // routing code, let alone through a vtable.
  std::unique_ptr<Interconnect> interconnect_;
  Interconnect* network_ = nullptr;
  std::vector<GrantLink> winners_;  // per-cycle winner scratch (routed only)
  ThreadPool pool_;
};

}  // namespace dsm::mpc
