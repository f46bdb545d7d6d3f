// Access-protocol engines executing batches of read/write requests on the
// MPC through a MemoryScheme.
//
// MajorityEngine — the paper's Section-3 protocol (also the UW87 protocol):
// processors form clusters of r = copiesPerVariable(); the batch is served
// in r phases; in phase k the r processors of cluster i cooperatively attack
// the r copies of the variable requested by cluster member k, processor j
// owning copy j. Iterations repeat until every live variable has had a
// quorum of its copies granted; each module serves one request per cycle.
// Copies carry timestamps (majority rule of [Tho79]/[UW87]): a write stamps
// a fresh global timestamp on a write-quorum of copies; a read collects a
// read-quorum and keeps the value with the newest stamp. Because any two
// quorums intersect, reads always observe the latest completed write.
//
// Two-phase write commit: a write first STAGES its (value, timestamp) on
// the copies it reaches (mpc::Op::kWrite leaves committed state untouched).
// Only once a write-quorum of copies is staged does the owning cluster spend
// one extra wire round promoting them (mpc::Op::kCommit); a write whose
// quorum becomes unreachable instead invalidates its staged copies
// (mpc::Op::kAbort). Staged values are invisible to reads, so a sub-quorum
// (torn) write can never poison a later read with a freshest-stamped value
// it failed to commit — the hazard a mid-batch module failure opens under
// the naive one-phase protocol.
//
// Read-repair: when the copies of a satisfied read disagree (some granted
// copies carry an older timestamp — lag from transient faults), the engine
// pushes the freshest (value, timestamp) back onto the stale granted copies
// (mpc::Op::kRepair, monotone at the module). This heals degraded
// redundancy without violating the majority invariant: repairs only
// replicate an already-committed value forward in time.
//
// SingleOwnerEngine — the MV84 / single-copy discipline: each request is
// owned by one processor which acquires `quorum` of its copies one grant at
// a time (round-robin over the remaining copies), then commits/aborts/
// repairs them the same way, one message per cycle.
//
// Batch pipeline: both engines share a copy cache (memoized Section-4
// addressing), reusable scratch buffers that persist across execute() calls,
// and a parallel inner loop — wire construction and reply scanning run under
// the machine's ThreadPool, writing to precomputed per-request offsets so
// the wire (and therefore every AccessResult) is bit-identical to the serial
// path at any thread count, with or without an active FaultPlan.
// executeStream() runs a whole stream of batches through the warmed scratch
// and cache; EngineMetrics reports the split and the fault-path counters.
//
// Stream pipelining: a batch splits into a machine-independent PREPARE step
// (validation, duplicate check, Section-4 copy resolution, write-timestamp
// stamping — everything the old preprocess did) and the wire rounds that
// actually drive the machine. prepare touches only the copy cache, the
// global clock and its own PreparedBatch buffer, so executeStream overlaps
// batch k+1's prepare (on a dedicated prefetch thread) with batch k's wire
// rounds whenever the machine pool is multi-threaded, double-buffering two
// PreparedBatch slots. Timestamps are identical to the serial order because
// only prepare advances the clock and prepares run in batch order; results
// are therefore bit-identical to per-batch execute(). A 1-thread machine
// keeps the strictly serial loop. Copy-cache misses inside prepare resolve
// in parallel through the machine pool when prepare runs on the main thread
// between batches (schemes are immutable and thread-safe), and serially on
// the prefetch thread (the pool is busy with wire rounds then).
//
// Quorum planner (opt-in, setPlannerEnabled): the majority rule only needs
// SOME read quorum of q = readQuorum() copies, yet the engines historically
// attacked all r = 2q-1 copies of every read. With the planner on, prepare
// additionally computes a deterministic per-request TARGET SET from the
// batch's resolved copy multiset: reads get the q copies chosen by a greedy
// balanced-assignment sweep minimizing the maximum planned load per module
// (ties broken by module index, so the plan is a pure function of the batch
// — no clock, no RNG, no thread count); writes keep their full write attack
// but get a planned attack order that interleaves hot modules across
// requests (same greedy sweep, cold-first). The phase loops fire only at
// planned copies and ESCALATE to the unplanned spares one at a time exactly
// when a planned copy is denied by a dead module (until a quorum is again
// reachable) or by a FaultPlan grant drop (one spare per drop, routing
// around the lossy module). Escalation re-creates the planner-off copy set
// in the limit, so fault-freedom and the sub-quorum/two-phase/repair
// machinery are untouched; any q granted copies intersect every committed
// write quorum (q + q > r), so read values are unchanged.
//
// Planner-off is not a separate mode: prepare then leaves the IDENTITY plan
// (every request opens all r ranks in copy order; no spares, so no
// escalation ever fires), and the one round driver runs it exactly like a
// built plan. The wire it produces is byte-identical to the pre-planner
// engine's, and the test/bench-only reference engines (DESIGN.md §6), which
// know no plans, stay the differential oracle.
//
// One round driver (runBatch) serves both engines through a static policy:
// MajorityEngine runs r cluster phases firing every open untried rank,
// processor id cluster*r + j; SingleOwnerEngine runs one phase firing one
// round-robin pick per request, processor id i. Both share one per-reply
// kernel (scanReply) for dead, dropped, granted and finalize replies.
//
// Persistent wire: within a phase the wire is maintained incrementally. A
// live list of requests survives from one iteration to the next; the serial
// offset pass walks only that list (O(live), not O(phase size)), and the
// MajorityEngine's parallel fill COPIES each unchanged request's surviving
// wire entries from the previous round's wire instead of re-deriving
// module/slot addressing — only requests whose protocol state changed
// (escalation, acquire -> finalize) rebuild their segment; a
// SingleOwnerEngine segment is one rotating pick, refilled every round.
// Compaction preserves the request order and per-request
// copy order of the from-scratch build, so the wire contents are
// bit-identical to the pre-overhaul engine's and every downstream result is
// unchanged. The from-scratch loops survive outside production code as the
// differential oracle and benchmark baseline (DESIGN.md §6).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "dsm/mpc/machine.hpp"
#include "dsm/plan/plan.hpp"
#include "dsm/scheme/copy_cache.hpp"
#include "dsm/scheme/memory_scheme.hpp"

namespace dsm::protocol {

/// One logical access in a batch. Variables within a batch must be distinct
/// (the paper's assumption; checked).
struct AccessRequest {
  std::uint64_t variable = 0;
  mpc::Op op = mpc::Op::kRead;
  std::uint64_t value = 0;  ///< payload for writes

  bool operator==(const AccessRequest&) const = default;
};

/// Outcome and cost accounting of one executed batch.
struct AccessResult {
  /// For every satisfiable request (writes get their written value echoed
  /// back): the value observed with the newest timestamp among granted
  /// copies. Entries listed in `unsatisfiable` are 0 — a failed write must
  /// not echo a payload it could not commit, and a read that reached only a
  /// sub-quorum set of copies must not return a possibly-stale value (the
  /// majority rule forbids exactly that).
  std::vector<std::uint64_t> values;
  /// MPC cycles consumed (== sum of iterations over phases, including the
  /// commit/abort/repair rounds of the two-phase protocol).
  std::uint64_t totalIterations = 0;
  /// Φ_p per phase (MajorityEngine) or a single entry (SingleOwnerEngine).
  std::vector<std::uint64_t> phaseIterations;
  /// R_k — requests with outstanding work at the start of iteration k, per
  /// phase (acquiring a quorum or finalizing a commit/abort/repair).
  std::vector<std::vector<std::uint64_t>> liveTrajectory;
  /// The paper's cost model O(q(Φ log q + log N)): per phase
  /// Φ_p * (1 + ceil(log2 r)) intra-cluster coordination plus ceil(log2 N)
  /// address-computation steps. Phases that run zero iterations perform no
  /// address computation and are not billed.
  std::uint64_t modeledSteps = 0;
  /// Bounded-degree-network delivery cost of this batch: store-and-forward
  /// cycles the machine's installed interconnect spent routing the batch's
  /// post-arbitration winner sets (MachineMetrics::networkCycles delta
  /// around the wire rounds). Zero on the paper's crossbar model, where
  /// delivery is free. Deterministic — independent of thread count — so it
  /// participates in bit-identity comparisons between same-backend runs.
  std::uint64_t networkCycles = 0;
  /// Requests whose quorum became unreachable because too many of their
  /// copies live in failed modules (> r - quorum dead copies). Their values
  /// entry is zeroed. Empty when no module faults are injected.
  std::vector<std::size_t> unsatisfiable;

  std::uint64_t maxPhaseIterations() const;

  bool operator==(const AccessResult&) const = default;
};

/// Fault-path counters layered onto EngineMetrics. All counts are exact and
/// deterministic (independent of thread count) for a given machine history.
struct FaultMetrics {
  /// Request-copies found unreachable because their module was failed when
  /// the engine tried to touch them (stage, read, commit, abort or repair).
  std::uint64_t deadCopies = 0;
  /// Writes that staged at least one copy and then had to abort because
  /// their quorum became unreachable. Without the two-phase protocol each
  /// of these would have leaked a freshest-stamped torn value.
  std::uint64_t stagedAborted = 0;
  /// Stale granted copies healed by read-repair (freshest value pushed).
  std::uint64_t repairsPerformed = 0;
  /// Commit messages abandoned because the copy's module died inside the
  /// commit window. The write is still decided; the copy simply lags like
  /// any stale copy and read-repair can heal it later.
  std::uint64_t commitsLost = 0;
  /// Abort messages abandoned the same way. The staged entry lingers on the
  /// dead module but stays invisible to reads forever.
  std::uint64_t abortsLost = 0;
  /// Requests whose quorum was unreachable (matches AccessResult entries).
  std::uint64_t unsatisfiable = 0;
  /// degradedQuorum[d] = satisfied requests that had d of their r copies
  /// unreachable (d == 0 is the healthy fast path). Size r+1 once any batch
  /// has run.
  std::vector<std::uint64_t> degradedQuorum;

  bool operator==(const FaultMetrics&) const = default;
};

/// Cumulative engine-side performance counters (across execute() calls;
/// resetMetrics() zeroes them). Wall-clock splits cover the three stages of
/// every protocol iteration: wire build, machine step, reply scan.
struct EngineMetrics {
  std::uint64_t batches = 0;        ///< execute() calls
  std::uint64_t requests = 0;       ///< batch entries processed
  std::uint64_t wireRequests = 0;   ///< MPC requests placed on the wire
  std::uint64_t cacheHits = 0;      ///< copy-cache hits (addressing skipped)
  std::uint64_t cacheMisses = 0;
  /// Cache misses resolved through the batched Section-4 kernel and the
  /// number of scheme copiesBatch chunk calls that carried them; their
  /// ratio is the average miss-lane occupancy (see CopyCache). The chunk
  /// count depends on the process: on a multi-thread pool it follows the
  /// pool's partition, whose width comes from the fork grain the process
  /// calibrated, so two runs on one host can differ; a 1-thread pool
  /// counts one chunk per batch.
  std::uint64_t addrBatchLanes = 0;
  std::uint64_t addrBatchChunks = 0;
  /// Scratch buffers whose capacity already fit the batch at preprocess
  /// time — reallocation avoided by reuse across batches/stream entries.
  std::uint64_t allocationsAvoided = 0;
  double wireBuildSeconds = 0.0;
  double stepSeconds = 0.0;
  double scanSeconds = 0.0;
  /// Wall-clock spent inside the copy-cache batch resolution (the Section-4
  /// addressing kernels), split out of prepare. Timed inside prepare and
  /// folded by beginBatch — prepare may run on the prefetch thread.
  double addrSeconds = 0.0;
  /// Sum of AccessResult::networkCycles across batches — interconnect
  /// delivery cost alongside the modeled-step figure. Zero on a crossbar.
  std::uint64_t networkCycles = 0;
  /// Quorum-planner counters (all zero with the planner off).
  /// plannedWireSavings: per-request copies never targeted, summed — for a
  /// read that finished on its plan this is r - q; every escalation eats
  /// into it. escalations: spare copies opened because a planned copy was
  /// denied (dead module or FaultPlan drop). maxPlannedModuleLoad: worst
  /// per-module planned load any batch's greedy sweep settled for — the
  /// quantity the planner minimizes (compare maxModuleQueue, the machine's
  /// measured analogue).
  std::uint64_t plannedWireSavings = 0;
  std::uint64_t escalations = 0;
  std::uint64_t maxPlannedModuleLoad = 0;
  /// networkCycles accumulated by batches that ran a built (greedy) plan:
  /// the share of the interconnect bill paid under the planner. Equals
  /// networkCycles when every batch is planned; zero on a crossbar or with
  /// the planner off.
  std::uint64_t plannedNetworkCycles = 0;
  FaultMetrics faults;  ///< fault-tolerance and recovery counters

  double cacheHitRate() const {
    const std::uint64_t total = cacheHits + cacheMisses;
    return total == 0 ? 0.0 : static_cast<double>(cacheHits) / total;
  }
};

/// Shared engine base: owns the copy cache, the reusable batch scratch and
/// the global timestamp.
class EngineBase {
 public:
  /// Default copy-cache capacity (slots; rounded to a power of two).
  static constexpr std::size_t kDefaultCopyCacheCapacity = 1 << 12;

  /// copy_cache_capacity == 0 disables copy caching (every batch recomputes
  /// the Section-4 addressing — the seed engine's behaviour).
  EngineBase(const scheme::MemoryScheme& scheme, mpc::Machine& machine,
             std::size_t copy_cache_capacity = kDefaultCopyCacheCapacity);
  virtual ~EngineBase();

  /// Executes one batch: prepare (validation, addressing, stamping) then
  /// the engine's wire rounds. Dispatches to executePrepared().
  AccessResult execute(const std::vector<AccessRequest>& batch);

  /// Pipelines a stream of batches through one warmed engine: the copy
  /// cache and all scratch vectors (wire, replies, accessed, dead, fresh,
  /// ...) are reused across batches instead of being reallocated, and —
  /// when the machine pool is multi-threaded — batch k+1's prepare runs on
  /// a prefetch thread while batch k's wire rounds execute (see the file
  /// comment). Results are identical to calling execute() per batch on a
  /// fresh engine over the same machine, at any thread count.
  ///
  /// Error contract (what a long-lived server may rely on):
  ///  * A batch that fails validation (out-of-range variable, duplicate
  ///    variables, oversized batch) raises util::CheckError at its stream
  ///    position and leaves NO trace: validation precedes every clock /
  ///    timestamp mutation, and the prepare scratch is overwritten by the
  ///    next prepare. Batches before the bad one have fully executed (their
  ///    writes are committed and accounted in metrics(), though their
  ///    AccessResults are lost with the throw); batches after it have not
  ///    started. The engine remains fully usable: continuing with the
  ///    remaining batches yields results byte-identical to a stream that
  ///    never contained the bad batch.
  ///  * If the wire rounds themselves throw (machine precondition failure),
  ///    the engine and machine stay safe and reusable, but the interrupted
  ///    batch may have partially mutated memory (some writes committed,
  ///    some staged-forever-invisible) and a pipelined successor's prepare
  ///    may already have advanced the clock. No path — normal or unwinding
  ///    — returns with a prepare still in flight on the prefetch thread.
  std::vector<AccessResult> executeStream(
      std::span<const std::vector<AccessRequest>> batches);

  const scheme::MemoryScheme& scheme() const noexcept { return scheme_; }
  mpc::Machine& machine() noexcept { return machine_; }

  const EngineMetrics& metrics() const noexcept { return metrics_; }
  void resetMetrics() noexcept { metrics_ = {}; }

  const scheme::CopyCache& copyCache() const noexcept { return cache_; }

  /// Composition-time addressing peek for plan-aware admission (DESIGN.md
  /// §15): resolves v's copies through the engine's copy cache, so the
  /// serving layer prices placements against the exact addresses the
  /// engine will plan with. Single-threaded like every cache consumer —
  /// callable only between executeStream calls (the scheduler's driver
  /// thread composes strictly between pumps), never while a prepare is in
  /// flight on the prefetch thread.
  void resolveCopies(std::uint64_t v,
                     std::vector<scheme::PhysicalAddress>& out) {
    cache_.copies(v, out);
  }

  /// Congestion-aware quorum planner toggle (see the file comment). Off by
  /// default — planner-off behaviour is byte-identical to the pre-planner
  /// engine. The flag is sampled once per prepare and travels with the
  /// prepared batch, so toggling mid-executeStream is safe but takes effect
  /// at an unspecified batch boundary; toggle between streams for
  /// deterministic comparisons.
  void setPlannerEnabled(bool on) noexcept { planner_enabled_ = on; }
  bool plannerEnabled() const noexcept { return planner_enabled_; }

 protected:
  /// Per-request protocol state within a phase. A request moves forward
  /// only (acquire -> finalize -> done), so the live set shrinks
  /// monotonically.
  enum State : std::uint8_t {
    kStateAcquire = 0,  ///< collecting a quorum of grants
    kStateFinalize = 1, ///< delivering commit/abort/repair messages
    kStateDone = 2,
  };

  /// Collects the newest (timestamp, value) pair among granted copies.
  struct Freshest {
    std::uint64_t timestamp = 0;
    std::uint64_t value = 0;
    bool any = false;

    void offer(std::uint64_t ts, std::uint64_t v) {
      if (!any || ts > timestamp) {
        timestamp = ts;
        value = v;
        any = true;
      }
    }
  };

  /// Machine-independent product of preparing one batch: the Section-4 copy
  /// addresses, the write timestamps, and the validation scratch. Owns no
  /// engine state, so one PreparedBatch can be filled by the prefetch
  /// thread while another drives the current batch's wire rounds.
  struct PreparedBatch {
    /// Flat copy addresses: request i's copy j at [i * r + j], with
    /// r = copiesPerVariable(). One contiguous buffer per batch instead of
    /// a vector-of-vectors — the batched cache path fills it directly.
    std::vector<scheme::PhysicalAddress> copies;
    std::vector<std::uint64_t> stamps;
    std::vector<std::uint64_t> vars;      ///< batch variables, batch order
    std::vector<std::uint64_t> distinct;  ///< sorted duplicate-check scratch
    /// Reuse accounting for this struct's own buffers, folded into
    /// metrics_ by beginBatch (prepare must not touch metrics_ — it may be
    /// running on the prefetch thread).
    std::uint64_t allocationsAvoided = 0;
    /// Seconds spent in the copy-cache batch resolution (addressing
    /// kernels), folded into metrics_.addrSeconds by beginBatch.
    double addrSeconds = 0.0;
    /// Quorum plan, always valid: the greedy plan (planBatch) with the
    /// planner on, the identity plan otherwise. The shared artifact of
    /// DESIGN.md §15: produced here at prepare time, consumed by the round
    /// driver, summarized downward to the machine (plan.wire()) before the
    /// batch's wire rounds.
    plan::BatchPlan plan;
  };

  /// Runs the engine's wire rounds for one prepared batch. Called between
  /// beginBatch() and finishBatch(); `batch` is never empty.
  virtual AccessResult executePrepared(const std::vector<AccessRequest>& batch,
                                       const PreparedBatch& prep) = 0;

  /// Wraps executePrepared() with interconnect cost capture: the machine's
  /// networkCycles delta across the wire rounds becomes the batch's
  /// AccessResult::networkCycles (the engine has exclusive use of the
  /// machine, so the delta is exactly this batch's traffic). Both execute()
  /// and executeStream() dispatch through here.
  AccessResult runPrepared(const std::vector<AccessRequest>& batch,
                           const PreparedBatch& prep);

  /// Validates batch (range, distinct variables, 32-bit processor-id head
  /// room), resolves copies through the cache (misses in parallel on
  /// `pool` when non-null), stamps write requests and leaves the batch's
  /// plan (greedy with the planner on, identity otherwise). Touches ONLY
  /// cache_, clock_, plan_model_ and prep — safe to run on the prefetch
  /// thread (with a null pool) while wire rounds execute.
  void prepare(const std::vector<AccessRequest>& batch, PreparedBatch& prep,
               mpc::ThreadPool* pool);

  /// Main-thread batch prologue: folds prepare's reuse accounting plus the
  /// engine-scratch capacity probes into metrics_ and clears the per-batch
  /// dead-module memo.
  void beginBatch(const PreparedBatch& prep, std::size_t batch_size);

  /// Resets the per-phase state arrays for `count` requests of `r` copies.
  void resetPhaseState(std::size_t count, std::size_t r);

  /// Seeds dead flags from the batch-level dead-module memo (modules
  /// observed failed in an earlier phase of this batch are not retried).
  void premarkKnownDeadCopies(const PreparedBatch& prep, std::size_t a,
                              std::size_t req, std::size_t r);

  /// Computes the quorum plan for one batch: fills prep.plan.count from the
  /// batch's ops (readQuorum() for reads, r for writes) and delegates the
  /// greedy balanced-assignment sweep to plan::BatchPlan::build against the
  /// engine's ModuleLoadModel (plan_model_ — prepare is its only caller,
  /// serialized by the one-in-flight-prepare contract). Pure function of
  /// (batch, copies), so it runs inside prepare, on the prefetch thread
  /// included.
  void planBatch(const std::vector<AccessRequest>& batch, PreparedBatch& prep);

  /// Advances the state machine of request `a` (batch index `req`) after
  /// its replies for one round have been scanned (or before the first round
  /// for pre-dead requests). Safe to call concurrently for distinct `a`.
  void transitionAfterScan(std::size_t a, std::size_t req, mpc::Op op,
                           std::size_t r);

  /// Phase epilogue (serial): folds dead copies into the module memo and
  /// the fault metrics, and records unsatisfiable requests into `result`.
  void finishPhase(const PreparedBatch& prep, std::size_t count,
                   const std::size_t* req_map, std::size_t r,
                   AccessResult& result);

  /// The per-reply kernel of the reply scan: applies one reply to copy `j`
  /// of request `a` (batch index `req`) — a dead module (marked once;
  /// escalates an acquirer's spares, loses a pending finalize message), a
  /// FaultPlan drop (opens one spare), or a grant (acks a finalize message,
  /// or records an acquire grant and, for reads, its stamp and value).
  /// Returns true when escalation opened plan ranks, so the request's wire
  /// segment must be rebuilt. Safe to call concurrently for distinct `a`.
  bool scanReply(const PreparedBatch& prep, std::size_t a, std::size_t req,
                 std::size_t j, const mpc::Response& reply, bool finalizing,
                 bool read, std::size_t r);

  /// The round driver behind both engines' executePrepared: runs the
  /// batch's phases (Policy::phases(r) of them; phase k serves requests k,
  /// k + P, ...), each as phase init from the batch's plan, then rounds of
  /// live-list compaction, parallel wire fill, Machine::step and parallel
  /// reply scan until every request is done, and fills the result. Policy
  /// (engines.cpp) statically fixes the phase count, the processor ids,
  /// the per-round segment (every open rank, or one rotating pick) and the
  /// coordination cost — no per-entry virtual call.
  template <class Policy>
  AccessResult runBatch(const std::vector<AccessRequest>& batch,
                        const PreparedBatch& prep);

  /// Folds the copy-cache counters into metrics_ and closes one batch.
  void finishBatch(std::size_t batch_size);

  const scheme::MemoryScheme& scheme_;
  mpc::Machine& machine_;
  scheme::CopyCache cache_;
  /// Planner histogram scratch (DESIGN.md §15): per-batch, sparse reset
  /// inside BatchPlan::build. Touched only by prepare — serialized by the
  /// one-in-flight-prepare contract like the copy cache.
  plan::ModuleLoadModel plan_model_;
  std::uint64_t clock_ = 0;  ///< global timestamp source (monotone)
  EngineMetrics metrics_;
  std::uint64_t cache_hits_seen_ = 0;    ///< cache counters already folded
  std::uint64_t cache_misses_seen_ = 0;
  std::uint64_t addr_lanes_seen_ = 0;
  std::uint64_t addr_chunks_seen_ = 0;

  // Double-buffered prepare slots: one drives the current batch's wire
  // rounds while the other is filled (possibly on the prefetch thread) for
  // the next batch. Their buffers persist across batches like the rest of
  // the scratch set.
  PreparedBatch prep_a_;
  PreparedBatch prep_b_;
  // Dedicated prepare thread for pipelined executeStream, created lazily on
  // the first pipelined stream and reused for the engine's lifetime.
  class Prefetcher;
  std::unique_ptr<Prefetcher> prefetcher_;

  // Per-batch scratch, reused across execute() calls (sized by beginBatch
  // or the engine loops; never shrunk). Main-thread only — prepare must not
  // touch these, the current batch's wire rounds are using them.
  std::vector<Freshest> fresh_;
  std::vector<mpc::Request> wire_;
  std::vector<mpc::Response> replies_;
  std::vector<std::size_t> offsets_;    ///< wire range per live request
  std::vector<std::size_t> wire_copy_;  ///< copy index per wire entry
  std::vector<std::uint8_t> accessed_;  ///< flat [request][copy] granted flags
  std::vector<std::uint8_t> dead_;      ///< flat [request][copy] failed flags
  std::vector<unsigned> done_;
  std::vector<unsigned> dead_count_;
  std::vector<unsigned> quorum_;
  std::vector<std::size_t> active_;     ///< per-phase request indices
  // Plan runtime state (per phase). target_count_[a] is how many plan
  // ranks are open for request a; live_targets_[a] counts
  // the open ranks whose module is not (yet) known dead — the acquire
  // invariant is live_targets_ == #{k < target_count_ : !dead_[plan[k]]},
  // and a request escalates (opens further ranks) until live_targets_ >=
  // quorum_ or the spares run out. Updated per-request only, so the
  // parallel reply scan mutates them race-free like the rest of the state.
  std::vector<unsigned> target_count_;
  std::vector<unsigned> live_targets_;
  // Two-phase/repair state (per phase, same indexing as accessed_/done_).
  std::vector<std::uint8_t> state_;        ///< State per request
  std::vector<std::uint8_t> final_op_;     ///< mpc::Op of the finalize round
  std::vector<std::uint8_t> pending_;      ///< flat [request][copy] to finalize
  std::vector<unsigned> pending_count_;
  std::vector<std::uint64_t> ts_seen_;     ///< flat [request][copy] read stamps
  std::vector<unsigned> acked_;            ///< finalize messages delivered
  std::vector<unsigned> lost_;             ///< finalize messages lost (dead)
  // Persistent-wire state (see file comment): the live list pairs with
  // offsets_/wire_/wire_copy_ as the current round's layout; the _next_
  // buffers are the double-buffered target of the incremental compaction
  // (a request's segment may GROW on the acquire -> finalize transition, so
  // in-place left-compaction is not possible).
  std::vector<std::size_t> live_;       ///< live request indices, ascending
  std::vector<std::size_t> live_next_;
  std::vector<std::size_t> offsets_next_;
  std::vector<std::size_t> fill_from_;  ///< old live position per new one
  std::vector<mpc::Request> wire_next_;
  std::vector<std::size_t> wire_copy_next_;
  std::vector<std::uint8_t> need_refill_;  ///< segment must be rebuilt
  // Batch-level memo of modules observed failed (reset per batch: modules
  // may heal between batches, and the engine re-discovers honestly).
  std::vector<std::uint8_t> module_dead_;
  bool module_dead_any_ = false;
  // Quorum planner toggle (file comment), sampled per prepare: the wire
  // rounds only ever read the prepared batch's plan, so a toggle mid-stream
  // never tears a batch between plans.
  bool planner_enabled_ = false;
};

/// Section-3 clustered majority protocol (used by PP and UW schemes).
class MajorityEngine : public EngineBase {
 public:
  using EngineBase::EngineBase;

 protected:
  AccessResult executePrepared(const std::vector<AccessRequest>& batch,
                               const PreparedBatch& prep) override;
};

/// One-processor-per-request engine (used by MV84 and single-copy schemes).
class SingleOwnerEngine : public EngineBase {
 public:
  using EngineBase::EngineBase;

 protected:
  AccessResult executePrepared(const std::vector<AccessRequest>& batch,
                               const PreparedBatch& prep) override;
};

}  // namespace dsm::protocol
