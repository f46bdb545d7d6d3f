#include "dsm/protocol/engines.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

#include "dsm/util/assert.hpp"
#include "dsm/util/numeric.hpp"
#include "dsm/util/timer.hpp"

namespace dsm::protocol {

std::uint64_t AccessResult::maxPhaseIterations() const {
  std::uint64_t m = 0;
  for (const std::uint64_t phi : phaseIterations) m = std::max(m, phi);
  return m;
}

// One-slot prepare worker for pipelined executeStream: the main thread
// submits (batch, prep) before starting a batch's wire rounds and waits
// after them, so exactly one prepare is ever in flight and the engine state
// prepare touches (cache_, clock_, the submitted PreparedBatch) is never
// shared with the rounds. Exceptions from prepare (validation failures)
// are captured and rethrown on wait() — the same point in the stream where
// the serial loop would have thrown them.
class EngineBase::Prefetcher {
 public:
  explicit Prefetcher(EngineBase& owner)
      : owner_(owner), worker_([this] { loop(); }) {}

  ~Prefetcher() {
    {
      std::unique_lock<std::mutex> lk(mu_);
      // Never abandon a submitted prepare: the worker dereferences a batch
      // pointer owned by whoever called submit(), and during an unwind that
      // frame may already be dying. executeStream's drain guard collects
      // every submit before returning or throwing, so this wait is a no-op
      // in practice — it is the backstop for a teardown that races one.
      cv_.wait(lk, [&] { return !busy_; });
      stop_ = true;
    }
    cv_.notify_all();
    // worker_ (jthread) joins on destruction.
  }

  Prefetcher(const Prefetcher&) = delete;
  Prefetcher& operator=(const Prefetcher&) = delete;

  void submit(const std::vector<AccessRequest>* batch, PreparedBatch* prep) {
    {
      const std::lock_guard<std::mutex> lk(mu_);
      batch_ = batch;
      prep_ = prep;
      error_ = nullptr;
      busy_ = true;
    }
    cv_.notify_all();
  }

  /// Blocks until the submitted prepare finished; rethrows its exception.
  void wait() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return !busy_; });
    if (error_ != nullptr) {
      const std::exception_ptr error = error_;
      error_ = nullptr;
      std::rethrow_exception(error);
    }
  }

  /// Blocks until any submitted prepare finished and discards its outcome
  /// (exception included). Unwind path: the pointers handed to submit() are
  /// about to die with the caller's frame, so the worker must be idle
  /// before the unwind continues; the primary exception is already in
  /// flight, so whatever the prepare raised is dropped.
  void drain() noexcept {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return !busy_; });
    error_ = nullptr;
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lk(mu_);
    while (true) {
      cv_.wait(lk, [&] { return stop_ || busy_; });
      if (stop_) return;
      const std::vector<AccessRequest>* batch = batch_;
      PreparedBatch* prep = prep_;
      lk.unlock();
      std::exception_ptr error;
      try {
        // Null pool: the machine pool is running batch k's wire rounds.
        owner_.prepare(*batch, *prep, nullptr);
      } catch (...) {
        error = std::current_exception();
      }
      lk.lock();
      error_ = error;
      busy_ = false;
      cv_.notify_all();
    }
  }

  EngineBase& owner_;
  std::mutex mu_;
  std::condition_variable cv_;
  const std::vector<AccessRequest>* batch_ = nullptr;
  PreparedBatch* prep_ = nullptr;
  bool busy_ = false;
  bool stop_ = false;
  std::exception_ptr error_;
  std::jthread worker_;  // last member: joins before the slot state dies
};

EngineBase::~EngineBase() = default;

EngineBase::EngineBase(const scheme::MemoryScheme& scheme,
                       mpc::Machine& machine,
                       std::size_t copy_cache_capacity)
    : scheme_(scheme), machine_(machine),
      cache_(scheme, copy_cache_capacity) {
  DSM_CHECK_MSG(machine.moduleCount() == scheme.numModules(),
                "machine/scheme module count mismatch");
  if (machine.slotsPerModule() == 0) {
    // Sparse committed storage: pre-size each module's table for the
    // scheme's full copy footprint (capped — beyond the cap the tables
    // grow on demand) so steady-state accesses never rehash mid-batch.
    const std::uint64_t per_module =
        scheme.numVariables() * scheme.copiesPerVariable() /
            std::max<std::uint64_t>(1, scheme.numModules()) +
        1;
    machine.reserveSparse(std::min<std::uint64_t>(per_module, 1ULL << 18));
  }
}

void EngineBase::prepare(const std::vector<AccessRequest>& batch,
                         PreparedBatch& prep, mpc::ThreadPool* pool) {
  const std::size_t b = batch.size();
  // Wire processor ids are 32-bit: MajorityEngine derives them as
  // cluster * r + j (< b + r) and SingleOwnerEngine as the request index.
  // Larger batches would silently alias ids and break the lowest-id-wins
  // arbitration determinism.
  DSM_CHECK_MSG(b + scheme_.copiesPerVariable() <= (1ULL << 32),
                "batch too large for 32-bit processor ids: " << b);
  // Reuse accounting for prep's own buffers: recorded locally and folded
  // into metrics_ by beginBatch, because prepare may run on the prefetch
  // thread while the main thread reads metrics_.
  prep.allocationsAvoided = 0;
  const auto probe = [&prep](std::size_t have, std::size_t need) {
    if (need > 0 && have >= need) ++prep.allocationsAvoided;
  };
  probe(prep.copies.capacity(), b * scheme_.copiesPerVariable());
  probe(prep.stamps.capacity(), b);
  probe(prep.vars.capacity(), b);
  probe(prep.distinct.capacity(), b);

  // Distinct-variable check via a reused sorted scratch vector: no
  // per-batch hashing or node allocation (the scratch's capacity survives
  // across batches like the rest of the scratch set).
  prep.vars.resize(b);
  prep.distinct.resize(b);
  for (std::size_t i = 0; i < b; ++i) {
    DSM_CHECK_MSG(batch[i].variable < scheme_.numVariables(),
                  "variable out of range: " << batch[i].variable);
    prep.vars[i] = batch[i].variable;
    prep.distinct[i] = batch[i].variable;
  }
  std::sort(prep.distinct.begin(), prep.distinct.end());
  const auto dup =
      std::adjacent_find(prep.distinct.begin(), prep.distinct.end());
  DSM_CHECK_MSG(dup == prep.distinct.end(),
                "duplicate variable in batch: "
                    << (dup == prep.distinct.end() ? 0 : *dup));
  // Section-4 addressing through the cache into the flat copy buffer;
  // misses resolve through one batched scheme call per pool chunk when a
  // pool is available (the scheme is immutable + thread-safe). Timed into
  // prep (not metrics_ — this may be the prefetch thread).
  prep.copies.resize(b * scheme_.copiesPerVariable());
  util::Timer addr_timer;
  cache_.copiesBatch(prep.vars.data(), b, prep.copies.data(), pool);
  prep.addrSeconds = addr_timer.seconds();
  // Write stamping in batch order — prepare is the only writer of clock_,
  // and prepares run in batch order even when pipelined, so the stamps are
  // identical to the serial loop's.
  prep.stamps.assign(b, 0);
  for (std::size_t i = 0; i < b; ++i) {
    if (batch[i].op == mpc::Op::kWrite) prep.stamps[i] = ++clock_;
  }
  // Reads must observe any write completed in an earlier batch; bump the
  // clock so later batches always stamp strictly newer.
  ++clock_;
  // Quorum plan, riding the prepare (and therefore the prefetch pipeline)
  // for free: a pure function of the batch and its resolved copies. Every
  // batch carries a valid plan — the greedy one with the planner on, the
  // identity plan (attack all r copies in copy order) otherwise.
  const std::size_t r = scheme_.copiesPerVariable();
  probe(prep.plan.order.capacity(), b * r);
  probe(prep.plan.count.capacity(), b);
  if (planner_enabled_) {
    planBatch(batch, prep);
  } else {
    prep.plan.identity(b, r);
  }
}

void EngineBase::planBatch(const std::vector<AccessRequest>& batch,
                           PreparedBatch& prep) {
  const std::size_t b = batch.size();
  const std::size_t r = scheme_.copiesPerVariable();
  prep.plan.count.resize(b);
  for (std::size_t i = 0; i < b; ++i) {
    // Reads target a read quorum; writes keep their full r-copy attack but
    // take the congestion-interleaved order (and bump the histogram for
    // all r — they really will hit every module).
    prep.plan.count[i] = static_cast<std::uint16_t>(
        batch[i].op == mpc::Op::kRead ? scheme_.readQuorum() : r);
  }
  // The greedy sweep itself lives in dsm/plan (the serving layer replays
  // the same rule during plan-aware composition); the engine's
  // ModuleLoadModel is the histogram, sparse-reset per batch inside build.
  plan_model_.ensure(scheme_.numModules());
  prep.plan.build(prep.copies.data(), r, plan_model_);
}

void EngineBase::beginBatch(const PreparedBatch& prep,
                            std::size_t batch_size) {
  const std::size_t b = batch_size;
  // Reuse accounting for the engine-owned scratch. Probed here, not in
  // prepare: these vectors belong to the wire rounds, which may still be
  // running (for the previous batch) when a pipelined prepare executes.
  const auto probe = [this](std::size_t have, std::size_t need) {
    if (need > 0 && have >= need) ++metrics_.allocationsAvoided;
  };
  probe(fresh_.capacity(), b);
  probe(wire_.capacity(), b);
  probe(replies_.capacity(), b);
  probe(wire_copy_.capacity(), b);
  probe(accessed_.capacity(), b);
  probe(dead_.capacity(), b);
  probe(done_.capacity(), b);
  probe(dead_count_.capacity(), b);
  probe(quorum_.capacity(), b);
  probe(offsets_.capacity(), b + 1);
  probe(state_.capacity(), b);
  probe(final_op_.capacity(), b);
  probe(pending_.capacity(), b);
  probe(pending_count_.capacity(), b);
  probe(ts_seen_.capacity(), b);
  probe(acked_.capacity(), b);
  probe(lost_.capacity(), b);
  probe(target_count_.capacity(), b);
  probe(live_targets_.capacity(), b);
  metrics_.allocationsAvoided += prep.allocationsAvoided;
  metrics_.addrSeconds += prep.addrSeconds;
  metrics_.maxPlannedModuleLoad =
      std::max(metrics_.maxPlannedModuleLoad, prep.plan.maxPlannedLoad);
  // The dead-module memo is per batch: modules may heal between batches, so
  // each batch rediscovers honestly.
  module_dead_.resize(static_cast<std::size_t>(scheme_.numModules()), 0);
  if (module_dead_any_) {
    std::fill(module_dead_.begin(), module_dead_.end(), 0);
    module_dead_any_ = false;
  }
}

void EngineBase::resetPhaseState(std::size_t count, std::size_t r) {
  accessed_.assign(count * r, 0);
  dead_.assign(count * r, 0);
  pending_.assign(count * r, 0);
  ts_seen_.assign(count * r, 0);
  done_.assign(count, 0);
  dead_count_.assign(count, 0);
  pending_count_.assign(count, 0);
  acked_.assign(count, 0);
  lost_.assign(count, 0);
  state_.assign(count, kStateAcquire);
  final_op_.assign(count, static_cast<std::uint8_t>(mpc::Op::kRead));
  quorum_.resize(count);
}

void EngineBase::premarkKnownDeadCopies(const PreparedBatch& prep,
                                        std::size_t a, std::size_t req,
                                        std::size_t r) {
  if (!module_dead_any_) return;
  for (std::size_t j = 0; j < r; ++j) {
    if (module_dead_[static_cast<std::size_t>(
            prep.copies[req * r + j].module)]) {
      dead_[a * r + j] = 1;
      ++dead_count_[a];
    }
  }
}

void EngineBase::transitionAfterScan(std::size_t a, std::size_t req,
                                     mpc::Op op, std::size_t r) {
  if (state_[a] == kStateDone) return;
  if (state_[a] == kStateAcquire) {
    const bool is_write = op == mpc::Op::kWrite;
    if (done_[a] >= quorum_[a]) {
      // Quorum reached. A write promotes every staged copy (the commit
      // round of the two-phase protocol); a read pushes the freshest value
      // back onto any stale granted copies (read-repair). A read whose
      // granted copies already agree skips the extra round entirely — the
      // healthy fast path costs exactly what the one-phase protocol did.
      unsigned pending = 0;
      if (is_write) {
        for (std::size_t j = 0; j < r; ++j) {
          if (accessed_[a * r + j]) {
            pending_[a * r + j] = 1;
            ++pending;
          }
        }
        final_op_[a] = static_cast<std::uint8_t>(mpc::Op::kCommit);
      } else {
        for (std::size_t j = 0; j < r; ++j) {
          if (accessed_[a * r + j] &&
              ts_seen_[a * r + j] < fresh_[req].timestamp) {
            pending_[a * r + j] = 1;
            ++pending;
          }
        }
        final_op_[a] = static_cast<std::uint8_t>(mpc::Op::kRepair);
      }
      pending_count_[a] = pending;
      state_[a] = pending == 0 ? kStateDone : kStateFinalize;
      return;
    }
    if (dead_count_[a] > r - quorum_[a]) {
      // Unsatisfiable: the quorum is unreachable. A write that already
      // staged copies must invalidate them — left alone, their globally
      // freshest stamps would win a later read quorum and leak a value the
      // write never committed (the torn-write hazard).
      if (is_write && done_[a] > 0) {
        unsigned pending = 0;
        for (std::size_t j = 0; j < r; ++j) {
          if (accessed_[a * r + j]) {
            pending_[a * r + j] = 1;
            ++pending;
          }
        }
        final_op_[a] = static_cast<std::uint8_t>(mpc::Op::kAbort);
        pending_count_[a] = pending;
        state_[a] = kStateFinalize;
      } else {
        state_[a] = kStateDone;
      }
    }
    return;
  }
  // kStateFinalize: done once every pending message is delivered or its
  // module has died (the lost_ counter keeps the book on the latter).
  if (pending_count_[a] == 0) state_[a] = kStateDone;
}

void EngineBase::finishPhase(const PreparedBatch& prep, std::size_t count,
                             const std::size_t* req_map, std::size_t r,
                             AccessResult& result) {
  FaultMetrics& fm = metrics_.faults;
  if (fm.degradedQuorum.size() < r + 1) fm.degradedQuorum.resize(r + 1, 0);
  for (std::size_t a = 0; a < count; ++a) {
    const std::size_t req = req_map ? req_map[a] : a;
    if (dead_count_[a] > 0) {
      fm.deadCopies += dead_count_[a];
      for (std::size_t j = 0; j < r; ++j) {
        if (!dead_[a * r + j]) continue;
        const auto m =
            static_cast<std::size_t>(prep.copies[req * r + j].module);
        if (!module_dead_[m]) {
          module_dead_[m] = 1;
          module_dead_any_ = true;
        }
      }
    }
    switch (static_cast<mpc::Op>(final_op_[a])) {
      case mpc::Op::kCommit:
        fm.commitsLost += lost_[a];
        break;
      case mpc::Op::kAbort:
        ++fm.stagedAborted;
        fm.abortsLost += lost_[a];
        break;
      case mpc::Op::kRepair:
        fm.repairsPerformed += acked_[a];
        break;
      default:
        break;
    }
    if (done_[a] >= quorum_[a]) {
      ++fm.degradedQuorum[std::min<std::size_t>(dead_count_[a], r)];
    } else {
      result.unsatisfiable.push_back(req);
      ++fm.unsatisfiable;
    }
  }
}

void EngineBase::finishBatch(std::size_t batch_size) {
  ++metrics_.batches;
  metrics_.requests += batch_size;
  metrics_.cacheHits += cache_.hits() - cache_hits_seen_;
  metrics_.cacheMisses += cache_.misses() - cache_misses_seen_;
  metrics_.addrBatchLanes += cache_.batchMissLanes() - addr_lanes_seen_;
  metrics_.addrBatchChunks += cache_.batchMissChunks() - addr_chunks_seen_;
  cache_hits_seen_ = cache_.hits();
  cache_misses_seen_ = cache_.misses();
  addr_lanes_seen_ = cache_.batchMissLanes();
  addr_chunks_seen_ = cache_.batchMissChunks();
}

AccessResult EngineBase::runPrepared(const std::vector<AccessRequest>& batch,
                                     const PreparedBatch& prep) {
  const std::uint64_t net_before = machine_.metrics().networkCycles;
  // Downward hand-off of the quorum plan (DESIGN.md §15): a routed backend
  // may pre-size its delivery scratch from the planned wire volume.
  machine_.announcePlan(prep.plan.wire(scheme_.copiesPerVariable()));
  AccessResult result = executePrepared(batch, prep);
  result.networkCycles = machine_.metrics().networkCycles - net_before;
  metrics_.networkCycles += result.networkCycles;
  if (prep.plan.planned) {
    metrics_.plannedNetworkCycles += result.networkCycles;
  }
  return result;
}

AccessResult EngineBase::execute(const std::vector<AccessRequest>& batch) {
  if (batch.empty()) return AccessResult{};
  prepare(batch, prep_a_, &machine_.pool());
  beginBatch(prep_a_, batch.size());
  AccessResult result = runPrepared(batch, prep_a_);
  finishBatch(batch.size());
  return result;
}

std::vector<AccessResult> EngineBase::executeStream(
    std::span<const std::vector<AccessRequest>> batches) {
  std::vector<AccessResult> results;
  results.reserve(batches.size());
  // Pipelining pays only when the wire rounds themselves run multi-threaded
  // (a 1-thread machine stays strictly serial, including its prepares).
  const bool pipelined = batches.size() > 1 && machine_.pool().threads() > 1;
  if (pipelined && prefetcher_ == nullptr) {
    prefetcher_ = std::make_unique<Prefetcher>(*this);
  }
  // Error contract (header): executeStream must never unwind with a prepare
  // in flight — the prefetch thread would keep dereferencing the caller's
  // `batches` span after its frame died (and the engine could be torn down
  // under it). The guard drains any uncollected submit on every exit path;
  // on the normal path wait() collects first and the guard is a no-op.
  struct PrefetchDrain {
    Prefetcher* prefetcher = nullptr;
    bool pending = false;
    ~PrefetchDrain() {
      if (pending) prefetcher->drain();
    }
  } guard;
  guard.prefetcher = prefetcher_.get();
  PreparedBatch* cur = &prep_a_;
  PreparedBatch* next = &prep_b_;
  bool cur_ready = false;      // *cur holds batches[k]'s prepare
  for (std::size_t k = 0; k < batches.size(); ++k) {
    const std::vector<AccessRequest>& batch = batches[k];
    if (batch.empty()) {
      // Same as execute(): an empty batch touches no engine state (and the
      // loop never prepares one, so cur_ready is untouched here).
      results.emplace_back();
      continue;
    }
    // A validation throw from any prepare below leaves the engine as if the
    // offending batch had never been submitted: prepare validates before it
    // mutates the clock, the prep slots are scratch the next prepare
    // overwrites, and every batch that already ran was fully accounted
    // (finishBatch) before the throw propagates.
    if (!cur_ready) prepare(batch, *cur, &machine_.pool());
    // Overlap: hand batch k+1's prepare to the prefetch thread, run batch
    // k's wire rounds, then collect (rethrowing any validation failure at
    // the same stream position where the serial loop would raise it).
    const bool prefetch_next =
        k + 1 < batches.size() && !batches[k + 1].empty();
    if (prefetch_next && pipelined) {
      prefetcher_->submit(&batches[k + 1], next);
      guard.pending = true;
    }
    beginBatch(*cur, batch.size());
    results.push_back(runPrepared(batch, *cur));
    bool next_ready = false;
    if (prefetch_next && pipelined) {
      // finishBatch reads the copy-cache counters the prefetch thread
      // mutates, so it must stay ordered after wait() — but batch k itself
      // completed, so its books close even when wait() rethrows batch
      // k+1's validation failure.
      guard.pending = false;  // wait() collects the submit, throw or not
      try {
        prefetcher_->wait();
      } catch (...) {
        finishBatch(batch.size());
        throw;
      }
      finishBatch(batch.size());
      next_ready = true;
    } else {
      finishBatch(batch.size());
      if (prefetch_next) {
        prepare(batches[k + 1], *next, &machine_.pool());
        next_ready = true;
      }
    }
    std::swap(cur, next);
    cur_ready = next_ready;
  }
  return results;
}

bool EngineBase::scanReply(const PreparedBatch& prep, std::size_t a,
                           std::size_t req, std::size_t j,
                           const mpc::Response& reply, bool finalizing,
                           bool read, std::size_t r) {
  const std::size_t c = a * r + j;
  if (reply.moduleFailed) {
    bool opened = false;
    if (!dead_[c]) {
      dead_[c] = 1;
      ++dead_count_[a];
      if (!finalizing) {
        // An open rank died (acquire entries only ever target open ranks):
        // escalate one spare at a time until a quorum is reachable again or
        // the spares run out — transitionAfterScan then rules the request
        // unsatisfiable. The identity plan has no spares, so it never opens.
        --live_targets_[a];
        opened = plan::BatchPlan::escalateUntilQuorum(
            &prep.plan.order[req * r], &dead_[a * r], quorum_[a], r,
            target_count_[a], live_targets_[a]);
      }
    }
    if (finalizing && pending_[c]) {
      pending_[c] = 0;
      --pending_count_[a];
      ++lost_[a];
    }
    return opened;
  }
  if (!reply.granted) {
    if (!finalizing && reply.dropped && target_count_[a] < r) {
      // FaultPlan drop noise denied an open rank: open ONE spare to route
      // around the lossy module. The dropped copy stays open (it may still
      // be granted later). Deterministic — drops are a pure function of
      // (seed, cycle, module).
      plan::BatchPlan::openOneSpare(&prep.plan.order[req * r], &dead_[a * r],
                                    target_count_[a], live_targets_[a]);
      return true;
    }
    return false;
  }
  if (finalizing) {
    pending_[c] = 0;
    --pending_count_[a];
    ++acked_[a];
    return false;
  }
  accessed_[c] = 1;
  ++done_[a];
  if (read) {
    ts_seen_[c] = reply.timestamp;
    fresh_[req].offer(reply.timestamp, reply.value);
  }
  return false;
}

namespace {

// Round-driver policies (EngineBase::runBatch). kWholeSegment: a live
// request fires every open untried rank (acquire) or every pending copy
// (finalize) each round, and a segment whose state did not change is
// copied forward from the previous round's wire; otherwise it fires ONE
// message per round, picked round-robin, and is refilled every round.

/// Section 3: r phases; cluster i's processor i*r + j owns copy j of the
/// phase's request; intra-cluster coordination costs 1 + ceil(log2 r) per
/// round.
struct ClusterPolicy {
  static constexpr bool kWholeSegment = true;
  static std::size_t phases(std::size_t r) { return r; }
  static std::uint32_t processor(std::size_t req, std::size_t j,
                                 std::size_t r) {
    return static_cast<std::uint32_t>((req / r) * r + j);
  }
  static std::uint64_t coordCost(std::size_t r) {
    return 1 + static_cast<std::uint64_t>(util::ceilLog2(r));
  }
};

/// MV84: processor i owns request i outright, one message per round.
struct OwnerPolicy {
  static constexpr bool kWholeSegment = false;
  static std::size_t phases(std::size_t /*r*/) { return 1; }
  static std::uint32_t processor(std::size_t req, std::size_t /*j*/,
                                 std::size_t /*r*/) {
    return static_cast<std::uint32_t>(req);
  }
  static std::uint64_t coordCost(std::size_t /*r*/) { return 1; }
};

}  // namespace

template <class Policy>
AccessResult EngineBase::runBatch(const std::vector<AccessRequest>& batch,
                                  const PreparedBatch& prep) {
  constexpr bool kWhole = Policy::kWholeSegment;
  mpc::ThreadPool& pool = machine_.pool();
  const std::size_t r = scheme_.copiesPerVariable();
  const std::uint64_t addr_cost =
      static_cast<std::uint64_t>(util::ceilLog2(scheme_.numModules()));
  AccessResult result;
  fresh_.assign(batch.size(), Freshest{});
  // Phase k serves batch requests k, k + P, k + 2P, ... with P =
  // Policy::phases(r): cluster i's request i*r + k (Majority), or the whole
  // batch in one phase (SingleOwner).
  const std::size_t phases = Policy::phases(r);
  for (std::size_t k = 0; k < phases; ++k) {
    active_.clear();
    for (std::size_t req = k; req < batch.size(); req += phases) {
      active_.push_back(req);
    }
    const std::size_t count = active_.size();

    // accessed_[a*r + j]: copy j of active request a granted already.
    // dead_[a*r + j]: copy j's module is failed — never retried; a request
    // whose live copies cannot reach the quorum is unsatisfiable. Modules
    // seen dead in an earlier phase of this batch are premarked, so such a
    // request may be unsatisfiable before its first wire round (its phase may
    // then run zero iterations).
    resetPhaseState(count, r);
    target_count_.resize(count);
    live_targets_.resize(count);
    for (std::size_t a = 0; a < count; ++a) {
      const std::size_t req = active_[a];
      quorum_[a] = batch[req].op == mpc::Op::kRead ? scheme_.readQuorum()
                                                   : scheme_.writeQuorum();
      premarkKnownDeadCopies(prep, a, req, r);
      plan::BatchPlan::initTargets(&prep.plan.order[req * r],
                                   prep.plan.count[req], &dead_[a * r],
                                   quorum_[a], r, target_count_[a],
                                   live_targets_[a]);
      transitionAfterScan(a, req, batch[req].op, r);
    }

    // Persistent wire: live_ tracks the requests with outstanding work, in
    // ascending order; its order (and the rank order inside each segment)
    // reproduces the from-scratch wire exactly, so the machine sees
    // bit-identical request streams. need_refill_ marks segments whose
    // protocol state changed (first round, escalation, or acquire -> finalize
    // flipped the op/payload) — only those re-derive addressing; every other
    // whole segment is copied forward from the previous round's wire minus
    // the entries that retired (granted, or module died).
    live_.resize(count);
    for (std::size_t a = 0; a < count; ++a) live_[a] = a;
    need_refill_.assign(count, 1);
    std::uint64_t iters = 0;
    std::vector<std::uint64_t> trajectory;
    util::Timer timer;
    while (true) {
      // Incremental compaction (serial, O(live)): an acquiring request's
      // whole segment is its open ranks minus the granted ones (open dead
      // ranks are excluded by live_targets_'s invariant), a finalizing one's
      // its pending count, so every wire range is known without scanning the
      // flags — the parallel fill below writes each request's entries at
      // fixed positions, making the wire (and every downstream result)
      // bit-identical for any thread count. Double-buffered: a segment may
      // GROW at the acquire -> finalize transition or on escalation, so
      // in-place left-compaction can't work.
      timer.reset();
      live_next_.clear();
      offsets_next_.clear();
      fill_from_.clear();
      std::size_t total = 0;
      for (std::size_t p = 0; p < live_.size(); ++p) {
        const std::size_t a = live_[p];
        if (state_[a] == kStateDone) continue;
        live_next_.push_back(a);
        fill_from_.push_back(p);
        offsets_next_.push_back(total);
        total += !kWhole                     ? 1
                 : state_[a] == kStateAcquire ? live_targets_[a] - done_[a]
                                              : pending_count_[a];
      }
      offsets_next_.push_back(total);
      if (live_next_.empty()) break;
      trajectory.push_back(live_next_.size());
      wire_next_.resize(total);
      wire_copy_next_.resize(total);
      pool.parallelFor(live_next_.size(), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t p = lo; p < hi; ++p) {
          const std::size_t a = live_next_[p];
          const std::size_t req = active_[a];
          std::size_t out = offsets_next_[p];
          if (kWhole && !need_refill_[a]) {
            // Unchanged state: the surviving entries of last round's segment
            // (reply neither granted nor moduleFailed) ARE this round's
            // segment, verbatim and in the same order.
            const std::size_t src = fill_from_[p];
            for (std::size_t w = offsets_[src]; w < offsets_[src + 1]; ++w) {
              if (replies_[w].granted || replies_[w].moduleFailed) continue;
              wire_next_[out] = wire_[w];
              wire_copy_next_[out] = wire_copy_[w];
              ++out;
            }
            continue;
          }
          need_refill_[a] = 0;
          const auto emit = [&](std::size_t j, mpc::Op op, std::uint64_t val,
                                std::uint64_t ts) {
            const scheme::PhysicalAddress& pa = prep.copies[req * r + j];
            wire_next_[out] = mpc::Request{Policy::processor(req, j, r),
                                           pa.module, pa.slot, op, val, ts};
            wire_copy_next_[out] = j;
            ++out;
          };
          // A one-message owner staggers its walk by request index and round,
          // so identical-copy-set requests spread their attempts.
          const std::size_t stagger = req + iters;
          if (state_[a] == kStateFinalize) {
            // Commit/abort/repair round over the pending copies, in copy
            // order. Repairs carry the freshest observed (value, timestamp);
            // commits and aborts carry the write's own stamp so the module
            // promotes or discards exactly the staged pair of this write.
            const auto fop = static_cast<mpc::Op>(final_op_[a]);
            const bool repair = fop == mpc::Op::kRepair;
            const std::uint64_t val =
                repair ? fresh_[req].value : batch[req].value;
            const std::uint64_t ts =
                repair ? fresh_[req].timestamp : prep.stamps[req];
            const std::size_t start = kWhole ? 0 : stagger % r;
            for (std::size_t off = 0; off < r; ++off) {
              std::size_t j = start + off;
              if (j >= r) j -= r;
              if (!pending_[a * r + j]) continue;
              emit(j, fop, val, ts);
              if (!kWhole) break;
            }
            continue;
          }
          // Acquire: fire at the open ranks not yet granted or dead, in rank
          // order (escalations append, so spares land after targets). Entries
          // of one segment go to distinct copies and carry distinct processor
          // ids, so intra-segment order cannot change any arbitration outcome.
          const std::uint16_t* ord = &prep.plan.order[req * r];
          const std::size_t tc = target_count_[a];
          const std::size_t start =
              kWhole ? 0
                     : prep.plan.startRank(batch[req].op == mpc::Op::kRead,
                                           stagger, tc);
          for (std::size_t off = 0; off < tc; ++off) {
            std::size_t k = start + off;
            if (k >= tc) k -= tc;
            const std::size_t j = ord[k];
            if (accessed_[a * r + j] || dead_[a * r + j]) continue;
            emit(j, batch[req].op, batch[req].value, prep.stamps[req]);
            if (!kWhole) break;
          }
        }
      });
      live_.swap(live_next_);
      offsets_.swap(offsets_next_);
      wire_.swap(wire_next_);
      wire_copy_.swap(wire_copy_next_);
      metrics_.wireBuildSeconds += timer.seconds();

      timer.reset();
      machine_.step(wire_, replies_);
      metrics_.stepSeconds += timer.seconds();
      metrics_.wireRequests += wire_.size();
      ++iters;

      // Reply scan: request a's replies occupy its own wire range, so each
      // request is scanned (and its state machine advanced) independently —
      // no cross-request state. Live segments are never empty: a live
      // acquirer always has an untried open rank, a live finalizer a pending
      // message.
      timer.reset();
      pool.parallelFor(live_.size(), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t p = lo; p < hi; ++p) {
          const std::size_t a = live_[p];
          const std::size_t req = active_[a];
          const mpc::Op op = batch[req].op;
          const bool finalizing = state_[a] == kStateFinalize;
          bool rebuild = false;
          for (std::size_t w = offsets_[p]; w < offsets_[p + 1]; ++w) {
            rebuild |= scanReply(prep, a, req, wire_copy_[w], replies_[w],
                                 finalizing, op == mpc::Op::kRead, r);
          }
          transitionAfterScan(a, req, op, r);
          // Escalation opened ranks, or the acquire -> finalize flip changed
          // the op, payload and entry set: the segment must be rebuilt.
          // Retirement to done is handled by the compaction dropping the
          // request.
          if (rebuild || (!finalizing && state_[a] == kStateFinalize)) {
            need_refill_[a] = 1;
          }
        }
      });
      metrics_.scanSeconds += timer.seconds();
    }
    finishPhase(prep, count, active_.data(), r, result);
    for (std::size_t a = 0; a < count; ++a) {
      const std::size_t req = active_[a];
      metrics_.plannedWireSavings += r - target_count_[a];
      metrics_.escalations += target_count_[a] - prep.plan.count[req];
    }
    result.phaseIterations.push_back(iters);
    result.liveTrajectory.push_back(std::move(trajectory));
    result.totalIterations += iters;
    // Cost model: phases that ran zero iterations performed no address
    // computation either — billing addr_cost for them would overcharge.
    if (iters > 0) {
      result.modeledSteps += iters * Policy::coordCost(r) + addr_cost;
    }
  }

  result.values.resize(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    result.values[i] = batch[i].op == mpc::Op::kRead ? fresh_[i].value
                                                     : batch[i].value;
  }
  // Unsatisfiable requests must not leak partial data: a write that missed
  // its quorum aborted its staged copies, and a sub-quorum read may be
  // stale.
  for (const std::size_t i : result.unsatisfiable) result.values[i] = 0;
  return result;
}

AccessResult MajorityEngine::executePrepared(
    const std::vector<AccessRequest>& batch, const PreparedBatch& prep) {
  return runBatch<ClusterPolicy>(batch, prep);
}

AccessResult SingleOwnerEngine::executePrepared(
    const std::vector<AccessRequest>& batch, const PreparedBatch& prep) {
  return runBatch<OwnerPolicy>(batch, prep);
}

}  // namespace dsm::protocol
