// Persistent fork-join worker pool for data-parallel loops over processors.
//
// Design notes (CppCoreGuidelines CP.*): workers are joined scoped containers
// (std::jthread) living for the pool's lifetime — parallelFor dispatches work
// to them through a generation counter instead of spawning threads per call,
// so the per-call overhead is two condition-variable handshakes rather than
// thread creation. No detach, no shared mutable state beyond the
// caller-provided ranges.
//
// A fork must pay for itself: the fork grain (items per participant below
// which a loop runs inline) is calibrated once per process and thread
// budget, when the first pool of that budget is built, from the measured
// overhead of a working fork and the measured per-item cost of a cheap
// sweep (DESIGN.md §9).
//
// Dispatch takes a ParallelBody — a non-owning function_ref (one data pointer
// plus one code pointer) — instead of const std::function&: the per-round
// indirection on the hot path is a single indirect call, with no type-erased
// allocation and no vtable.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace dsm::mpc {

/// Non-owning reference to a `void(std::size_t, std::size_t)` callable (a
/// function_ref): one object pointer and one call thunk, nothing allocated,
/// nothing owned. The referenced callable must outlive every invocation —
/// the pool only calls it inside parallelFor, so passing a temporary lambda
/// at the call site is safe.
class ParallelBody {
 public:
  ParallelBody() = default;

  template <typename F, typename = std::enable_if_t<!std::is_same_v<
                            std::remove_cvref_t<F>, ParallelBody>>>
  // NOLINTNEXTLINE(google-explicit-constructor): implicit like function_ref.
  ParallelBody(F&& f) noexcept
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_(+[](void* obj, std::size_t lo, std::size_t hi) {
          (*static_cast<std::remove_reference_t<F>*>(obj))(lo, hi);
        }) {}

  void operator()(std::size_t lo, std::size_t hi) const { call_(obj_, lo, hi); }
  explicit operator bool() const noexcept { return call_ != nullptr; }

 private:
  void* obj_ = nullptr;
  void (*call_)(void*, std::size_t, std::size_t) = nullptr;
};

/// Fork-join executor with a fixed thread budget. threads == 1 runs inline
/// (the default on single-core hosts); the parallel path slices [0, n) into
/// contiguous chunks, one per participating worker, with the calling thread
/// taking the first chunk. Ranges too small to repay a dispatch run inline
/// regardless of the budget, so dispatch overhead never dominates tiny loops.
class ThreadPool {
 public:
  /// Floor of the fork grain: below this many items per participating
  /// worker a loop never forks, however cheap the host's dispatch is.
  /// Callers must therefore never rely on parallelFor actually forking —
  /// only on body covering [0, n) exactly once via disjoint ranges.
  static constexpr std::size_t kMinItemsPerWorker = 256;

  /// Builds the crew. A pool with workers takes the calibrated fork grain
  /// of its thread budget (measured by the process's first pool of that
  /// budget, then shared); a 1-thread pool never calibrates or forks.
  explicit ThreadPool(unsigned threads = 1);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned threads() const noexcept { return threads_; }

  /// Items per participating worker below which a loop runs inline; fixed
  /// for the pool's lifetime and never below kMinItemsPerWorker.
  std::size_t grain() const noexcept { return grain_; }

  /// Applies body(begin, end) over a partition of [0, n).
  /// body must be safe to run concurrently on disjoint ranges and must not
  /// call back into this pool (no nesting) or throw.
  ///
  /// Partition guarantee: with W = partitionWidth(n) participants and
  /// chunk = ceil(n / W), participant w covers
  /// [w * chunk, min(n, (w + 1) * chunk)), so a caller can count the
  /// chunks a loop ran in from partitionWidth(n) alone.
  void parallelFor(std::size_t n, ParallelBody body);

  /// Number of participants parallelFor(n, body) partitions [0, n) into
  /// (1 = the loop runs inline on the caller). Deterministic in n for a
  /// given pool: capped by the thread budget and by the pool's fork grain.
  std::size_t partitionWidth(std::size_t n) const noexcept;

  static unsigned defaultThreads() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
  }

  /// Test seam: pools built after this call take `grain` (clamped up to
  /// kMinItemsPerWorker) instead of the calibrated grain, so a test forks
  /// exactly where its inputs were sized to fork on any host; 0 restores
  /// calibration. Not thread-safe against concurrent pool construction.
  static void setForkGrainForTesting(std::size_t grain) noexcept;

 private:
  void workerLoop(std::size_t index);
  /// Publishes (n, chunk, body) to the crew and runs chunk 0 inline.
  /// Precondition: chunk * (crew size + 1) >= n, so the fixed per-worker
  /// ranges cover [0, n).
  void dispatch(std::size_t n, std::size_t chunk, ParallelBody body);
  /// Times forked jobs on this pool's crew against the same sweep run
  /// inline, and returns the fork grain they imply.
  std::size_t measureGrain();

  unsigned threads_;
  std::size_t grain_ = kMinItemsPerWorker;
  // Job slot, published under mu_ and consumed by the current generation.
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  ParallelBody body_;
  std::size_t n_ = 0;
  std::size_t chunk_ = 0;
  std::uint64_t gen_ = 0;
  std::size_t pending_ = 0;
  bool stop_ = false;
  std::vector<std::jthread> crew_;  // joins (and thus outlives jobs) last
};

}  // namespace dsm::mpc
