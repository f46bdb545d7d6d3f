#include "dsm/mpc/thread_pool.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <mutex>
#include <numeric>
#include <vector>

namespace dsm::mpc {

namespace {

// Grain pinned through setForkGrainForTesting (0: calibrate).
std::atomic<std::size_t> g_pinned_grain{0};

// Calibrated grains by thread budget, guarded by g_grains_mu: a dispatch
// wakes and joins the whole crew, so the cost of a fork (and the grain)
// depends on the crew's size.
std::mutex g_grains_mu;
std::map<unsigned, std::size_t>& calibratedGrains() {
  static std::map<unsigned, std::size_t> grains;
  return grains;
}

// The calibration's cheap sweep: a counting pass (load a key, bump its
// bucket), cheaper per item than the loops the pool runs (DESIGN.md §9).
// `counts` holds kSweepBuckets entries.
constexpr std::size_t kSweepBuckets = 1024;

void countingSweep(const std::vector<std::uint32_t>& keys,
                   std::uint32_t* counts) {
  for (const std::uint32_t k : keys) ++counts[k & (kSweepBuckets - 1)];
}

}  // namespace

ThreadPool::ThreadPool(unsigned threads)
    : threads_(threads == 0 ? defaultThreads() : threads) {
  // The calling thread participates in every job, so a budget of T needs
  // T - 1 persistent workers; a budget of 1 needs none and runs inline.
  if (threads_ == 1) return;
  crew_.reserve(threads_ - 1);
  for (unsigned w = 0; w + 1 < threads_; ++w) {
    crew_.emplace_back([this, w] { workerLoop(w); });
  }
  const std::size_t pinned = g_pinned_grain.load(std::memory_order_relaxed);
  if (pinned != 0) {
    grain_ = std::max(pinned, kMinItemsPerWorker);
    return;
  }
  // Measured once per process and thread budget, on the crew of the first
  // pool of that budget.
  const std::lock_guard<std::mutex> lk(g_grains_mu);
  const auto [it, fresh] = calibratedGrains().try_emplace(threads_, 0);
  if (fresh) it->second = measureGrain();
  grain_ = it->second;
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  // crew_ jthreads join on destruction (scoped-container discipline).
}

void ThreadPool::setForkGrainForTesting(std::size_t grain) noexcept {
  g_pinned_grain.store(grain, std::memory_order_relaxed);
}

void ThreadPool::workerLoop(std::size_t index) {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lk(mu_);
  while (true) {
    cv_work_.wait(lk, [&] { return stop_ || gen_ != seen; });
    if (stop_) return;
    seen = gen_;
    const ParallelBody body = body_;  // two pointers, copied under the lock
    // Chunk 0 belongs to the dispatching thread; worker i takes chunk i+1.
    const std::size_t begin = (index + 1) * chunk_;
    const std::size_t end = std::min(n_, begin + chunk_);
    lk.unlock();
    if (begin < end) body(begin, end);
    lk.lock();
    if (--pending_ == 0) cv_done_.notify_one();
  }
}

void ThreadPool::dispatch(std::size_t n, std::size_t chunk,
                          ParallelBody body) {
  {
    const std::lock_guard<std::mutex> lk(mu_);
    body_ = body;
    n_ = n;
    chunk_ = chunk;
    pending_ = crew_.size();
    ++gen_;
  }
  cv_work_.notify_all();
  body(0, std::min(n, chunk));  // the dispatching thread takes chunk 0
  std::unique_lock<std::mutex> lk(mu_);
  cv_done_.wait(lk, [&] { return pending_ == 0; });
  body_ = ParallelBody{};
}

// A fork of W participants with chunks of c items costs the caller its own
// chunk plus the fork's overhead (waking and joining the whole crew, and
// waiting for the slowest participant), where running inline costs W
// chunks; it pays once (W - 1) * c * item > overhead, so at width 2 the
// break-even chunk is overhead / item: the grain. Both figures come from
// a counting sweep. The per-item cost is the best of several inline
// sweeps; the overhead is the median, after a warm-up that absorbs the
// workers' start-up, of a job in which every participant sweeps kItems
// items, less one inline sweep. Timing a working job rather than a no-op
// prices what the scheduler does with a fork: a worker woken onto the
// dispatcher's own CPU runs its chunk after the dispatcher's, not beside
// it, and that shows up as overhead. The real loops cost more per item
// than the counting sweep, so the grain errs towards running inline.
// About 20 jobs of a few µs each: well under 1 ms.
std::size_t ThreadPool::measureGrain() {
  using Clock = std::chrono::steady_clock;
  const auto ns_since = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
  };
  constexpr std::size_t kItems = 16384;
  std::vector<std::uint32_t> keys(kItems);
  for (std::size_t i = 0; i < kItems; ++i) {
    keys[i] = static_cast<std::uint32_t>(i * 2654435761u >> 7);
  }
  // One bucket array per participant, so the forked sweeps share nothing.
  std::vector<std::uint32_t> counts(threads_ * kSweepBuckets, 0);
  double item_ns = 1e18;
  for (int rep = 0; rep < 8; ++rep) {
    const Clock::time_point t0 = Clock::now();
    countingSweep(keys, counts.data());
    item_ns = std::min(item_ns, ns_since(t0) / kItems);
  }

  const auto sweep = [&](std::size_t lo, std::size_t) {
    countingSweep(keys, &counts[lo / kItems * kSweepBuckets]);
  };
  constexpr int kWarmUp = 4;
  std::array<double, 15> jobs{};
  for (int t = 0; t < kWarmUp + static_cast<int>(jobs.size()); ++t) {
    const Clock::time_point t0 = Clock::now();
    dispatch(threads_ * kItems, kItems, sweep);
    if (t >= kWarmUp) {
      jobs[static_cast<std::size_t>(t - kWarmUp)] = ns_since(t0);
    }
  }
  // Reading the counts back keeps every sweep's stores live.
  [[maybe_unused]] const volatile std::uint64_t checksum =
      std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
  std::nth_element(jobs.begin(), jobs.begin() + jobs.size() / 2, jobs.end());
  const double overhead_ns =
      std::max(0.0, jobs[jobs.size() / 2] - item_ns * kItems);
  const double grain = std::ceil(overhead_ns / std::max(item_ns, 0.01));
  return std::max(kMinItemsPerWorker, static_cast<std::size_t>(grain));
}

std::size_t ThreadPool::partitionWidth(std::size_t n) const noexcept {
  if (n == 0 || crew_.empty()) return 1;
  // Cap the fork width so every participant's slice repays the dispatch.
  const std::size_t by_grain = std::max<std::size_t>(1, n / grain_);
  return std::min<std::size_t>({threads_, n, by_grain});
}

void ThreadPool::parallelFor(std::size_t n, ParallelBody body) {
  if (n == 0) return;
  const std::size_t workers = partitionWidth(n);
  if (workers <= 1) {
    body(0, n);
    return;
  }
  dispatch(n, (n + workers - 1) / workers, body);
}

}  // namespace dsm::mpc
