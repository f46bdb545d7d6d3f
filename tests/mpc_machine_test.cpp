#include "dsm/mpc/machine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <string>
#include <utility>

#include "dsm/mpc/arb_sweep.hpp"
#include "dsm/util/assert.hpp"
#include "dsm/util/kernel_dispatch.hpp"
#include "dsm/util/rng.hpp"
#include "oracle/reference_cycle.hpp"

namespace dsm::mpc {
namespace {

TEST(Machine, SingleRequestGranted) {
  Machine m(4, 8);
  std::vector<Request> reqs{{0, 2, 3, Op::kWrite, 42, 1}};
  std::vector<Response> resp;
  m.step(reqs, resp);
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_TRUE(resp[0].granted);
  // kWrite only stages: committed state is untouched until the commit.
  EXPECT_TRUE(m.hasStagedEntry(2, 3));
  EXPECT_EQ(m.peek(2, 3).value, 0u);
  EXPECT_EQ(m.peek(2, 3).timestamp, 0u);
  std::vector<Request> commit{{0, 2, 3, Op::kCommit, 42, 1}};
  m.step(commit, resp);
  EXPECT_TRUE(resp[0].granted);
  EXPECT_FALSE(m.hasStagedEntry(2, 3));
  EXPECT_EQ(m.peek(2, 3).value, 42u);
  EXPECT_EQ(m.peek(2, 3).timestamp, 1u);
  EXPECT_EQ(m.metrics().cycles, 2u);
}

TEST(Machine, OneGrantPerModulePerCycle) {
  Machine m(2, 4);
  // Three processors fight for module 0; processor 1 also hits module 1.
  std::vector<Request> reqs{
      {5, 0, 0, Op::kWrite, 50, 1},
      {2, 0, 1, Op::kWrite, 20, 2},
      {7, 0, 2, Op::kWrite, 70, 3},
      {1, 1, 0, Op::kWrite, 10, 4},
  };
  std::vector<Response> resp;
  m.step(reqs, resp);
  // Module 0: processor 2 (lowest id) wins; module 1: processor 1 wins.
  EXPECT_FALSE(resp[0].granted);
  EXPECT_TRUE(resp[1].granted);
  EXPECT_FALSE(resp[2].granted);
  EXPECT_TRUE(resp[3].granted);
  EXPECT_TRUE(m.hasStagedEntry(0, 1));   // winner staged its write
  EXPECT_FALSE(m.hasStagedEntry(0, 0));  // loser did not even stage
  EXPECT_FALSE(m.hasStagedEntry(0, 2));
  EXPECT_EQ(m.metrics().requestsGranted, 2u);
  EXPECT_EQ(m.metrics().maxModuleQueue, 3u);
}

TEST(Machine, ReadReturnsCellContents) {
  Machine m(1, 2);
  m.poke(0, 1, Cell{99, 7});
  std::vector<Request> reqs{{0, 0, 1, Op::kRead, 0, 0}};
  std::vector<Response> resp;
  m.step(reqs, resp);
  EXPECT_TRUE(resp[0].granted);
  EXPECT_EQ(resp[0].value, 99u);
  EXPECT_EQ(resp[0].timestamp, 7u);
}

TEST(Machine, SparseStorageUnboundedSlots) {
  Machine m(4, 0);  // sparse
  m.poke(3, 123456789ULL, Cell{5, 1});
  EXPECT_EQ(m.peek(3, 123456789ULL).value, 5u);
  EXPECT_EQ(m.peek(3, 42).value, 0u);  // untouched cells read zero
}

TEST(Machine, AddressRangeChecked) {
  Machine m(4, 8);
  EXPECT_THROW(m.peek(4, 0), util::CheckError);
  EXPECT_THROW(m.peek(0, 8), util::CheckError);
  std::vector<Request> reqs{{0, 9, 0, Op::kRead, 0, 0}};
  std::vector<Response> resp;
  EXPECT_THROW(m.step(reqs, resp), util::CheckError);
}

TEST(Machine, ArbitrationDeterministicAcrossThreadCounts) {
  // Same request stream, different worker counts: identical grants, cells
  // and metrics (the atomic-min winner is schedule-independent).
  util::Xoshiro256 rng(11);
  std::vector<std::vector<Request>> stream;
  for (int cyc = 0; cyc < 30; ++cyc) {
    std::vector<Request> reqs;
    const int n = 1 + static_cast<int>(rng.below(64));
    for (int i = 0; i < n; ++i) {
      reqs.push_back(Request{static_cast<std::uint32_t>(rng.below(1000)),
                             rng.below(16), rng.below(4),
                             rng.below(2) ? Op::kWrite : Op::kRead,
                             rng.below(1000), rng.below(1000) + 1});
    }
    stream.push_back(std::move(reqs));
  }
  auto run = [&stream](unsigned threads) {
    Machine m(16, 4, threads);
    std::vector<std::vector<Response>> all;
    std::vector<Response> resp;
    for (const auto& reqs : stream) {
      m.step(reqs, resp);
      all.push_back(resp);
    }
    std::vector<Cell> cells;
    for (std::uint64_t mod = 0; mod < 16; ++mod) {
      for (std::uint64_t s = 0; s < 4; ++s) cells.push_back(m.peek(mod, s));
    }
    return std::make_tuple(all, cells, m.metrics());
  };
  const auto [r1, c1, m1] = run(1);
  for (unsigned t : {2u, 4u, 8u}) {
    const auto [rt, ct, mt] = run(t);
    EXPECT_TRUE(rt == r1) << t << " threads";
    for (std::size_t i = 0; i < c1.size(); ++i) {
      EXPECT_EQ(ct[i].value, c1[i].value);
      EXPECT_EQ(ct[i].timestamp, c1[i].timestamp);
    }
    EXPECT_EQ(mt.requestsGranted, m1.requestsGranted);
    EXPECT_EQ(mt.maxModuleQueue, m1.maxModuleQueue);
  }
}

TEST(ArbMinSweep, MatchesSerialMinOnAllShapes) {
  // The branch-free 4-way sweep must equal a plain serial min for every
  // count shape (tail lengths 0..3 around the unroll) and for minima at
  // every position, including duplicates of the non-minimal values.
  util::Xoshiro256 rng(0xA5B);
  for (std::size_t count = 1; count <= 70; ++count) {
    std::vector<std::uint64_t> keys(count);
    for (std::size_t pos = 0; pos < count; ++pos) {
      for (std::size_t i = 0; i < count; ++i) {
        keys[i] = 1 + rng.below(i % 3 == 0 ? 4 : ~0ULL - 1);
      }
      keys[pos] = 0;  // unique minimum at pos
      EXPECT_EQ(arbMinSweep(keys.data(), count), 0u)
          << "count=" << count << " pos=" << pos;
      keys[pos] = rng.below(~0ULL);
      const std::uint64_t want =
          *std::min_element(keys.begin(), keys.end());
      EXPECT_EQ(arbMinSweep(keys.data(), count), want) << "count=" << count;
    }
  }
  // All-max input (the accumulator sentinel value must still be returned).
  std::vector<std::uint64_t> all_max(9, ~0ULL);
  EXPECT_EQ(arbMinSweep(all_max.data(), all_max.size()), ~0ULL);
}

TEST(Machine, ShardedStepFirstOffenderMatchesSerial) {
  // Invalid addresses on the sharded path must report the lowest offending
  // wire index (stable counting sort puts it first in the overflow bucket),
  // exactly like the serial sweep, and must not poison later cycles.
  std::vector<Request> reqs;
  for (int i = 0; i < 700; ++i) {
    reqs.push_back(Request{static_cast<std::uint32_t>(i),
                           static_cast<std::uint64_t>(i % 16), 0, Op::kWrite,
                           1, 1});
  }
  reqs[321].module = 99;  // first offender (bad module)
  reqs[450].slot = 99;    // later offender (bad slot)
  std::string sharded_msg;
  std::string serial_msg;
  Machine sharded(16, 8, 4);
  Machine serial(16, 8, 1);
  std::vector<Response> resp;
  try {
    sharded.step(reqs, resp);
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& e) {
    sharded_msg = e.what();
  }
  try {
    serial.step(reqs, resp);
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& e) {
    serial_msg = e.what();
  }
  EXPECT_EQ(sharded_msg, serial_msg);
  EXPECT_NE(sharded_msg.find("module out of range"), std::string::npos)
      << sharded_msg;
  // Machine stays usable after the unwind.
  std::vector<Request> good{{3, 0, 0, Op::kWrite, 7, 2}};
  sharded.step(good, resp);
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_TRUE(resp[0].granted);
}

// Table-driven differential oracle: every step() cycle path — serial
// fused, atomic-min, module-sharded, and sharded on the forced-scalar
// arbitration walk — against the five-pass ReferenceCycle, on dense and
// sparse storage, healthy and under a fail/heal script with grant drops.
// Random all-op streams; every Response field, cell, staged entry,
// deterministic metric, the lifetime clock and the per-module load must be
// bit-identical. Each row checks through the public predicates that step()
// really takes its path for every wire it runs; the tests below each run
// the rows of one path.
enum class CyclePath { kSerialFused, kAtomicMin, kSharded };

struct CyclePathRow {
  const char* name;
  CyclePath path;
  std::uint64_t modules;
  std::uint64_t targeted;  // the wire hits modules [0, targeted)
  unsigned threads;
  std::size_t min_wire;  // wire length drawn from [min_wire, max_wire)
  std::size_t max_wire;
  bool force_scalar;
};

constexpr CyclePathRow kCyclePathRows[] = {
    {"serial-fused/1-thread", CyclePath::kSerialFused, 8, 8, 1, 0, 1024,
     false},
    // Below the fork grain a 4-thread pool runs sweep 1 inline too.
    {"serial-fused/small-wire", CyclePath::kSerialFused, 8, 8, 4, 0, 512,
     false},
    {"atomic-min", CyclePath::kAtomicMin, 4096, 64, 4, 512, 1024, false},
    {"sharded", CyclePath::kSharded, 16, 16, 4, 512, 1024, false},
    {"sharded/force-scalar", CyclePath::kSharded, 16, 16, 4, 512, 1024, true},
};

void expectRowMatchesReference(const CyclePathRow& row) {
  constexpr Op kOps[] = {Op::kRead, Op::kWrite, Op::kCommit, Op::kAbort,
                         Op::kRepair};
  constexpr std::uint64_t kSlots = 8;
  for (const bool sparse : {false, true}) {
    for (const bool faulty : {false, true}) {
      SCOPED_TRACE(std::string(row.name) + (sparse ? " sparse" : " dense") +
                   (faulty ? " faulty" : " healthy"));
      util::Xoshiro256 rng(faulty ? 0xFACADE : 0xDECADE);
      Machine fast(row.modules, sparse ? 0 : kSlots, row.threads);
      Machine ref(row.modules, sparse ? 0 : kSlots, row.threads);
      ReferenceCycle oracle(ref);
      fast.enableLoadTracking();
      ref.enableLoadTracking();
      if (faulty) {
        FaultPlan plan;
        plan.failAt(5, 2).healAt(20, 2).transientAt(30, 6, 4);
        plan.grantDropProbability = 0.2;
        plan.seed = 7;
        fast.setFaultPlan(plan);
        ref.setFaultPlan(plan);
      }
      std::uint64_t failed_requests = 0;
      std::vector<Response> fast_resp;
      std::vector<Response> ref_resp;
      for (int cyc = 0; cyc < 40; ++cyc) {
        const std::size_t n = static_cast<std::size_t>(
            row.min_wire + rng.below(row.max_wire - row.min_wire));
        std::vector<Request> reqs;
        for (std::size_t i = 0; i < n; ++i) {
          reqs.push_back(Request{static_cast<std::uint32_t>(rng.below(256)),
                                 rng.below(row.targeted), rng.below(kSlots),
                                 kOps[rng.below(5)], rng.below(100),
                                 rng.below(8)});
        }
        const bool forks = fast.pool().partitionWidth(n) > 1;
        const bool dense_wire = fast.moduleCount() < n;
        switch (row.path) {
          case CyclePath::kSerialFused:
            ASSERT_FALSE(forks) << "n=" << n;
            break;
          case CyclePath::kAtomicMin:
            ASSERT_TRUE(forks && !dense_wire) << "n=" << n;
            break;
          case CyclePath::kSharded:
            ASSERT_TRUE(forks && dense_wire) << "n=" << n;
            break;
        }
        // The seam is read once per step on this (serial) thread, so
        // toggling it around one machine's step is the safe pattern.
        if (row.force_scalar) util::setForceScalarForTesting(true);
        fast.step(reqs, fast_resp);
        util::clearForceScalarOverride();
        oracle.step(reqs, ref_resp);
        ASSERT_EQ(fast_resp.size(), ref_resp.size());
        for (std::size_t i = 0; i < n; ++i) {
          const Response& got = fast_resp[i];
          const Response& want = ref_resp[i];
          ASSERT_EQ(got.granted, want.granted) << "cyc=" << cyc << " i=" << i;
          ASSERT_EQ(got.moduleFailed, want.moduleFailed) << "cyc=" << cyc;
          ASSERT_EQ(got.value, want.value) << "cyc=" << cyc << " i=" << i;
          ASSERT_EQ(got.timestamp, want.timestamp) << "cyc=" << cyc;
          ASSERT_EQ(got.dropped, want.dropped) << "cyc=" << cyc << " i=" << i;
          failed_requests += got.moduleFailed;
        }
      }
      for (std::uint64_t mod = 0; mod < row.targeted; ++mod) {
        for (std::uint64_t s = 0; s < kSlots; ++s) {
          EXPECT_EQ(fast.peek(mod, s).value, oracle.peek(mod, s).value);
          EXPECT_EQ(fast.peek(mod, s).timestamp, oracle.peek(mod, s).timestamp);
          EXPECT_EQ(fast.hasStagedEntry(mod, s), oracle.hasStagedEntry(mod, s));
        }
      }
      const MachineMetrics& got = fast.metrics();
      const MachineMetrics& want = ref.metrics();
      EXPECT_EQ(got.cycles, want.cycles);
      EXPECT_EQ(got.requestsIssued, want.requestsIssued);
      EXPECT_EQ(got.requestsGranted, want.requestsGranted);
      EXPECT_EQ(got.maxModuleQueue, want.maxModuleQueue);
      EXPECT_EQ(got.grantsDropped, want.grantsDropped);
      EXPECT_EQ(got.networkCycles, want.networkCycles);
      EXPECT_EQ(got.networkPackets, want.networkPackets);
      EXPECT_EQ(got.networkMaxQueue, want.networkMaxQueue);
      EXPECT_EQ(got.networkIdealCycles, want.networkIdealCycles);
      EXPECT_EQ(got.networkStretch, want.networkStretch);
      EXPECT_EQ(fast.lifetimeCycles(), ref.lifetimeCycles());
      EXPECT_EQ(fast.moduleLoad(), ref.moduleLoad());
      // The fault script and the drop noise genuinely ran.
      EXPECT_EQ(failed_requests > 0, faulty);
      EXPECT_EQ(got.grantsDropped > 0, faulty);
    }
  }
}

// Runs every table row on `path` whose forced-scalar flag is `force_scalar`.
void expectPathMatchesReference(CyclePath path, bool force_scalar) {
  int rows_run = 0;
  for (const CyclePathRow& row : kCyclePathRows) {
    if (row.path != path || row.force_scalar != force_scalar) continue;
    expectRowMatchesReference(row);
    ++rows_run;
  }
  EXPECT_GT(rows_run, 0);
}

// Serial fused sweeps: one-thread pool, and small wires on a 4-thread pool.
TEST(Machine, StepMatchesReferenceOnRandomStreams) {
  expectPathMatchesReference(CyclePath::kSerialFused, false);
}

TEST(Machine, AtomicMinStepMatchesReference) {
  expectPathMatchesReference(CyclePath::kAtomicMin, false);
}

TEST(Machine, ShardedStepMatchesReferenceOnSaturatedStreams) {
  expectPathMatchesReference(CyclePath::kSharded, false);
}

// The forced-scalar walk matches the same oracle as the vectorized sharded
// rows, so the two are bit-identical to each other.
TEST(Machine, ShardedStepIdenticalUnderForceScalar) {
  expectPathMatchesReference(CyclePath::kSharded, true);
}

// The oracle keeps its own staged and sparse tables, so it refuses a
// machine whose lifetime clock it did not advance itself.
TEST(Machine, ReferenceCycleRefusesAMachineStepAdvanced) {
  Machine m(4, 0);
  ReferenceCycle ref(m);
  ref.poke(1, 7, Cell{5, 1});
  const std::vector<Request> read{{0, 1, 7, Op::kRead, 0, 0}};
  std::vector<Response> resp;
  ref.step(read, resp);
  EXPECT_EQ(resp[0].value, 5u);
  m.step(read, resp);
  EXPECT_EQ(resp[0].value, 0u);  // the machine's own table never saw it
  EXPECT_THROW(ref.step(read, resp), util::CheckError);
  EXPECT_THROW(ref.peek(1, 7), util::CheckError);
  EXPECT_THROW(ReferenceCycle(m).step(read, resp), util::CheckError);
}

TEST(Machine, StepUsableAfterAddressThrow) {
  // The fused sweep records the first bad index and resets the scratch it
  // touched before re-raising, so a failed step must not poison the next.
  Machine m(4, 8);
  std::vector<Request> bad{
      {0, 0, 0, Op::kWrite, 1, 1},   // valid, touches module 0 scratch
      {1, 9, 0, Op::kRead, 0, 0},    // bad module — first offender
      {2, 0, 99, Op::kRead, 0, 0},   // bad slot, later index
  };
  std::vector<Response> resp;
  EXPECT_THROW(m.step(bad, resp), util::CheckError);
  EXPECT_EQ(m.metrics().cycles, 0u);  // failed cycle consumed no time
  // Arbitration scratch must be clean: a lone low-priority processor wins
  // module 0 outright and contention counts start from zero again.
  std::vector<Request> good{{3, 0, 0, Op::kWrite, 7, 2}};
  m.step(good, resp);
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_TRUE(resp[0].granted);
  EXPECT_EQ(m.metrics().maxModuleQueue, 1u);
  EXPECT_TRUE(m.hasStagedEntry(0, 0));
}

TEST(Machine, EmptyStepIsFree) {
  Machine m(2, 2);
  std::vector<Request> reqs;
  std::vector<Response> resp{{true, 1, 1}};
  m.step(reqs, resp);
  EXPECT_TRUE(resp.empty());
  EXPECT_EQ(m.metrics().cycles, 0u);
}

TEST(Machine, MetricsAccumulateAndReset) {
  Machine m(2, 2);
  std::vector<Request> reqs{{0, 0, 0, Op::kWrite, 1, 1},
                            {1, 0, 0, Op::kWrite, 2, 2}};
  std::vector<Response> resp;
  m.step(reqs, resp);
  m.step(reqs, resp);
  EXPECT_EQ(m.metrics().cycles, 2u);
  EXPECT_EQ(m.metrics().requestsIssued, 4u);
  EXPECT_EQ(m.metrics().requestsGranted, 2u);
  m.resetMetrics();
  EXPECT_EQ(m.metrics().cycles, 0u);
}

TEST(ThreadPool, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallelFor(1000, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PersistentWorkersSurviveManyDispatches) {
  // The pool keeps its workers across calls; hammer it with jobs of mixed
  // sizes (including sub-grain ones that run inline) and check coverage.
  ThreadPool pool(4);
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{3000}, std::size_t{17},
        std::size_t{4096}, std::size_t{257}, std::size_t{100000}}) {
    std::atomic<std::size_t> total{0};
    pool.parallelFor(n, [&](std::size_t lo, std::size_t hi) {
      total.fetch_add(hi - lo, std::memory_order_relaxed);
    });
    EXPECT_EQ(total.load(), n) << "n=" << n;
  }
}

TEST(ThreadPool, SmallRangesRunInlineOnCallingThread) {
  // Below the grain the body must run on the dispatching thread (no
  // handshake cost); verify via thread identity.
  ThreadPool pool(8);
  const auto self = std::this_thread::get_id();
  std::thread::id seen;
  pool.parallelFor(ThreadPool::kMinItemsPerWorker - 1,
                   [&](std::size_t, std::size_t) {
                     seen = std::this_thread::get_id();
                   });
  EXPECT_EQ(seen, self);
}

TEST(ThreadPool, HandlesSmallRanges) {
  ThreadPool pool(8);
  int count = 0;
  pool.parallelFor(0, [&](std::size_t, std::size_t) { ++count; });
  EXPECT_EQ(count, 0);
  std::atomic<int> total{0};
  pool.parallelFor(3, [&](std::size_t lo, std::size_t hi) {
    total.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(total.load(), 3);
}

TEST(ThreadPool, CalibratedGrainIsAtLeastTheFloorAndFixedPerPool) {
  // The test binary pins the grain; lift the pin to see calibration.
  ThreadPool::setForkGrainForTesting(0);
  ThreadPool calibrated(2);
  ThreadPool again(2);
  ThreadPool wider(3);
  ThreadPool::setForkGrainForTesting(ThreadPool::kMinItemsPerWorker);
  const std::size_t grain = calibrated.grain();
  EXPECT_GE(grain, ThreadPool::kMinItemsPerWorker);
  // Measured once per process and thread budget: a later pool of the same
  // budget shares the grain; another budget has its own, also floored.
  EXPECT_EQ(again.grain(), grain);
  EXPECT_GE(wider.grain(), ThreadPool::kMinItemsPerWorker);
  EXPECT_EQ(calibrated.partitionWidth(2 * grain - 1), 1u);
  EXPECT_EQ(calibrated.partitionWidth(2 * grain), 2u);
  std::atomic<std::size_t> total{0};
  calibrated.parallelFor(2 * grain, [&](std::size_t lo, std::size_t hi) {
    total.fetch_add(hi - lo, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), 2 * grain);
  // Pools built under the pin keep it; a 1-thread pool never forks.
  EXPECT_EQ(ThreadPool(4).grain(), ThreadPool::kMinItemsPerWorker);
  ThreadPool serial(1);
  EXPECT_EQ(serial.partitionWidth(std::size_t{1} << 30), 1u);
}

TEST(ThreadPool, ShardsCoverEveryBucketExactlyOnce) {
  // Skewed bucket sizes (including empty buckets and one huge bucket): the
  // shard cuts land on bucket boundaries, every bucket index is visited by
  // exactly one body call, and calls tile [0, buckets) in order.
  ThreadPool pool(4);
  constexpr std::size_t kBuckets = 37;
  std::vector<std::size_t> bounds(kBuckets + 1, 0);
  util::Xoshiro256 rng(99);
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const std::size_t size = b == 5    ? 4000  // dominates everything
                             : b % 3 == 0 ? 0  // empty
                                          : rng.below(64);
    bounds[b + 1] = bounds[b] + size;
  }
  std::vector<std::atomic<int>> hits(kBuckets);
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  pool.parallelForShards(bounds.data(), kBuckets,
                         [&](std::size_t lo, std::size_t hi) {
                           for (std::size_t b = lo; b < hi; ++b) {
                             hits[b].fetch_add(1, std::memory_order_relaxed);
                           }
                           std::lock_guard<std::mutex> lock(mu);
                           ranges.emplace_back(lo, hi);
                         });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  std::sort(ranges.begin(), ranges.end());
  std::size_t next = 0;
  for (const auto& [lo, hi] : ranges) {
    EXPECT_EQ(lo, next);
    EXPECT_LE(lo, hi);
    next = hi;
  }
  EXPECT_EQ(next, kBuckets);
}

TEST(ThreadPool, ShardsRunInlineBelowGrain) {
  // Totals below the fork grain collapse to one inline call over all
  // buckets on the dispatching thread.
  ThreadPool pool(8);
  const std::size_t bounds[] = {0, 10, 20, 30};
  const auto self = std::this_thread::get_id();
  std::thread::id seen;
  int calls = 0;
  pool.parallelForShards(bounds, 3, [&](std::size_t lo, std::size_t hi) {
    seen = std::this_thread::get_id();
    ++calls;
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, 3u);
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen, self);
  // Zero buckets: the body must not run at all.
  const std::size_t none[] = {0};
  int ran = 0;
  pool.parallelForShards(none, 0, [&](std::size_t, std::size_t) { ++ran; });
  EXPECT_EQ(ran, 0);
}

}  // namespace
}  // namespace dsm::mpc
