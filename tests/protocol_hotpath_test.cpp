// Hot-path equivalence: the persistent-wire engines (incremental wire
// compaction + fused two-sweep Machine::step) must be bit-identical to the
// reference engines (from-scratch wire build + five-pass reference cycle) on
// multi-batch streams — values, iteration counts, live trajectories and
// fault counters — fault-free and under a FaultPlan, at 1 and many threads.
#include <gtest/gtest.h>

#include "dsm/protocol/engines.hpp"
#include "dsm/scheme/baselines.hpp"
#include "dsm/scheme/pp_scheme.hpp"
#include "dsm/util/rng.hpp"
#include "dsm/workload/generators.hpp"
#include "oracle/reference_engine.hpp"
#include "result_compare.hpp"

namespace dsm::protocol {
namespace {

struct MachineTally {
  std::uint64_t cycles, issued, granted, queue, dropped;

  bool operator==(const MachineTally&) const = default;
};

MachineTally tally(const mpc::Machine& m) {
  const mpc::MachineMetrics& mm = m.metrics();
  return {mm.cycles, mm.requestsIssued, mm.requestsGranted,
          mm.maxModuleQueue, mm.grantsDropped};
}

// Engine-side counters: every wire request and every fault-path counter
// must match the reference engine's exactly.
void expectSameEngineMetrics(const EngineMetrics& got,
                             const EngineMetrics& want, const char* what) {
  EXPECT_EQ(got.wireRequests, want.wireRequests) << what;
  const FaultMetrics& g = got.faults;
  const FaultMetrics& w = want.faults;
  EXPECT_EQ(g.deadCopies, w.deadCopies) << what;
  EXPECT_EQ(g.stagedAborted, w.stagedAborted) << what;
  EXPECT_EQ(g.repairsPerformed, w.repairsPerformed) << what;
  EXPECT_EQ(g.commitsLost, w.commitsLost) << what;
  EXPECT_EQ(g.abortsLost, w.abortsLost) << what;
  EXPECT_EQ(g.unsatisfiable, w.unsatisfiable) << what;
  EXPECT_EQ(g.degradedQuorum, w.degradedQuorum) << what;
}

std::vector<std::vector<AccessRequest>> makeStream(std::uint64_t vars_total,
                                                   std::size_t batch_size,
                                                   std::uint64_t seed) {
  // Write batches re-visit hot variables so later reads see committed state
  // and the staged tables churn across batches.
  util::Xoshiro256 rng(seed);
  std::vector<std::vector<AccessRequest>> stream;
  for (int b = 0; b < 6; ++b) {
    const auto vars = workload::randomDistinct(vars_total, batch_size, rng);
    switch (b % 3) {
      case 0:
        stream.push_back(workload::makeWrites(vars, b * 500));
        break;
      case 1:
        stream.push_back(workload::makeReads(vars));
        break;
      default:
        stream.push_back(workload::makeMixed(vars, 0.5, rng));
        break;
    }
  }
  return stream;
}

mpc::FaultPlan dropsAndOutages(std::uint64_t modules) {
  mpc::FaultPlan plan;
  plan.grantDropProbability = 0.15;
  plan.seed = 12345;
  // Outages keyed on lifetime cycles: they land mid-protocol, while both
  // engines are iterating, and heal before the quorum is unreachable long
  // enough to flip results (majority tolerates one dead copy).
  plan.transientAt(3, 1 % modules, 4);
  plan.transientAt(10, 5 % modules, 3);
  return plan;
}

TEST(HotPath, MajorityEngineMatchesReference) {
  const scheme::PpScheme s(1, 7);
  const auto stream = makeStream(s.numVariables(), 1024, 0xABCD);
  for (const bool faulty : {false, true}) {
    for (const unsigned threads : {1u, 4u}) {
      mpc::Machine fast_m(s.numModules(), s.slotsPerModule(), threads);
      mpc::Machine ref_m(s.numModules(), s.slotsPerModule(), threads);
      if (faulty) {
        fast_m.setFaultPlan(dropsAndOutages(s.numModules()));
        ref_m.setFaultPlan(dropsAndOutages(s.numModules()));
      }
      MajorityEngine fast(s, fast_m);
      ReferenceMajorityEngine ref(s, ref_m);
      const auto got = fast.executeStream(stream);
      const auto want = ref.executeStream(stream);
      expectSameResults(got, want,
                        faulty ? "majority/faulty" : "majority/clean");
      expectSameEngineMetrics(fast.metrics(), ref.metrics(),
                              faulty ? "majority/faulty" : "majority/clean");
      // The two machines must have run the exact same wire cycle for cycle:
      // same grants, same contention peaks, same dropped grants.
      EXPECT_EQ(tally(fast_m), tally(ref_m)) << "faulty=" << faulty;
    }
  }
}

TEST(HotPath, SingleOwnerEngineMatchesReference) {
  const scheme::MvScheme s(40000, 255, 3);
  const auto stream = makeStream(s.numVariables(), 1024, 0xBEEF);
  for (const bool faulty : {false, true}) {
    for (const unsigned threads : {1u, 4u}) {
      mpc::Machine fast_m(s.numModules(), s.slotsPerModule(), threads);
      mpc::Machine ref_m(s.numModules(), s.slotsPerModule(), threads);
      if (faulty) {
        fast_m.setFaultPlan(dropsAndOutages(s.numModules()));
        ref_m.setFaultPlan(dropsAndOutages(s.numModules()));
      }
      SingleOwnerEngine fast(s, fast_m);
      ReferenceSingleOwnerEngine ref(s, ref_m);
      const auto got = fast.executeStream(stream);
      const auto want = ref.executeStream(stream);
      expectSameResults(got, want,
                        faulty ? "owner/faulty" : "owner/clean");
      expectSameEngineMetrics(fast.metrics(), ref.metrics(),
                              faulty ? "owner/faulty" : "owner/clean");
      EXPECT_EQ(tally(fast_m), tally(ref_m)) << "faulty=" << faulty;
    }
  }
}

TEST(HotPath, MajorityMatchesReferenceUnderScriptedFailures) {
  // Hard failures (not just drops) mid-stream: the persistent wire must
  // retire moduleFailed entries exactly like the from-scratch rebuild, and
  // the healed module's stale copies must lose in both engines alike.
  const scheme::PpScheme s(1, 7);
  const auto stream = makeStream(s.numVariables(), 512, 0x5EED);
  auto scripted = [&] {
    mpc::FaultPlan plan;
    plan.failAt(2, 3).healAt(40, 3);
    plan.failAt(15, 11 % s.numModules()).healAt(60, 11 % s.numModules());
    return plan;
  };
  for (const unsigned threads : {1u, 4u}) {
    mpc::Machine fast_m(s.numModules(), s.slotsPerModule(), threads);
    mpc::Machine ref_m(s.numModules(), s.slotsPerModule(), threads);
    fast_m.setFaultPlan(scripted());
    ref_m.setFaultPlan(scripted());
    MajorityEngine fast(s, fast_m);
    ReferenceMajorityEngine ref(s, ref_m);
    expectSameResults(fast.executeStream(stream), ref.executeStream(stream),
                      "majority/scripted");
    expectSameEngineMetrics(fast.metrics(), ref.metrics(),
                            "majority/scripted");
    EXPECT_EQ(tally(fast_m), tally(ref_m)) << "threads=" << threads;
  }
}

TEST(HotPath, SingleOwnerMatchesReferenceUnderScriptedFailures) {
  // The Majority script's hard failures plus 10 % grant drops on the
  // one-message-per-round owner: dead copies mid-acquire and mid-commit,
  // unsatisfiable requests and staged aborts must all match the
  // from-scratch reference.
  const scheme::MvScheme s(40000, 255, 3);
  const auto stream = makeStream(s.numVariables(), 512, 0x5EED);
  auto scripted = [&] {
    mpc::FaultPlan plan;
    plan.failAt(2, 3).healAt(40, 3);
    plan.failAt(15, 11 % s.numModules()).healAt(60, 11 % s.numModules());
    plan.grantDropProbability = 0.1;
    return plan;
  };
  for (const unsigned threads : {1u, 4u}) {
    mpc::Machine fast_m(s.numModules(), s.slotsPerModule(), threads);
    mpc::Machine ref_m(s.numModules(), s.slotsPerModule(), threads);
    fast_m.setFaultPlan(scripted());
    ref_m.setFaultPlan(scripted());
    SingleOwnerEngine fast(s, fast_m);
    ReferenceSingleOwnerEngine ref(s, ref_m);
    expectSameResults(fast.executeStream(stream), ref.executeStream(stream),
                      "owner/scripted");
    expectSameEngineMetrics(fast.metrics(), ref.metrics(), "owner/scripted");
    EXPECT_EQ(tally(fast_m), tally(ref_m)) << "threads=" << threads;
    // The script genuinely reaches the fault paths the scan handles.
    const FaultMetrics& fm = fast.metrics().faults;
    EXPECT_GT(fm.deadCopies, 0u);
    EXPECT_GT(fm.unsatisfiable, 0u);
    EXPECT_GT(fm.commitsLost, 0u);
    EXPECT_GT(fm.stagedAborted, 0u);
  }
}

template <class Engine, class Scheme>
void expectStreamMatchesPerBatch(const Scheme& s,
                                 std::uint64_t stream_seed) {
  // The pipelined executeStream (batch k+1's addressing overlapped with
  // batch k's wire rounds) must be byte-identical to feeding the same
  // batches one execute() at a time to a fresh engine: same values, same
  // trajectories, same machine wire history. The fault plan keys drops and
  // outages on lifetime cycles, so any divergence in cycle order shows up
  // as a different tally or different values.
  const auto stream = makeStream(s.numVariables(), 768, stream_seed);
  for (const unsigned threads : {1u, mpc::ThreadPool::defaultThreads()}) {
    mpc::Machine stream_m(s.numModules(), s.slotsPerModule(), threads);
    mpc::Machine batch_m(s.numModules(), s.slotsPerModule(), threads);
    stream_m.setFaultPlan(dropsAndOutages(s.numModules()));
    batch_m.setFaultPlan(dropsAndOutages(s.numModules()));
    Engine streamed(s, stream_m);
    Engine batched(s, batch_m);
    const auto got = streamed.executeStream(stream);
    std::vector<AccessResult> want;
    for (const auto& batch : stream) want.push_back(batched.execute(batch));
    expectSameResults(got, want, "stream-vs-batch");
    EXPECT_EQ(tally(stream_m), tally(batch_m)) << "threads=" << threads;
    // The overlap shifts which batch's accounting absorbs a cache miss,
    // but the totals over the whole stream are conserved.
    EXPECT_EQ(streamed.metrics().cacheHits + streamed.metrics().cacheMisses,
              batched.metrics().cacheHits + batched.metrics().cacheMisses);
  }
}

TEST(HotPath, MajorityStreamMatchesPerBatchExecute) {
  // PpScheme(1,5): 1023 modules against a ~2304-entry wire, so the
  // module-sharded step path is engaged whenever threads > 1.
  expectStreamMatchesPerBatch<MajorityEngine>(scheme::PpScheme(1, 5),
                                              0xC0FFEE);
}

TEST(HotPath, SingleOwnerStreamMatchesPerBatchExecute) {
  expectStreamMatchesPerBatch<SingleOwnerEngine>(
      scheme::MvScheme(40000, 255, 3), 0xD00D);
}

TEST(HotPath, PersistentWireSurvivesEngineReuse) {
  // The wire scratch persists across batches and streams on one engine
  // instance; results must not depend on what a previous batch left behind.
  const scheme::PpScheme s(1, 5);
  mpc::Machine m(s.numModules(), s.slotsPerModule());
  MajorityEngine eng(s, m);
  util::Xoshiro256 rng(77);
  const auto vars = workload::randomDistinct(s.numVariables(), 300, rng);
  eng.execute(workload::makeWrites(vars, 10));
  const auto first = eng.execute(workload::makeReads(vars));
  // A differently-shaped batch in between (forces the wire scratch through
  // a much smaller live set without mutating any cells).
  const auto small = workload::randomDistinct(s.numVariables(), 17, rng);
  eng.execute(workload::makeReads(small));
  const auto second = eng.execute(workload::makeReads(vars));
  EXPECT_EQ(first.values, second.values);
}

}  // namespace
}  // namespace dsm::protocol
