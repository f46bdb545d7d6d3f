// Stream error-path contract (the serving layer sits on these guarantees):
//   * A mid-stream validation throw (duplicate / out-of-range variable)
//     must not poison the engine: already-executed batches stay committed
//     and accounted, the bad batch leaves no trace, and continuing with the
//     remaining batches is byte-identical to a stream that never contained
//     the bad batch — both engines, serial and pipelined, with and without
//     a FaultPlan.
//   * A wire-round throw while the prefetch thread is preparing the next
//     batch must never leave that prepare in flight: the caller's batch
//     vector dies with the unwinding frame (ASan catches a stale read),
//     and the engine must remain usable and destructible afterwards.
//   * Empty batches produce the same AccessResult through execute() and
//     executeStream(), for the optimized and the reference engines alike,
//     without perturbing neighbouring batches.
#include <gtest/gtest.h>

#include <span>
#include <stdexcept>
#include <vector>

#include "dsm/protocol/engines.hpp"
#include "dsm/scheme/pp_scheme.hpp"
#include "dsm/util/assert.hpp"
#include "dsm/util/rng.hpp"
#include "dsm/workload/generators.hpp"
#include "oracle/reference_engine.hpp"
#include "result_compare.hpp"

namespace dsm::protocol {
namespace {

// Writes flow into later reads, so the continuation after a throw only
// matches the skip-run if the machine's memory survived batches 0..k
// bit-exactly.
std::vector<std::vector<AccessRequest>> makeStream(
    const scheme::PpScheme& s, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const std::size_t count =
      std::min<std::size_t>(24, static_cast<std::size_t>(s.numVariables()) / 2);
  const auto vars_a = workload::randomDistinct(s.numVariables(), count, rng);
  const auto vars_b = workload::randomDistinct(s.numVariables(), count, rng);
  std::vector<std::vector<AccessRequest>> stream;
  stream.push_back(workload::makeWrites(vars_a, 1000));
  stream.push_back(workload::makeWrites(vars_b, 2000));
  stream.push_back(workload::makeReads(vars_a));
  stream.push_back(workload::makeMixed(vars_b, 0.5, rng));
  stream.push_back(workload::makeReads(vars_b));
  return stream;
}

mpc::FaultPlan makePlan() {
  mpc::FaultPlan plan;
  plan.grantDropProbability = 0.15;
  plan.seed = 23;
  plan.transientAt(2, 0, 6);
  return plan;
}

enum class BadKind { kDuplicate, kOutOfRange };

std::vector<AccessRequest> makeBad(const std::vector<AccessRequest>& base,
                                   const scheme::PpScheme& s, BadKind kind) {
  std::vector<AccessRequest> bad = base;
  if (kind == BadKind::kDuplicate) {
    bad.push_back(bad.front());
  } else {
    bad.push_back({s.numVariables(), mpc::Op::kRead, 0});
  }
  return bad;
}

template <typename Engine>
void checkThrowRecovery(unsigned threads, bool faults, std::size_t bad_pos,
                        BadKind kind) {
  const scheme::PpScheme s(1, 3);
  const auto stream = makeStream(s, 41);

  // Oracle: the same stream with the bad batch simply absent.
  mpc::Machine ref_machine(s.numModules(), s.slotsPerModule(), threads);
  if (faults) ref_machine.setFaultPlan(makePlan());
  Engine ref_engine(s, ref_machine);
  const auto want = ref_engine.executeStream(stream);

  std::vector<std::vector<AccessRequest>> with_bad(
      stream.begin(), stream.begin() + static_cast<std::ptrdiff_t>(bad_pos));
  with_bad.push_back(makeBad(stream[0], s, kind));
  with_bad.insert(with_bad.end(),
                  stream.begin() + static_cast<std::ptrdiff_t>(bad_pos),
                  stream.end());

  mpc::Machine machine(s.numModules(), s.slotsPerModule(), threads);
  if (faults) machine.setFaultPlan(makePlan());
  Engine engine(s, machine);
  EXPECT_THROW(engine.executeStream(with_bad), util::CheckError);
  // Every batch before the bad one ran to completion and was accounted;
  // the bad one left no trace (no batch count, no clock advance).
  EXPECT_EQ(engine.metrics().batches, bad_pos);

  // Continue with the remainder: byte-identical to the skip-run's tail.
  const std::span<const std::vector<AccessRequest>> rest(
      stream.data() + bad_pos, stream.size() - bad_pos);
  const auto got = engine.executeStream(rest);
  const std::vector<AccessResult> want_tail(
      want.begin() + static_cast<std::ptrdiff_t>(bad_pos), want.end());
  expectSameResults(got, want_tail, "continued tail");
  EXPECT_EQ(engine.metrics().batches, stream.size());
}

TEST(StreamValidationThrow, MajoritySerialRecovers) {
  for (const BadKind kind : {BadKind::kDuplicate, BadKind::kOutOfRange}) {
    checkThrowRecovery<MajorityEngine>(1, false, 2, kind);
  }
}

TEST(StreamValidationThrow, MajorityPipelinedRecovers) {
  for (const BadKind kind : {BadKind::kDuplicate, BadKind::kOutOfRange}) {
    checkThrowRecovery<MajorityEngine>(3, false, 2, kind);
  }
}

TEST(StreamValidationThrow, MajorityRecoversUnderFaultPlan) {
  checkThrowRecovery<MajorityEngine>(1, true, 2, BadKind::kDuplicate);
  checkThrowRecovery<MajorityEngine>(3, true, 2, BadKind::kDuplicate);
}

TEST(StreamValidationThrow, SingleOwnerSerialAndPipelinedRecover) {
  checkThrowRecovery<SingleOwnerEngine>(1, false, 2, BadKind::kDuplicate);
  checkThrowRecovery<SingleOwnerEngine>(3, false, 2, BadKind::kOutOfRange);
  checkThrowRecovery<SingleOwnerEngine>(3, true, 2, BadKind::kDuplicate);
}

TEST(StreamValidationThrow, BadFirstBatchLeavesEngineUntouched) {
  checkThrowRecovery<MajorityEngine>(3, false, 0, BadKind::kDuplicate);
  checkThrowRecovery<SingleOwnerEngine>(1, false, 0, BadKind::kDuplicate);
}

TEST(StreamValidationThrow, BadLastBatchStillAccountsPredecessors) {
  checkThrowRecovery<MajorityEngine>(3, false, 4, BadKind::kDuplicate);
}

TEST(StreamValidationThrow, PerBatchExecuteContinuesAfterThrow) {
  const scheme::PpScheme s(1, 3);
  const auto stream = makeStream(s, 57);

  mpc::Machine ref_machine(s.numModules(), s.slotsPerModule(), 3);
  MajorityEngine ref_engine(s, ref_machine);
  const auto want = ref_engine.executeStream(stream);

  mpc::Machine machine(s.numModules(), s.slotsPerModule(), 3);
  MajorityEngine engine(s, machine);
  std::vector<std::vector<AccessRequest>> with_bad(stream.begin(),
                                                   stream.begin() + 2);
  with_bad.push_back(makeBad(stream[0], s, BadKind::kDuplicate));
  with_bad.insert(with_bad.end(), stream.begin() + 2, stream.end());
  EXPECT_THROW(engine.executeStream(with_bad), util::CheckError);

  // execute() after the throw behaves as if the bad batch never existed.
  std::vector<AccessResult> got;
  for (std::size_t k = 2; k < stream.size(); ++k) {
    got.push_back(engine.execute(stream[k]));
  }
  const std::vector<AccessResult> want_tail(want.begin() + 2, want.end());
  expectSameResults(got, want_tail, "per-batch continuation");
}

// ---------------------------------------------------------------------------
// Prefetcher teardown with a prepare in flight (wire-round throw).

class ThrowingMajorityEngine : public MajorityEngine {
 public:
  using MajorityEngine::MajorityEngine;
  int throw_at = -1;  ///< executePrepared call index that throws

 protected:
  AccessResult executePrepared(const std::vector<AccessRequest>& batch,
                               const PreparedBatch& prep) override {
    if (calls_++ == throw_at) {
      throw std::runtime_error("injected wire-round failure");
    }
    return MajorityEngine::executePrepared(batch, prep);
  }

 private:
  int calls_ = 0;
};

TEST(PrefetcherTeardown, StreamFrameDiesBeforeEngineAfterWireThrow) {
  const scheme::PpScheme s(1, 3);
  mpc::Machine machine(s.numModules(), s.slotsPerModule(), 3);
  ThrowingMajorityEngine engine(s, machine);
  // Batch 1's wire rounds throw while batch 2's prepare runs on the
  // prefetch thread; the stream vector dies at the inner scope's end, so a
  // prepare left in flight would read freed memory (ASan-visible).
  engine.throw_at = 1;
  {
    const auto stream = makeStream(s, 99);
    EXPECT_THROW(engine.executeStream(stream), std::runtime_error);
  }
  // The engine remains usable after the failed stream.
  const auto tail = makeStream(s, 100);
  const AccessResult result = engine.execute(tail[0]);
  EXPECT_EQ(result.values.size(), tail[0].size());
}

TEST(PrefetcherTeardown, EngineDestructionDuringUnwindIsClean) {
  const scheme::PpScheme s(1, 3);
  // Several rounds to widen the race window: stream dies first, then the
  // engine (joining the prefetch thread), then the machine.
  for (int round = 0; round < 3; ++round) {
    mpc::Machine machine(s.numModules(), s.slotsPerModule(), 3);
    ThrowingMajorityEngine engine(s, machine);
    engine.throw_at = 1;
    const auto stream = makeStream(s, 7 + static_cast<std::uint64_t>(round));
    EXPECT_THROW(engine.executeStream(stream), std::runtime_error);
  }
}

// ---------------------------------------------------------------------------
// Empty-batch parity between execute() and executeStream(), all engines.

void expectDefaultResult(const AccessResult& r, const char* what) {
  EXPECT_TRUE(r.values.empty()) << what;
  EXPECT_EQ(r.totalIterations, 0u) << what;
  EXPECT_TRUE(r.phaseIterations.empty()) << what;
  EXPECT_TRUE(r.liveTrajectory.empty()) << what;
  EXPECT_EQ(r.modeledSteps, 0u) << what;
  EXPECT_EQ(r.networkCycles, 0u) << what;
  EXPECT_TRUE(r.unsatisfiable.empty()) << what;
}

template <typename Engine>
void checkEmptyBatchParity(unsigned threads, const char* what) {
  const scheme::PpScheme s(1, 3);
  const auto stream = makeStream(s, 77);

  mpc::Machine m1(s.numModules(), s.slotsPerModule(), threads);
  Engine e1(s, m1);
  expectDefaultResult(e1.execute({}), what);
  EXPECT_EQ(e1.metrics().batches, 0u) << what;

  const std::vector<std::vector<AccessRequest>> lone_empty{{}};
  const auto lone = e1.executeStream(lone_empty);
  ASSERT_EQ(lone.size(), 1u) << what;
  expectDefaultResult(lone[0], what);
  EXPECT_EQ(e1.metrics().batches, 0u) << what;

  // An interleaved empty batch yields the default result and must not
  // perturb its neighbours (same results as the stream without it).
  mpc::Machine m_ref(s.numModules(), s.slotsPerModule(), threads);
  Engine e_ref(s, m_ref);
  const std::vector<std::vector<AccessRequest>> dense{stream[0], stream[2]};
  const auto want = e_ref.executeStream(dense);

  mpc::Machine m2(s.numModules(), s.slotsPerModule(), threads);
  Engine e2(s, m2);
  const std::vector<std::vector<AccessRequest>> holey{
      {}, stream[0], {}, stream[2], {}};
  const auto got = e2.executeStream(holey);
  ASSERT_EQ(got.size(), 5u) << what;
  expectDefaultResult(got[0], what);
  expectDefaultResult(got[2], what);
  expectDefaultResult(got[4], what);
  expectSameResults({got[1], got[3]}, want, what);
  EXPECT_EQ(e2.metrics().batches, 2u) << what;
}

TEST(EmptyBatchParity, AllEnginesAllPaths) {
  for (const unsigned threads : {1u, 3u}) {
    checkEmptyBatchParity<MajorityEngine>(threads, "majority");
    checkEmptyBatchParity<SingleOwnerEngine>(threads, "single-owner");
    checkEmptyBatchParity<ReferenceMajorityEngine>(threads, "ref-majority");
    checkEmptyBatchParity<ReferenceSingleOwnerEngine>(threads,
                                                      "ref-single-owner");
  }
}

}  // namespace
}  // namespace dsm::protocol
