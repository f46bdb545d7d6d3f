// Quorum-planner tests (DESIGN.md §14): with setPlannerEnabled(true) the
// engines attack a planned read quorum instead of all r copies, escalating
// to unplanned spares exactly when a planned copy is denied by a dead
// module or a FaultPlan grant drop. Values must be identical to the
// planner-off engine (any q granted copies intersect every committed write
// quorum), results bit-identical across thread counts, and the plan itself
// a pure function of the batch.
#include <gtest/gtest.h>

#include <algorithm>
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

// PpScheme(1, 5): r = 3 copies, read = write quorum = 2 — the smallest
// majority instance (r = 2q - 1), so one spare per request.
const scheme::PpScheme& testScheme() {
  static const scheme::PpScheme s(1, 5);
  return s;
}

// The planner's deterministic choice for a single-request read on an empty
// histogram: the q copies with the smallest module indices (all loads tie
// at zero, tie-break is module index); the spare escalation order is the
// remaining copies, coldest (= smallest module) first.
std::vector<std::size_t> copyRanksByModule(std::uint64_t v) {
  const auto copies = testScheme().copiesOf(v);
  std::vector<std::size_t> idx(copies.size());
  for (std::size_t j = 0; j < idx.size(); ++j) idx[j] = j;
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return copies[a].module < copies[b].module;
  });
  return idx;
}

template <class Engine>
AccessResult runSingleReadWithPlannedDeath(unsigned threads,
                                           EngineMetrics* metrics_out) {
  const auto& s = testScheme();
  const std::uint64_t v = 42;
  mpc::Machine m(s.numModules(), s.slotsPerModule(), threads);
  Engine eng(s, m);
  eng.setPlannerEnabled(true);
  // Fault-free warmup write: commits on all three copies, so every copy is
  // fresh and any read quorum returns the committed value.
  eng.execute({{v, mpc::Op::kWrite, 777}});
  // Kill the PRIMARY planned target mid-phase: the plan is computed at
  // prepare (before any wire cycle), the FaultPlan strikes at the current
  // lifetime cycle — the wire round itself discovers the death, not the
  // batch-level premark memo.
  const auto ranks = copyRanksByModule(v);
  const auto copies = s.copiesOf(v);
  mpc::FaultPlan plan;
  plan.failAt(m.lifetimeCycles(), copies[ranks[0]].module);
  m.setFaultPlan(plan);
  const AccessResult r = eng.execute({{v, mpc::Op::kRead, 0}});
  if (metrics_out != nullptr) *metrics_out = eng.metrics();
  return r;
}

template <class Engine>
void escalationOnPlannedDeath() {
  EngineMetrics metrics;
  const AccessResult serial =
      runSingleReadWithPlannedDeath<Engine>(1, &metrics);
  // The request satisfied through the unplanned spare: correct value, no
  // unsatisfiable verdict, exactly one escalation and one dead copy.
  ASSERT_TRUE(serial.unsatisfiable.empty());
  EXPECT_EQ(serial.values[0], 777u);
  EXPECT_EQ(metrics.escalations, 1u);
  EXPECT_EQ(metrics.faults.deadCopies, 1u);
  // The read ended on a full 3-copy attack (target + escalated spare), so
  // it saved nothing; the warmup write never saves (full write attack).
  EXPECT_EQ(metrics.plannedWireSavings, 0u);
  for (const unsigned threads : {2u, 4u}) {
    const AccessResult at =
        runSingleReadWithPlannedDeath<Engine>(threads, nullptr);
    expectSameResult(serial, at,
                      "escalation @ " + std::to_string(threads) + " threads");
  }
}

TEST(Planner, EscalationOnPlannedDeathMajority) {
  escalationOnPlannedDeath<MajorityEngine>();
}

TEST(Planner, EscalationOnPlannedDeathSingleOwner) {
  escalationOnPlannedDeath<SingleOwnerEngine>();
}

template <class Engine>
void readTargetsQuorumOnly() {
  const auto& s = testScheme();
  const std::uint64_t v = 9;
  mpc::Machine m(s.numModules(), s.slotsPerModule());
  Engine eng(s, m);
  eng.setPlannerEnabled(true);
  eng.execute({{v, mpc::Op::kWrite, 5}});
  const std::uint64_t wire_before = eng.metrics().wireRequests;
  const AccessResult r = eng.execute({{v, mpc::Op::kRead, 0}});
  EXPECT_EQ(r.values[0], 5u);
  // A healthy planned read touches exactly readQuorum() copies (all fresh,
  // so no repair round either) — planner-off would touch all r.
  EXPECT_EQ(eng.metrics().wireRequests - wire_before,
            static_cast<std::uint64_t>(s.readQuorum()));
  EXPECT_EQ(eng.metrics().plannedWireSavings,
            static_cast<std::uint64_t>(s.copiesPerVariable() -
                                       s.readQuorum()));
  EXPECT_EQ(eng.metrics().escalations, 0u);
  EXPECT_GE(eng.metrics().maxPlannedModuleLoad, 1u);
}

TEST(Planner, ReadTargetsQuorumOnlyMajority) {
  readTargetsQuorumOnly<MajorityEngine>();
}

TEST(Planner, ReadTargetsQuorumOnlySingleOwner) {
  readTargetsQuorumOnly<SingleOwnerEngine>();
}

template <class Engine>
void writeKeepsFullAttack() {
  const auto& s = testScheme();
  mpc::Machine on_m(s.numModules(), s.slotsPerModule());
  mpc::Machine off_m(s.numModules(), s.slotsPerModule());
  Engine on(s, on_m);
  Engine off(s, off_m);
  on.setPlannerEnabled(true);
  const std::vector<AccessRequest> batch{{3, mpc::Op::kWrite, 30},
                                         {8, mpc::Op::kWrite, 80}};
  expectSameResult(on.execute(batch), off.execute(batch), "write batch");
  // Writes keep their full r-copy attack: same wire traffic, no savings.
  EXPECT_EQ(on.metrics().wireRequests, off.metrics().wireRequests);
  EXPECT_EQ(on.metrics().plannedWireSavings, 0u);
}

TEST(Planner, WriteKeepsFullAttackMajority) {
  writeKeepsFullAttack<MajorityEngine>();
}

TEST(Planner, WriteKeepsFullAttackSingleOwner) {
  writeKeepsFullAttack<SingleOwnerEngine>();
}

// Bulk differential under FaultPlan grant-drop noise: planner-on values ==
// planner-off values on mixed streams, and the drops force spare
// escalations. Drop decisions hash (seed, cycle, module), and the two modes
// run different cycle counts, so their drop patterns differ — value
// identity must hold anyway (every committed write reached a live write
// quorum, and any read quorum intersects it).
template <class Engine>
void valuesMatchUnderDrops() {
  const auto& s = testScheme();
  util::Xoshiro256 rng(1234);
  const auto vars = workload::randomDistinct(s.numVariables(), 160, rng);
  std::vector<std::vector<AccessRequest>> batches;
  batches.push_back(workload::makeWrites(vars, 1000));
  for (int b = 0; b < 8; ++b) {
    batches.push_back(workload::makeMixed(vars, 0.75, rng));
  }
  const auto run = [&](bool planner, unsigned threads) {
    mpc::Machine m(s.numModules(), s.slotsPerModule(), threads);
    mpc::FaultPlan plan;
    plan.grantDropProbability = 0.4;
    plan.seed = 99;
    m.setFaultPlan(plan);
    Engine eng(s, m);
    eng.setPlannerEnabled(planner);
    auto results = eng.executeStream(batches);
    return std::pair(std::move(results), eng.metrics());
  };
  const auto [off, off_metrics] = run(false, 1);
  const auto [on, on_metrics] = run(true, 1);
  ASSERT_EQ(on.size(), off.size());
  for (std::size_t k = 0; k < on.size(); ++k) {
    EXPECT_EQ(on[k].values, off[k].values) << "batch " << k;
    EXPECT_TRUE(on[k].unsatisfiable.empty()) << "batch " << k;
    EXPECT_TRUE(off[k].unsatisfiable.empty()) << "batch " << k;
  }
  // 40% drop noise over thousands of planned grants: statistically certain
  // to deny planned copies, each denial opening a spare.
  EXPECT_GT(on_metrics.escalations, 0u);
  EXPECT_GT(on_metrics.plannedWireSavings, 0u);
  EXPECT_EQ(off_metrics.escalations, 0u);
  EXPECT_EQ(off_metrics.plannedWireSavings, 0u);
  // Planner-on full results (drops included) are bit-identical across
  // thread counts: drops and plans are both pure functions of the history.
  const auto [on4, on4_metrics] = run(true, 4);
  for (std::size_t k = 0; k < on.size(); ++k) {
    expectSameResult(on[k], on4[k], "drops batch " + std::to_string(k));
  }
  EXPECT_EQ(on4_metrics.escalations, on_metrics.escalations);
  EXPECT_EQ(on4_metrics.plannedWireSavings, on_metrics.plannedWireSavings);
}

TEST(Planner, ValuesMatchUnderDropsMajority) {
  valuesMatchUnderDrops<MajorityEngine>();
}

TEST(Planner, ValuesMatchUnderDropsSingleOwner) {
  valuesMatchUnderDrops<SingleOwnerEngine>();
}

// Unsatisfiable parity: when too many copies are dead, escalation exhausts
// the spares and the planner-on engine reaches the same verdict (and the
// same zeroed value) as planner-off.
template <class Engine>
void unsatisfiableParity() {
  const auto& s = testScheme();
  const std::uint64_t v = 17;
  const auto run = [&](bool planner) {
    mpc::Machine m(s.numModules(), s.slotsPerModule());
    Engine eng(s, m);
    eng.setPlannerEnabled(planner);
    eng.execute({{v, mpc::Op::kWrite, 4}});
    const auto copies = s.copiesOf(v);
    m.failModule(copies[0].module);
    m.failModule(copies[1].module);
    return eng.execute({{v, mpc::Op::kRead, 0}});
  };
  const AccessResult off = run(false);
  const AccessResult on = run(true);
  ASSERT_EQ(on.unsatisfiable, off.unsatisfiable);
  ASSERT_EQ(on.unsatisfiable.size(), 1u);
  EXPECT_EQ(on.values, off.values);
  EXPECT_EQ(on.values[0], 0u);  // no partial data leaks
}

TEST(Planner, UnsatisfiableParityMajority) {
  unsatisfiableParity<MajorityEngine>();
}

TEST(Planner, UnsatisfiableParitySingleOwner) {
  unsatisfiableParity<SingleOwnerEngine>();
}

// The congestion claim itself, smoke-sized: on a minimal-expansion
// adversarial batch (greedyAdversarial packs the vars' copies into the
// smallest module neighborhood the scheme admits) the planned read sweep
// cuts both congestion drivers — wire traffic and the worst per-module
// queue, the quantity the paper's Φ analysis is governed by. Iteration
// counts are NOT asserted lower: the off-mode engine dodges hot modules
// through quorum slack (any q of r), so the planner's win shows up in the
// queues and on the wire, not in the round count (see EXPERIMENTS.md E21).
TEST(Planner, AdversarialBatchCutsCongestion) {
  const auto& s = testScheme();
  util::Xoshiro256 rng(7);
  const auto vars = workload::greedyAdversarial(s, 256, 64, rng);
  struct Obs {
    AccessResult result;
    std::uint64_t wire;
    std::uint64_t max_queue;
  };
  const auto run = [&](bool planner) {
    mpc::Machine m(s.numModules(), s.slotsPerModule());
    MajorityEngine eng(s, m);
    eng.setPlannerEnabled(planner);
    eng.execute(workload::makeWrites(vars, 500));
    m.resetMetrics();
    eng.resetMetrics();
    Obs o{eng.execute(workload::makeReads(vars)), eng.metrics().wireRequests,
          m.metrics().maxModuleQueue};
    return o;
  };
  const Obs off = run(false);
  const Obs on = run(true);
  EXPECT_EQ(on.result.values, off.result.values);
  // Everything here is deterministic (fixed seed, logical counters), so the
  // 1.3x congestion floor is a stable property of this workload, not a
  // flaky perf assertion.
  EXPECT_GE(off.wire * 10, on.wire * 13);
  EXPECT_LT(on.max_queue, off.max_queue);
}

// The plan is a pure function of the batch: the same batch prepared after
// different engine histories (different cache contents, different clocks)
// plans identically — observable as identical wire/iteration results.
TEST(Planner, PlanIsPureFunctionOfBatch) {
  const auto& s = testScheme();
  util::Xoshiro256 rng(21);
  const auto vars = workload::randomDistinct(s.numVariables(), 64, rng);
  const auto warm_vars = workload::randomDistinct(s.numVariables(), 64, rng);
  const auto run = [&](bool warm_history) {
    mpc::Machine m(s.numModules(), s.slotsPerModule());
    MajorityEngine eng(s, m);
    eng.setPlannerEnabled(true);
    eng.execute(workload::makeWrites(vars, 100));
    if (warm_history) {
      eng.execute(workload::makeReads(warm_vars));
    }
    const std::uint64_t wire_before = eng.metrics().wireRequests;
    const AccessResult r = eng.execute(workload::makeReads(vars));
    return std::pair(r, eng.metrics().wireRequests - wire_before);
  };
  const auto [cold, cold_wire] = run(false);
  const auto [warm, warm_wire] = run(true);
  expectSameResult(cold, warm, "same batch, different history");
  EXPECT_EQ(cold_wire, warm_wire);
}

// Toggling the planner off restores byte-identical pre-planner behaviour —
// the planner-off engine IS the previous engine.
TEST(Planner, OffByDefault) {
  const auto& s = testScheme();
  mpc::Machine m(s.numModules(), s.slotsPerModule());
  MajorityEngine eng(s, m);
  EXPECT_FALSE(eng.plannerEnabled());
  eng.setPlannerEnabled(true);
  EXPECT_TRUE(eng.plannerEnabled());
  eng.setPlannerEnabled(false);
  eng.execute({{1, mpc::Op::kWrite, 10}});
  eng.execute({{1, mpc::Op::kRead, 0}});
  EXPECT_EQ(eng.metrics().plannedWireSavings, 0u);
  EXPECT_EQ(eng.metrics().escalations, 0u);
  EXPECT_EQ(eng.metrics().maxPlannedModuleLoad, 0u);
  // Planner off runs the identity plan: every rank is open from the start,
  // so a dead module and drop noise — which would escalate a built plan —
  // still save nothing, escalate nothing and plan no load.
  mpc::FaultPlan fp;
  fp.grantDropProbability = 0.2;
  m.setFaultPlan(fp);
  m.failModule(s.copiesOf(2)[0].module);
  std::vector<AccessRequest> batch;
  for (std::uint64_t v = 2; v < 40; ++v) {
    batch.push_back({v, v % 2 == 0 ? mpc::Op::kWrite : mpc::Op::kRead, v});
  }
  eng.execute(batch);
  EXPECT_GT(eng.metrics().faults.deadCopies, 0u);
  EXPECT_GT(m.metrics().grantsDropped, 0u);
  EXPECT_EQ(eng.metrics().plannedWireSavings, 0u);
  EXPECT_EQ(eng.metrics().escalations, 0u);
  EXPECT_EQ(eng.metrics().maxPlannedModuleLoad, 0u);
}

// The reference engines know no plans: with the planner on they refuse the
// first batch before it reaches the machine, instead of silently running
// the planner-off attack.
template <typename Engine>
void expectRefusesPlannerOn() {
  const auto& s = testScheme();
  mpc::Machine m(s.numModules(), s.slotsPerModule());
  Engine eng(s, m);
  eng.setPlannerEnabled(true);
  EXPECT_THROW(eng.execute({{1, mpc::Op::kWrite, 10}}), util::CheckError);
  EXPECT_EQ(m.lifetimeCycles(), 0u);
}

TEST(Planner, ReferenceEnginesRefusePlannerOn) {
  expectRefusesPlannerOn<ReferenceMajorityEngine>();
  expectRefusesPlannerOn<ReferenceSingleOwnerEngine>();
}

}  // namespace
}  // namespace dsm::protocol
