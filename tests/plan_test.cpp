// dsm/plan unit tests (DESIGN.md §15): the ModuleLoadModel's sparse-reset
// contract, BatchPlan's greedy build, its identity (planner-off) form and
// the escalation helpers, and the probe/commit replay invariant the
// plan-aware admission scheduler leans on.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "dsm/plan/plan.hpp"
#include "dsm/scheme/pp_scheme.hpp"
#include "dsm/util/rng.hpp"

namespace dsm::plan {
namespace {

using scheme::PhysicalAddress;

TEST(ModuleLoadModel, BumpTracksLoadAndPeak) {
  ModuleLoadModel m;
  m.ensure(16);
  EXPECT_EQ(m.modules(), 16u);
  EXPECT_EQ(m.maxLoad(), 0u);
  m.bump(3);
  m.bump(3);
  m.bump(7);
  EXPECT_EQ(m.load(3), 2u);
  EXPECT_EQ(m.load(7), 1u);
  EXPECT_EQ(m.load(0), 0u);
  EXPECT_EQ(m.maxLoad(), 2u);
  EXPECT_EQ(m.touchedCount(), 2u);  // one touched entry per module, not bump
}

TEST(ModuleLoadModel, ResetIsSparseAndComplete) {
  ModuleLoadModel m;
  m.ensure(8);
  m.bump(1);
  m.bump(5);
  m.reset();
  for (std::uint64_t i = 0; i < 8; ++i) EXPECT_EQ(m.load(i), 0u);
  EXPECT_EQ(m.maxLoad(), 0u);
  EXPECT_EQ(m.touchedCount(), 0u);
  // Reusable after reset; ensure() with the same size is a no-op that
  // preserves state.
  m.bump(5);
  m.ensure(8);
  EXPECT_EQ(m.load(5), 1u);
}

// build() spreads a batch of same-copy-set requests across the copy
// modules: with 3 requests over the same 3 modules and a read target count
// of 2, the greedy sweep balances 6 planned units over 3 modules — peak 2 —
// and leaves the scratch model reset.
TEST(BatchPlan, BuildBalancesAndLeavesModelReset) {
  const std::size_t r = 3;
  const std::vector<PhysicalAddress> copies = {
      {10, 0}, {11, 0}, {12, 0},  // request 0
      {10, 1}, {11, 1}, {12, 1},  // request 1
      {10, 2}, {11, 2}, {12, 2},  // request 2
  };
  BatchPlan plan;
  plan.count = {2, 2, 2};
  ModuleLoadModel model;
  model.ensure(16);
  plan.build(copies.data(), r, model);

  EXPECT_TRUE(plan.planned);
  EXPECT_EQ(plan.order.size(), 9u);
  EXPECT_EQ(plan.wireSavings, 3u);      // (r - 2) per request
  EXPECT_EQ(plan.maxPlannedLoad, 2u);   // 6 units over 3 modules
  EXPECT_EQ(model.touchedCount(), 0u);  // sparse reset ran
  // Every request's order is a permutation of its copy indices.
  for (std::size_t i = 0; i < 3; ++i) {
    std::vector<bool> seen(r, false);
    for (std::size_t k = 0; k < r; ++k) {
      const std::uint16_t j = plan.order[i * r + k];
      ASSERT_LT(j, r);
      EXPECT_FALSE(seen[j]);
      seen[j] = true;
    }
  }
  // Request 0 on a cold histogram picks modules in index order.
  EXPECT_EQ(plan.order[0], 0u);
  EXPECT_EQ(plan.order[1], 1u);
  // The downward summary: planned wire volume and bottleneck.
  const mpc::WirePlan wire = plan.wire(r);
  EXPECT_EQ(wire.plannedRequests, 3u * r - 3u);
  EXPECT_EQ(wire.plannedPeakLoad, 2u);
}

TEST(BatchPlan, EscalationHelpersMaintainLiveTargetInvariant) {
  const std::size_t r = 5;
  const unsigned quorum = 3;
  const std::uint16_t order[r] = {2, 0, 4, 1, 3};
  std::uint8_t dead[r] = {0, 0, 0, 0, 0};

  // Clean init: target prefix = planned count, all live.
  unsigned tc = 0, live = 0;
  BatchPlan::initTargets(order, quorum, dead, quorum, r, tc, live);
  EXPECT_EQ(tc, 3u);
  EXPECT_EQ(live, 3u);

  // Premarked dead target escalates at init: rank 0 targets copy 2.
  dead[2] = 1;
  BatchPlan::initTargets(order, quorum, dead, quorum, r, tc, live);
  EXPECT_EQ(tc, 4u);
  EXPECT_EQ(live, 3u);

  // Mid-phase death of another open target: one more spare opens.
  dead[0] = 1;
  --live;
  EXPECT_TRUE(
      BatchPlan::escalateUntilQuorum(order, dead, quorum, r, tc, live));
  EXPECT_EQ(tc, 5u);
  EXPECT_EQ(live, 3u);
  // Spares exhausted: further escalation is a no-op that reports so.
  dead[4] = 1;
  --live;
  EXPECT_FALSE(
      BatchPlan::escalateUntilQuorum(order, dead, quorum, r, tc, live));
  EXPECT_EQ(live, 2u);

  // openOneSpare opens exactly one rank (live only if that copy is up).
  unsigned tc2 = 2, live2 = 2;
  std::uint8_t none[r] = {0, 0, 0, 0, 0};
  BatchPlan::openOneSpare(order, none, tc2, live2);
  EXPECT_EQ(tc2, 3u);
  EXPECT_EQ(live2, 3u);
}

// The identity plan is the planner-off form: every rank open from the start
// in copy order, nothing saved, nothing planned — so init opens all r ranks
// and escalation can never fire.
TEST(BatchPlan, IdentityPlanOpensEveryRankAndNeverEscalates) {
  const std::size_t r = 5;
  const unsigned quorum = 3;
  BatchPlan plan;
  plan.identity(4, r);
  EXPECT_FALSE(plan.planned);
  ASSERT_EQ(plan.order.size(), 4 * r);
  ASSERT_EQ(plan.count.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(plan.count[i], r);
    for (std::size_t k = 0; k < r; ++k) EXPECT_EQ(plan.order[i * r + k], k);
  }
  EXPECT_EQ(plan.wireSavings, 0u);
  EXPECT_EQ(plan.maxPlannedLoad, 0u);
  EXPECT_EQ(plan.wire(r).plannedRequests, 4 * r);
  EXPECT_EQ(plan.wire(r).plannedPeakLoad, 0u);

  // Init opens all r ranks; live = r - dead.
  std::uint8_t dead[r] = {0, 1, 0, 0, 1};
  unsigned tc = 0, live = 0;
  BatchPlan::initTargets(&plan.order[r], plan.count[1], dead, quorum, r, tc,
                         live);
  EXPECT_EQ(tc, r);
  EXPECT_EQ(live, r - 2);

  // A further death drops below quorum, yet there is no spare to open:
  // escalation reports false and leaves both counters untouched.
  dead[2] = 1;
  --live;
  EXPECT_FALSE(BatchPlan::escalateUntilQuorum(&plan.order[r], dead, quorum,
                                              r, tc, live));
  EXPECT_EQ(tc, r);
  EXPECT_EQ(live, r - 3);

  // A one-message owner rotates its start on the identity plan, reads
  // included; a built plan starts reads at rank 0.
  EXPECT_EQ(plan.startRank(true, 7, r), 2u);
  EXPECT_EQ(plan.startRank(false, 7, r), 2u);
  plan.planned = true;
  EXPECT_EQ(plan.startRank(true, 7, r), 0u);
  EXPECT_EQ(plan.startRank(false, 7, r), 2u);
}

// The §15 replay invariant: committing placements one slot at a time with
// commitPlacement reproduces EXACTLY the histogram build() computes for the
// same batch — same peak, same per-module loads — and probePlacement's
// score is the true post-placement peak of the request's own targets.
TEST(PlanReplay, CommitSequenceMatchesBuildHistogram) {
  const scheme::PpScheme s(1, 5);
  const std::size_t r = s.copiesPerVariable();
  util::Xoshiro256 rng(42);
  const std::size_t b = 24;

  std::vector<std::uint64_t> vars;
  std::vector<PhysicalAddress> copies(b * r);
  while (vars.size() < b) {
    const std::uint64_t v = rng.below(s.numVariables());
    bool dup = false;
    for (const std::uint64_t u : vars) dup |= u == v;
    if (!dup) vars.push_back(v);
  }
  s.copiesBatch(vars.data(), b, copies.data());

  BatchPlan plan;
  plan.count.resize(b);
  for (std::size_t i = 0; i < b; ++i) {
    plan.count[i] =
        static_cast<std::uint16_t>(i % 3 == 0 ? r : s.readQuorum());
  }
  ModuleLoadModel scratch;
  scratch.ensure(s.numModules());
  plan.build(copies.data(), r, scratch);

  // Serve-side replay: commit each slot in batch order on a fresh model.
  ModuleLoadModel replay;
  replay.ensure(s.numModules());
  std::vector<std::uint16_t> picks;
  std::uint32_t peak = 0;
  for (std::size_t i = 0; i < b; ++i) {
    const std::uint32_t probe = probePlacement(replay, &copies[i * r], r,
                                               plan.count[i], picks);
    commitPlacement(replay, &copies[i * r], r, plan.count[i], picks);
    // The probe predicted this placement's contribution to the peak.
    peak = std::max(peak, probe);
    // And the committed picks are the plan's target ranks for request i.
    for (std::size_t k = 0; k < plan.count[i]; ++k) {
      EXPECT_EQ(picks[k], plan.order[i * r + k]) << "req " << i << " rank "
                                                 << k;
    }
  }
  EXPECT_EQ(peak, plan.maxPlannedLoad);
  EXPECT_EQ(replay.maxLoad(), plan.maxPlannedLoad);
}

}  // namespace
}  // namespace dsm::plan
