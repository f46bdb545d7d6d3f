// Protocol-level contract of the interconnect seam: the backend prices
// delivery but never changes answers.
//   * Crossbar bit-identity gate — an engine over a crossbar-installed
//     machine produces byte-identical AccessResults to the same engine over
//     a plain machine, for both engines, at 1 and defaultThreads() threads,
//     with and without a FaultPlan.
//   * Butterfly — same outcomes as crossbar, with a nonzero deterministic
//     networkCycles figure that is identical across thread counts and adds
//     up consistently (per-batch results == engine metrics == machine).
//   * The pre-overhaul reference engine prices its traffic identically.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "dsm/mpc/interconnect.hpp"
#include "dsm/mpc/machine.hpp"
#include "dsm/protocol/engines.hpp"
#include "dsm/scheme/pp_scheme.hpp"
#include "dsm/util/rng.hpp"
#include "dsm/workload/generators.hpp"
#include "oracle/reference_engine.hpp"
#include "result_compare.hpp"

namespace dsm::protocol {
namespace {

enum class Backend { kNone, kCrossbar, kButterfly };

std::unique_ptr<mpc::Interconnect> makeBackend(Backend b,
                                               std::uint64_t modules) {
  switch (b) {
    case Backend::kNone:
      return nullptr;
    case Backend::kCrossbar:
      return std::make_unique<mpc::CrossbarInterconnect>();
    case Backend::kButterfly:
      return std::make_unique<mpc::ButterflyInterconnect>(modules);
  }
  return nullptr;
}

mpc::FaultPlan faultPlan() {
  mpc::FaultPlan plan;
  plan.grantDropProbability = 0.08;
  plan.seed = 23;
  plan.transientAt(3, 11, 30);
  plan.transientAt(10, 42, 25);
  return plan;
}

std::vector<std::vector<AccessRequest>> makeStream(
    const scheme::PpScheme& s, std::size_t batches, std::size_t batch_size,
    std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::vector<AccessRequest>> stream;
  for (std::size_t b = 0; b < batches; ++b) {
    const auto vars =
        workload::randomDistinct(s.numVariables(), batch_size, rng);
    stream.push_back(b % 2 == 0 ? workload::makeWrites(vars, b * batch_size)
                                : workload::makeReads(vars));
  }
  return stream;
}

struct StreamRun {
  std::vector<AccessResult> results;
  std::uint64_t engineNetworkCycles = 0;
  std::uint64_t machineNetworkCycles = 0;
};

template <typename Engine>
StreamRun runStream(const scheme::PpScheme& s,
              const std::vector<std::vector<AccessRequest>>& stream,
              unsigned threads, bool faults, Backend backend) {
  StreamRun out;
  mpc::Machine m(s.numModules(), s.slotsPerModule(), threads);
  m.setInterconnect(makeBackend(backend, s.numModules()));
  if (faults) m.setFaultPlan(faultPlan());
  Engine eng(s, m);
  out.results = eng.executeStream(stream);
  out.engineNetworkCycles = eng.metrics().networkCycles;
  out.machineNetworkCycles = m.metrics().networkCycles;
  return out;
}

class InterconnectProtocolTest : public ::testing::Test {
 protected:
  const scheme::PpScheme s_{1, 5};
  const std::vector<std::vector<AccessRequest>> stream_ =
      makeStream(s_, 6, 64, 41);
};

TEST_F(InterconnectProtocolTest, CrossbarBitIdentityMajority) {
  for (const unsigned threads : {1u, mpc::ThreadPool::defaultThreads()}) {
    for (const bool faults : {false, true}) {
      const StreamRun plain = runStream<MajorityEngine>(s_, stream_, threads,
                                                  faults, Backend::kNone);
      const StreamRun xbar = runStream<MajorityEngine>(s_, stream_, threads,
                                                 faults, Backend::kCrossbar);
      expectSameResults(plain.results, xbar.results, "majority/crossbar");
      EXPECT_EQ(xbar.engineNetworkCycles, 0u);
      EXPECT_EQ(xbar.machineNetworkCycles, 0u);
    }
  }
}

TEST_F(InterconnectProtocolTest, CrossbarBitIdentitySingleOwner) {
  for (const unsigned threads : {1u, mpc::ThreadPool::defaultThreads()}) {
    for (const bool faults : {false, true}) {
      const StreamRun plain = runStream<SingleOwnerEngine>(s_, stream_, threads,
                                                     faults, Backend::kNone);
      const StreamRun xbar = runStream<SingleOwnerEngine>(
          s_, stream_, threads, faults, Backend::kCrossbar);
      expectSameResults(plain.results, xbar.results, "single-owner/crossbar");
      EXPECT_EQ(xbar.engineNetworkCycles, 0u);
    }
  }
}

TEST_F(InterconnectProtocolTest, ButterflyMatchesCrossbarOutcomes) {
  for (const bool faults : {false, true}) {
    const StreamRun xbar =
        runStream<MajorityEngine>(s_, stream_, 1, faults, Backend::kCrossbar);
    const StreamRun bfly = runStream<MajorityEngine>(s_, stream_, 1, faults,
                                               Backend::kButterfly);
    // networkCycles is the butterfly's delivery price (zero on the
    // crossbar), so only the outcome fields can match across backends.
    expectSameResults(xbar.results, bfly.results, "butterfly-vs-crossbar",
                      NetworkCycles::kIgnore);
    // The network prices every batch, and the figures add up: per-batch
    // deltas == engine total == machine total.
    std::uint64_t sum = 0;
    for (const auto& r : bfly.results) {
      EXPECT_GT(r.networkCycles, 0u);
      sum += r.networkCycles;
    }
    EXPECT_EQ(sum, bfly.engineNetworkCycles);
    EXPECT_EQ(sum, bfly.machineNetworkCycles);
  }
}

TEST_F(InterconnectProtocolTest, ButterflyNetworkCostThreadIdentity) {
  for (const bool faults : {false, true}) {
    const StreamRun serial = runStream<MajorityEngine>(s_, stream_, 1, faults,
                                                 Backend::kButterfly);
    const StreamRun forked = runStream<MajorityEngine>(
        s_, stream_, mpc::ThreadPool::defaultThreads(), faults,
        Backend::kButterfly);
    expectSameResults(serial.results, forked.results, "butterfly-threads");
    EXPECT_GT(serial.engineNetworkCycles, 0u);
    EXPECT_EQ(serial.engineNetworkCycles, forked.engineNetworkCycles);
    EXPECT_EQ(serial.machineNetworkCycles, forked.machineNetworkCycles);
  }
}

TEST_F(InterconnectProtocolTest, ReferenceEnginePricesIdentically) {
  // The pre-overhaul engine issues the same wire traffic through the
  // reference cycle, which routes through the same epilogue — so even the
  // network cost of every batch must agree with the overhauled engine.
  for (const bool faults : {false, true}) {
    const StreamRun fast = runStream<MajorityEngine>(s_, stream_, 1, faults,
                                               Backend::kButterfly);
    const StreamRun ref = runStream<ReferenceMajorityEngine>(
        s_, stream_, 1, faults, Backend::kButterfly);
    expectSameResults(fast.results, ref.results, "reference-parity");
    EXPECT_EQ(fast.engineNetworkCycles, ref.engineNetworkCycles);
  }
}

}  // namespace
}  // namespace dsm::protocol
