// Shared AccessResult comparator for the protocol differential tests: two
// runs that must agree (optimized vs reference engine, 1 vs N threads,
// planner on vs off, a continued stream vs one that never saw a bad batch)
// compare every field an AccessResult carries through one definition, so a
// new field is compared everywhere at once.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dsm/protocol/engines.hpp"

namespace dsm::protocol {

/// Whether a comparison includes AccessResult::networkCycles.
enum class NetworkCycles { kCompare, kIgnore };

/// Every field of `got` equals `want`. kIgnore is for runs on different
/// interconnect backends: networkCycles prices delivery on the installed
/// backend, so it differs between them by design while the outcome fields
/// must still match.
inline void expectSameResult(const AccessResult& got, const AccessResult& want,
                             const std::string& what,
                             NetworkCycles network = NetworkCycles::kCompare) {
  EXPECT_EQ(got.values, want.values) << what;
  EXPECT_EQ(got.totalIterations, want.totalIterations) << what;
  EXPECT_EQ(got.phaseIterations, want.phaseIterations) << what;
  EXPECT_EQ(got.liveTrajectory, want.liveTrajectory) << what;
  EXPECT_EQ(got.modeledSteps, want.modeledSteps) << what;
  if (network == NetworkCycles::kCompare) {
    EXPECT_EQ(got.networkCycles, want.networkCycles) << what;
  }
  EXPECT_EQ(got.unsatisfiable, want.unsatisfiable) << what;
}

/// Batch-by-batch expectSameResult over two streams of equal length.
inline void expectSameResults(const std::vector<AccessResult>& got,
                              const std::vector<AccessResult>& want,
                              const std::string& what,
                              NetworkCycles network = NetworkCycles::kCompare) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t b = 0; b < want.size(); ++b) {
    expectSameResult(got[b], want[b], what + " batch=" + std::to_string(b),
                     network);
  }
}

}  // namespace dsm::protocol
