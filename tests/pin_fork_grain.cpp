// Linked into every gtest binary: pins the ThreadPool fork grain to its
// fixed floor before any test builds a pool. Test inputs are sized against
// that grain (the cycle-path rows force each Machine::step path by wire
// length, and the tsan suites must really fork), so pinning keeps every
// test forking where it was written to fork, on any host, instead of where
// this host's calibrated dispatch cost would put the cut.
#include "dsm/mpc/thread_pool.hpp"

namespace {

const bool kForkGrainPinned = [] {
  dsm::mpc::ThreadPool::setForkGrainForTesting(
      dsm::mpc::ThreadPool::kMinItemsPerWorker);
  return true;
}();

}  // namespace
