// Pre-overhaul reference engines: per-iteration from-scratch wire builds
// (serial O(phase-size) offset pass + full parallel refill) driving the
// seed's five-sweep cycle (mpc::ReferenceCycle). Observable behaviour —
// values, iteration counts, trajectories, fault counters — is specified to
// be bit-identical to the optimized MajorityEngine / SingleOwnerEngine at
// any thread count; these classes exist so that
//   * tests can differentially check the optimized hot path against the
//     original algorithm on the same workload, and
//   * bench_e16_hotpath can measure the overhaul's speedup against a live
//     baseline instead of a number from a previous checkout.
// Test/bench-only (dsm_oracle): every iteration pays the pass count and
// allocator traffic the overhaul removed.
//
// The reference engines are also the QUORUM-PLANNER-OFF oracle: they always
// attack all r copies, which is exactly the behaviour a planner-on engine
// must reproduce value-for-value whenever every committed write reached a
// live write quorum (q + q > r: any read quorum intersects it). Their loops
// know no plans, so a batch prepared with the planner on is refused
// (util::CheckError) rather than silently run planner-off.
#pragma once

#include "dsm/protocol/engines.hpp"
#include "oracle/reference_cycle.hpp"

namespace dsm::protocol {

/// Section-3 clustered majority protocol, pre-overhaul implementation.
class ReferenceMajorityEngine : public EngineBase {
 public:
  ReferenceMajorityEngine(const scheme::MemoryScheme& scheme,
                          mpc::Machine& machine)
      : EngineBase(scheme, machine), cycle_(machine) {}

 protected:
  AccessResult executePrepared(const std::vector<AccessRequest>& batch,
                               const PreparedBatch& prep) override;

 private:
  mpc::ReferenceCycle cycle_;
};

/// One-processor-per-request engine, pre-overhaul implementation.
class ReferenceSingleOwnerEngine : public EngineBase {
 public:
  ReferenceSingleOwnerEngine(const scheme::MemoryScheme& scheme,
                             mpc::Machine& machine)
      : EngineBase(scheme, machine), cycle_(machine) {}

 protected:
  AccessResult executePrepared(const std::vector<AccessRequest>& batch,
                               const PreparedBatch& prep) override;

 private:
  mpc::ReferenceCycle cycle_;
};

}  // namespace dsm::protocol
