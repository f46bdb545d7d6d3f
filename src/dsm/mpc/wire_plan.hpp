// WirePlan — the downward-facing view of a protocol batch's quorum plan
// (dsm/plan BatchPlan), as the machine and interconnect layers see it.
//
// The plan module sits above the machine (it needs the scheme's addressing),
// so the full BatchPlan cannot cross into dsm_mpc without a dependency
// cycle. This tiny POD is the hand-off: the engine derives it from the
// current batch's BatchPlan and announces it once before the batch's wire
// rounds (Machine::announcePlan), which forwards it to a routed backend's
// Interconnect::onPlan, where a backend could pre-size delivery scratch
// from the planned wire volume (none does: the butterfly's scratch persists
// across cycles). Advisory only: the machine keeps no plan state, and
// responses, cell state and every network metric are independent of it.
#pragma once

#include <cstdint>

namespace dsm::mpc {

/// Plan summary for one protocol batch, valid across its wire rounds.
struct WirePlan {
  /// Planned wire entries for the batch: sum over requests of the planned
  /// target count (batch * r minus the planner's wire savings).
  std::uint64_t plannedRequests = 0;
  /// The greedy sweep's achieved bottleneck — the worst per-module planned
  /// load (BatchPlan::maxPlannedLoad). An upper-bound hint for per-cycle
  /// congestion, not a constraint the machine enforces.
  std::uint64_t plannedPeakLoad = 0;
};

}  // namespace dsm::mpc
