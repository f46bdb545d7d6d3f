// dsm/plan — the shared placement artifact threaded from admission to the
// wire (DESIGN.md §15).
//
// PR 9's quorum planner proved that exploiting any-q-of-r slack cuts wire
// traffic, but its per-module load histogram lived as scratch inside
// CopyCache and its output was five loose fields on the engine's
// PreparedBatch — invisible to the serving layer above (which composed
// batches blind to module load) and to the network below (which re-derived
// the winner set the plan had already decided). This module makes placement
// a first-class artifact with exactly one producer and three consumers:
//
//   * ModuleLoadModel — the per-module planned-load histogram. The engine
//     owns one as its planner scratch (per-batch, sparse reset); the
//     admission scheduler keeps one PER OPEN BATCH during plan-aware
//     composition, replaying the engine's greedy rule as it places slots so
//     its prediction of each batch's plan is exact (§15 invariant).
//   * BatchPlan — one batch's quorum plan: per-request target ranks in
//     deterministic escalation order, produced at prepare time — by build()
//     (the greedy balanced-assignment sweep, verbatim the PR 9 rule) with
//     the planner on, by identity() (all r copies in copy order) with it
//     off — and consumed by the engines' one wire loop. The escalation
//     bookkeeping (initTargets / escalateUntilQuorum / openOneSpare) lives
//     here too, so both engines share one implementation of the open-rank
//     invariant.
//   * WirePlan (mpc/wire_plan.hpp) — the downward summary BatchPlan::wire()
//     derives for Machine::announcePlan, an advisory hint a routed backend
//     may pre-size its delivery scratch from.
//
// Everything here is a pure function of (batch, resolved copies): no clock,
// no RNG, no thread count — the properties every determinism gate in the
// stack leans on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dsm/mpc/wire_plan.hpp"
#include "dsm/scheme/memory_scheme.hpp"

namespace dsm::plan {

/// Per-module planned-load histogram with sparse reset: sized to the module
/// count on ensure(), and reset() re-zeroes only the entries bumped since —
/// planner batches touch O(batch * r) modules of potentially millions, so a
/// full clear per batch would swamp the plan itself. Single-threaded by
/// contract (the engine's one-in-flight-prepare rule; the scheduler's
/// driver thread).
class ModuleLoadModel {
 public:
  /// Sizes the histogram for `num_modules` (zero-filled on growth; cheap
  /// no-op once sized). Callers invoke this before the first bump.
  void ensure(std::uint64_t num_modules) {
    if (load_.size() < static_cast<std::size_t>(num_modules)) {
      load_.assign(static_cast<std::size_t>(num_modules), 0);
    }
  }

  std::uint32_t load(std::uint64_t m) const {
    return load_[static_cast<std::size_t>(m)];
  }

  void bump(std::uint64_t m) {
    std::uint32_t& l = load_[static_cast<std::size_t>(m)];
    if (l == 0) touched_.push_back(m);
    ++l;
    if (l > max_load_) max_load_ = l;
  }

  /// Largest load any module accumulated since the last reset().
  std::uint32_t maxLoad() const noexcept { return max_load_; }

  /// Re-zeroes exactly the modules bumped since the last reset.
  void reset() {
    for (const std::uint64_t m : touched_) {
      load_[static_cast<std::size_t>(m)] = 0;
    }
    touched_.clear();
    max_load_ = 0;
  }

  std::size_t modules() const noexcept { return load_.size(); }
  std::size_t touchedCount() const noexcept { return touched_.size(); }

 private:
  std::vector<std::uint32_t> load_;
  std::vector<std::uint64_t> touched_;  ///< modules bumped since reset()
  std::uint32_t max_load_ = 0;
};

/// The quorum plan of one protocol batch (DESIGN.md §14/§15).
///
/// order[i*r + k] is the copy index request i attacks at rank k: ranks
/// [0, count[i]) are the planned targets, ranks beyond are the spares in
/// deterministic (coldest-first) escalation order. count[i] is readQuorum()
/// for reads and r for writes — writes keep their full attack; their
/// permutation is the congestion-interleaved order.
///
/// The identity plan (identity()) is the planner-off form: every request
/// opens all r ranks in copy order, so no rank is ever a spare and no
/// escalation can fire — exactly the "attack every copy" protocol, run by
/// the same wire loop as a built plan.
struct BatchPlan {
  std::vector<std::uint16_t> order;
  std::vector<std::uint16_t> count;
  std::uint64_t wireSavings = 0;     ///< sum of r - count[i]
  std::uint64_t maxPlannedLoad = 0;  ///< greedy sweep's achieved bottleneck
  bool planned = false;              ///< built by build(), not identity()

  /// The greedy balanced-assignment sweep: requests in batch order, each
  /// picking its copies one at a time — each time the copy whose module
  /// carries the least planned load so far, stable tie-break by module
  /// index, bumping the histogram for ranks below the target count only
  /// (spares are ordered by it, never counted). O(r^2) per request with r
  /// tiny. Preconditions: count[] already holds each request's target count
  /// (the engine's op knowledge), copies is the batch's flat [i*r + j]
  /// resolved-address array, model is sized (ensure) and zeroed; it is left
  /// zeroed (sparse reset) on return. Pure function of (count, copies).
  void build(const scheme::PhysicalAddress* copies, std::size_t r,
             ModuleLoadModel& model);

  /// Fills the identity plan for `b` requests of `r` copies: order
  /// 0..r-1 per request, count r, zero savings and planned load.
  void identity(std::size_t b, std::size_t r);

  /// First rank a one-message-per-round owner tries for a request whose
  /// `open` ranks are open, staggered by `stagger` (request index plus
  /// round). The identity plan rotates every request, so identical-copy-set
  /// requests spread their attempts; a built plan walks reads from rank 0 —
  /// the primary target is attacked persistently, spares only once
  /// escalation opened them — and keeps the rotation for writes, in rank
  /// space.
  std::size_t startRank(bool read, std::size_t stagger,
                        std::size_t open) const noexcept {
    return planned && read ? 0 : stagger % open;
  }

  /// The downward summary handed to Machine::announcePlan.
  mpc::WirePlan wire(std::size_t r) const noexcept {
    return mpc::WirePlan{count.size() * r - wireSavings, maxPlannedLoad};
  }

  /// Phase init for one request (after the engine premarked
  /// known-dead copies, before its first transition): counts the live ranks
  /// of the planned prefix and escalates past premarked-dead targets until
  /// `quorum` live ranks are open or the spares are exhausted. `order` and
  /// `dead` point at the request's own r-wide rows.
  static void initTargets(const std::uint16_t* order,
                          std::uint16_t planned_count,
                          const std::uint8_t* dead, unsigned quorum,
                          std::size_t r, unsigned& target_count,
                          unsigned& live_targets);

  /// Mid-phase escalation after a planned copy died: opens ranks until
  /// `quorum` live ranks are open again or the spares run out, maintaining
  /// the invariant live_targets == #{k < target_count : !dead[order[k]]}.
  /// Returns true if any rank was opened (the caller's segment must
  /// rebuild).
  static bool escalateUntilQuorum(const std::uint16_t* order,
                                  const std::uint8_t* dead, unsigned quorum,
                                  std::size_t r, unsigned& target_count,
                                  unsigned& live_targets);

  /// FaultPlan grant-drop escalation: opens exactly ONE spare to route
  /// around the lossy module (the dropped copy stays open — it may still be
  /// granted later). Precondition: target_count < r.
  static void openOneSpare(const std::uint16_t* order,
                           const std::uint8_t* dead, unsigned& target_count,
                           unsigned& live_targets);
};

/// Placement probe for plan-aware admission (DESIGN.md §15): the max
/// planned load any of the request's chosen target modules would carry
/// AFTER placing it on `model` — the engine planner's per-request greedy
/// pick (least load, tie-break by module index, overlaying this request's
/// own earlier picks), without mutating the model. `pick_scratch` is caller
/// scratch resized to `targets`.
std::uint32_t probePlacement(const ModuleLoadModel& model,
                             const scheme::PhysicalAddress* copies,
                             std::size_t r, std::size_t targets,
                             std::vector<std::uint16_t>& pick_scratch);

/// Commits the pick probePlacement scored: bumps the same `targets` modules
/// on `model`. Replaying exactly the greedy rule BatchPlan::build applies
/// keeps the scheduler's per-batch model equal to the histogram the engine
/// will rebuild for that batch at prepare time (§15 invariant).
void commitPlacement(ModuleLoadModel& model,
                     const scheme::PhysicalAddress* copies, std::size_t r,
                     std::size_t targets,
                     std::vector<std::uint16_t>& pick_scratch);

}  // namespace dsm::plan
