// The interconnect seam: pluggable delivery backends for the MPC's
// processor↔module traffic.
//
// The paper analyses the complete bipartite interconnect (every processor
// reaches every module in unit time) and deliberately factors out "the
// request routing problem — to be dealt with when the bipartite graph is
// simulated by a bounded-degree network". This interface closes that gap
// without perturbing the paper's model:
//
//   * CrossbarInterconnect — the paper's MPC. Delivery is free; the backend
//     reports zeroCost() and the Machine then NEVER collects winner sets or
//     makes a virtual call on the cycle path — the three bit-identical step
//     implementations (serial fused / module-sharded / atomic-min) run
//     exactly as they do on a machine with no interconnect installed.
//   * ButterflyInterconnect — the bounded-degree setting of [AHMP87, HB88,
//     Ran91]. Each cycle's post-arbitration winner set is routed through a
//     d-dimensional net::Butterfly (oblivious bit-fixing, store-and-forward,
//     FIFO queues) and the cost folds into MachineMetrics::networkCycles /
//     networkMaxQueue / networkStretch.
//
// Row-mapping convention (ButterflyInterconnect, non-power-of-two counts):
// the network has 2^d rows with d = max(1, ceil(log2(module_count))), so
// every module owns a DISTINCT output row — outputRow(m) = m, injective
// because module_count <= 2^d. Processor ids are unbounded (they are wire
// ids derived from batch positions), so input rows FOLD:
// inputRow(p) = p mod 2^d. Folding can queue several winners on one input
// row; injection is FIFO in wire order, matching the butterfly's documented
// tie-break-by-packet-index determinism.
//
// Port-shared (oversubscribed) variant: pass `ports` > 0 and the network is
// sized for `ports` rows instead of one per module — modules fold onto
// output rows the same way processors fold onto input rows
// (outputRow(m) = m mod 2^d). This is the standard setting where memory
// banks outnumber network interfaces: several modules answer through one
// port, so a cycle's winner set can aim multiple packets at one output row
// and delivery time becomes congestion-priced (serialization at the shared
// port) rather than diameter-priced. Folding never perturbs the machine's
// semantics — arbitration, grants, and replies are computed before routing;
// only the delivery cost model changes.
//
// What gets routed: one packet per module whose port was consumed this
// cycle — the arbitration winner — including winners whose grant the
// FaultPlan's drop noise then lost (the packet crossed the network; only
// the reply vanished). Requests to failed modules and arbitration losers
// never enter the network: they are refused at the memory side, which is
// exactly the separation the paper argues for (organize memory so the
// network only ever sees at most one packet per destination port in the
// dedicated layout — shared ports serialize their modules' winners).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dsm/net/butterfly.hpp"
#include "dsm/mpc/wire_plan.hpp"

namespace dsm::mpc {

/// One post-arbitration grant: `processor` won `module`'s port this cycle.
struct GrantLink {
  std::uint32_t processor = 0;
  std::uint64_t module = 0;
};

/// Delivery backend for one Machine. Implementations may keep per-cycle
/// scratch (routeWinners is non-const) but must be deterministic: the cost
/// of a winner set is a pure function of the set and its order.
class Interconnect {
 public:
  virtual ~Interconnect();

  virtual std::string name() const = 0;

  /// True when delivery is free (the paper's complete crossbar). The
  /// Machine then skips winner collection entirely, so a zero-cost backend
  /// adds no work — and no virtual dispatch — to the cycle hot path.
  virtual bool zeroCost() const noexcept = 0;

  /// Largest module count this backend can address (checked on install).
  virtual std::uint64_t moduleLimit() const noexcept = 0;

  /// Contention-free delivery time of one routed cycle — the denominator of
  /// the stretch metric. Zero for zero-cost backends.
  virtual std::uint64_t idealCycles() const noexcept = 0;

  /// Routes one cycle's winner set (at most one entry per module) and
  /// returns the network cost of delivering it.
  virtual net::RoutingStats routeWinners(
      const std::vector<GrantLink>& winners) = 0;

  /// Plan hand-off (Machine::announcePlan, once per protocol batch): the
  /// upcoming batch's wire summary. Purely advisory — backends may pre-size
  /// delivery scratch from it, but routing cost must stay a pure function of
  /// the winner sets actually routed. Default: ignore. No shipped backend
  /// overrides it (the butterfly's scratch persists across cycles); the
  /// perfbench tracing decorator still forwards it.
  virtual void onPlan(const WirePlan& plan) { (void)plan; }
};

/// The paper's complete processor↔module crossbar: every grant is delivered
/// in the cycle it was arbitrated, for free. This is the Machine's default
/// (an uninstalled interconnect behaves identically); the class exists so
/// code can install the paper's model explicitly and so differential tests
/// can assert the seam itself costs nothing.
class CrossbarInterconnect final : public Interconnect {
 public:
  std::string name() const override { return "crossbar"; }
  bool zeroCost() const noexcept override { return true; }
  std::uint64_t moduleLimit() const noexcept override { return ~0ULL; }
  std::uint64_t idealCycles() const noexcept override { return 0; }
  net::RoutingStats routeWinners(
      const std::vector<GrantLink>& winners) override;
};

/// Bounded-degree backend: winners cross a d-dimensional butterfly. See the
/// file comment for the row-mapping convention.
class ButterflyInterconnect final : public Interconnect {
 public:
  /// Sized for `module_count` modules: d = max(1, ceil(log2(module_count))).
  /// With `ports` > 0 the network is sized for `ports` rows instead
  /// (d = max(1, ceil(log2(ports)))) and modules SHARE output rows by
  /// folding — the oversubscribed layout described in the file comment.
  explicit ButterflyInterconnect(std::uint64_t module_count,
                                 std::uint64_t ports = 0);

  int dimension() const noexcept { return bf_.dimension(); }
  std::uint64_t rows() const noexcept { return bf_.rows(); }
  std::uint64_t moduleCount() const noexcept { return module_count_; }
  /// True when modules outnumber rows and fold onto shared output ports.
  bool portShared() const noexcept { return module_count_ > bf_.rows(); }

  /// Input row of a processor: wire ids fold onto the 2^d rows.
  std::uint32_t inputRow(std::uint32_t processor) const noexcept {
    return processor & static_cast<std::uint32_t>(bf_.rows() - 1);
  }
  /// Output row of a module: the identity in the dedicated layout
  /// (module_count <= rows, mask is a no-op), folded when ports are shared.
  std::uint32_t outputRow(std::uint64_t module) const noexcept {
    return static_cast<std::uint32_t>(module & (bf_.rows() - 1));
  }

  std::string name() const override { return "butterfly"; }
  bool zeroCost() const noexcept override { return false; }
  /// Dedicated layout: rows() bounds the addressable modules. Port-shared:
  /// any module count folds, so the limit is the constructor's own count.
  std::uint64_t moduleLimit() const noexcept override {
    return portShared() ? module_count_ : rows();
  }
  std::uint64_t idealCycles() const noexcept override {
    return static_cast<std::uint64_t>(bf_.dimension());
  }
  net::RoutingStats routeWinners(
      const std::vector<GrantLink>& winners) override;

 private:
  std::uint64_t module_count_;
  net::Butterfly bf_;                 // owns the router's reused scratch
  std::vector<net::Packet> packets_;  // per-cycle scratch, reused
};

}  // namespace dsm::mpc
