// Machine-level contract of the interconnect seam (interconnect.hpp):
//   * a zero-cost backend (crossbar, or none) leaves step() bit-identical
//     and never touches the network metrics;
//   * ButterflyInterconnect's row mapping covers non-power-of-two module
//     counts (distinct output row per module, folded input rows);
//   * the routed winner set is exactly the consumed ports — including
//     grants later lost to drop noise, excluding failed modules — and its
//     cost is identical at every thread count;
//   * install-time validation and resetMetrics interplay;
//   * on every cycle path (Machine::step at 1 and 4 threads, and the
//     reference cycle) the winner set handed to the backend is exactly the
//     lowest processor id per live module, in wire order.
#include "dsm/mpc/interconnect.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "dsm/mpc/machine.hpp"
#include "dsm/util/assert.hpp"
#include "dsm/util/rng.hpp"
#include "oracle/reference_cycle.hpp"

namespace dsm::mpc {
namespace {

constexpr Op kOps[] = {Op::kRead, Op::kWrite, Op::kCommit, Op::kAbort,
                       Op::kRepair};

// Contended wire: `per_module` competing requests per module, rotating ops.
std::vector<Request> contendedWire(std::uint64_t modules, std::uint64_t slots,
                                   std::uint64_t per_module,
                                   std::uint64_t cyc) {
  std::vector<Request> wire;
  for (std::uint64_t i = 0; i < modules * per_module; ++i) {
    wire.push_back(Request{static_cast<std::uint32_t>(i), i % modules,
                           (i / modules + cyc) % slots, kOps[(i + cyc) % 5],
                           i ^ cyc, cyc + 1});
  }
  return wire;
}

TEST(Interconnect, CrossbarIsZeroCostAndLeavesStepIdentical) {
  Machine plain(16, 32, 1);
  Machine xbar(16, 32, 1);
  xbar.setInterconnect(std::make_unique<CrossbarInterconnect>());
  ASSERT_NE(xbar.interconnect(), nullptr);
  EXPECT_EQ(xbar.interconnect()->name(), "crossbar");
  // Zero-cost backends never activate the per-cycle routing epilogue.
  EXPECT_FALSE(xbar.networkActive());
  std::vector<Response> ra;
  std::vector<Response> rb;
  for (std::uint64_t cyc = 0; cyc < 12; ++cyc) {
    const auto wire = contendedWire(16, 32, 3, cyc);
    plain.step(wire, ra);
    xbar.step(wire, rb);
    EXPECT_TRUE(ra == rb) << "cycle " << cyc;
  }
  const auto& pm = plain.metrics();
  const auto& xm = xbar.metrics();
  EXPECT_EQ(pm.requestsGranted, xm.requestsGranted);
  EXPECT_EQ(pm.maxModuleQueue, xm.maxModuleQueue);
  EXPECT_EQ(xm.networkCycles, 0u);
  EXPECT_EQ(xm.networkPackets, 0u);
  EXPECT_EQ(xm.networkMaxQueue, 0u);
  EXPECT_DOUBLE_EQ(xm.networkStretch, 0.0);
}

TEST(Interconnect, ButterflyRowMappingCoversNonPowerOfTwo) {
  // 13 modules need d = ceil(log2 13) = 4, 16 rows: every module keeps a
  // distinct output row, processor ids fold onto the 16 input rows.
  ButterflyInterconnect ic(13);
  EXPECT_EQ(ic.name(), "butterfly");
  EXPECT_FALSE(ic.zeroCost());
  EXPECT_EQ(ic.dimension(), 4);
  EXPECT_EQ(ic.rows(), 16u);
  EXPECT_EQ(ic.moduleLimit(), 16u);
  EXPECT_EQ(ic.idealCycles(), 4u);
  for (std::uint64_t m = 0; m < 13; ++m) {
    EXPECT_EQ(ic.outputRow(m), m);
  }
  EXPECT_EQ(ic.inputRow(5), 5u);
  EXPECT_EQ(ic.inputRow(16), 0u);
  EXPECT_EQ(ic.inputRow(19), 3u);
  EXPECT_EQ(ic.inputRow(0xFFFFFFF1u), 1u);
  // The degenerate single-module machine still gets a (two-row) network.
  ButterflyInterconnect tiny(1);
  EXPECT_EQ(tiny.dimension(), 1);
  EXPECT_EQ(tiny.rows(), 2u);
}

TEST(Interconnect, PortSharedLayoutFoldsModulesOntoRows) {
  // Oversubscribed network: 13 modules answer through 4 ports — the net is
  // sized for the ports, and modules fold onto output rows mod 2^d.
  ButterflyInterconnect ic(13, 4);
  EXPECT_EQ(ic.dimension(), 2);
  EXPECT_EQ(ic.rows(), 4u);
  EXPECT_TRUE(ic.portShared());
  EXPECT_EQ(ic.moduleLimit(), 13u);
  EXPECT_EQ(ic.idealCycles(), 2u);
  EXPECT_EQ(ic.outputRow(0), 0u);
  EXPECT_EQ(ic.outputRow(5), 1u);
  EXPECT_EQ(ic.outputRow(12), 0u);
  // ports >= module_count degenerates to the dedicated layout.
  ButterflyInterconnect wide(13, 16);
  EXPECT_FALSE(wide.portShared());
  EXPECT_EQ(wide.rows(), 16u);
  EXPECT_EQ(wide.moduleLimit(), 16u);
  // A machine whose module count exceeds the row count installs fine when
  // the backend was built port-shared for that count.
  Machine m(13, 8, 1);
  m.setInterconnect(std::make_unique<ButterflyInterconnect>(13, 4));
  EXPECT_TRUE(m.networkActive());
}

TEST(Interconnect, SharedPortsSerializeWinnersCongestionPriced) {
  // One winner per module, but every module folds onto only 2 ports: the
  // shared output link serializes deliveries, so cycles grow with the
  // per-port inflow instead of staying pinned at the diameter — while the
  // grants themselves (computed before routing) are unchanged.
  auto run = [](std::uint64_t ports) {
    Machine m(8, 16, 1);
    m.setInterconnect(std::make_unique<ButterflyInterconnect>(8, ports));
    std::vector<Response> resp;
    for (std::uint64_t cyc = 0; cyc < 10; ++cyc) {
      m.step(contendedWire(8, 16, 1, cyc), resp);
    }
    return m.metrics();
  };
  const MachineMetrics dedicated = run(0);
  const MachineMetrics shared = run(2);
  EXPECT_EQ(shared.requestsGranted, dedicated.requestsGranted);
  EXPECT_EQ(shared.networkPackets, dedicated.networkPackets);
  EXPECT_GT(shared.networkCycles, dedicated.networkCycles);
  EXPECT_GT(shared.networkMaxQueue, dedicated.networkMaxQueue);
}

TEST(Interconnect, InstallValidatesModuleLimit) {
  Machine m(32, 8, 1);
  // 16 rows cannot address 32 modules: refused at install time, and the
  // machine keeps its previous (default) backend.
  EXPECT_THROW(m.setInterconnect(std::make_unique<ButterflyInterconnect>(16)),
               util::CheckError);
  EXPECT_EQ(m.interconnect(), nullptr);
  EXPECT_FALSE(m.networkActive());
  m.setInterconnect(std::make_unique<ButterflyInterconnect>(32));
  EXPECT_TRUE(m.networkActive());
  // nullptr restores the free-delivery default.
  m.setInterconnect(nullptr);
  EXPECT_FALSE(m.networkActive());
  EXPECT_THROW(ButterflyInterconnect(0), util::CheckError);
}

TEST(Interconnect, RoutesExactlyTheConsumedPorts) {
  // Winner accounting: every consumed port crosses the network — grants
  // AND grants subsequently lost to drop noise (the packet travelled; only
  // the reply vanished). Arbitration losers never inject a packet.
  FaultPlan plan;
  plan.grantDropProbability = 0.3;
  plan.seed = 99;
  Machine m(16, 32, 1);
  m.setInterconnect(std::make_unique<ButterflyInterconnect>(16));
  m.setFaultPlan(plan);
  std::vector<Response> resp;
  for (std::uint64_t cyc = 0; cyc < 20; ++cyc) {
    m.step(contendedWire(16, 32, 3, cyc), resp);
  }
  const auto& mm = m.metrics();
  EXPECT_GT(mm.grantsDropped, 0u);
  EXPECT_EQ(mm.networkPackets, mm.requestsGranted + mm.grantsDropped);
  EXPECT_GT(mm.networkCycles, 0u);
  EXPECT_GE(mm.networkStretch, 1.0);
}

TEST(Interconnect, FailedModulesRouteNothing) {
  Machine m(8, 16, 1);
  m.setInterconnect(std::make_unique<ButterflyInterconnect>(8));
  for (std::uint64_t mod = 0; mod < 8; ++mod) m.failModule(mod);
  std::vector<Response> resp;
  m.step(contendedWire(8, 16, 2, 0), resp);
  for (const auto& r : resp) EXPECT_TRUE(r.moduleFailed);
  EXPECT_EQ(m.metrics().networkPackets, 0u);
  EXPECT_EQ(m.metrics().networkCycles, 0u);
  // Heal half: only the live modules' ports inject packets.
  for (std::uint64_t mod = 0; mod < 4; ++mod) m.healModule(mod);
  m.step(contendedWire(8, 16, 2, 1), resp);
  EXPECT_EQ(m.metrics().networkPackets, 4u);
}

TEST(Interconnect, NetworkMetricsIdenticalAcrossThreadCounts) {
  // The routed winner set is re-derived serially in wire order, so network
  // figures are a pure function of the wire history — a machine with a
  // wider pool must produce the exact same packets.
  auto run = [](unsigned threads) {
    Machine m(64, 64, threads);
    m.setInterconnect(std::make_unique<ButterflyInterconnect>(64));
    FaultPlan plan;
    plan.grantDropProbability = 0.1;
    plan.seed = 7;
    plan.transientAt(3, 5, 6);
    m.setFaultPlan(plan);
    std::vector<Response> resp;
    for (std::uint64_t cyc = 0; cyc < 25; ++cyc) {
      m.step(contendedWire(64, 64, 4, cyc), resp);
    }
    return m.metrics();
  };
  const MachineMetrics serial = run(1);
  EXPECT_GT(serial.networkCycles, 0u);
  for (const unsigned threads : {2u, ThreadPool::defaultThreads()}) {
    const MachineMetrics forked = run(threads);
    EXPECT_EQ(forked.networkCycles, serial.networkCycles) << threads;
    EXPECT_EQ(forked.networkPackets, serial.networkPackets) << threads;
    EXPECT_EQ(forked.networkMaxQueue, serial.networkMaxQueue) << threads;
    EXPECT_EQ(forked.networkIdealCycles, serial.networkIdealCycles)
        << threads;
    EXPECT_DOUBLE_EQ(forked.networkStretch, serial.networkStretch) << threads;
  }
}

TEST(Interconnect, StepReferencePricesTheSameTraffic) {
  // The differential oracle routes through the same epilogue: a reference
  // machine with the same backend reports identical network figures.
  Machine fast(16, 32, 1);
  Machine ref(16, 32, 1);
  ReferenceCycle oracle(ref);
  fast.setInterconnect(std::make_unique<ButterflyInterconnect>(16));
  ref.setInterconnect(std::make_unique<ButterflyInterconnect>(16));
  std::vector<Response> ra;
  std::vector<Response> rb;
  for (std::uint64_t cyc = 0; cyc < 15; ++cyc) {
    const auto wire = contendedWire(16, 32, 3, cyc);
    fast.step(wire, ra);
    oracle.step(wire, rb);
    EXPECT_TRUE(ra == rb) << "cycle " << cyc;
  }
  EXPECT_GT(fast.metrics().networkCycles, 0u);
  EXPECT_EQ(fast.metrics().networkCycles, ref.metrics().networkCycles);
  EXPECT_EQ(fast.metrics().networkPackets, ref.metrics().networkPackets);
  EXPECT_EQ(fast.metrics().networkMaxQueue, ref.metrics().networkMaxQueue);
}

TEST(Interconnect, ResetMetricsClearsNetworkFigures) {
  Machine m(16, 32, 1);
  m.setInterconnect(std::make_unique<ButterflyInterconnect>(16));
  std::vector<Response> resp;
  m.step(contendedWire(16, 32, 2, 0), resp);
  EXPECT_GT(m.metrics().networkCycles, 0u);
  m.resetMetrics();
  EXPECT_EQ(m.metrics().networkCycles, 0u);
  EXPECT_EQ(m.metrics().networkPackets, 0u);
  EXPECT_EQ(m.metrics().networkIdealCycles, 0u);
  EXPECT_DOUBLE_EQ(m.metrics().networkStretch, 0.0);
  // The backend stays installed across a metrics reset.
  EXPECT_TRUE(m.networkActive());
  m.step(contendedWire(16, 32, 2, 1), resp);
  EXPECT_GT(m.metrics().networkCycles, 0u);
}

// Records every routed winner set; one delivery cycle per nonempty set.
class RecordingInterconnect final : public Interconnect {
 public:
  explicit RecordingInterconnect(std::vector<std::vector<GrantLink>>& log)
      : log_(log) {}
  std::string name() const override { return "recording"; }
  bool zeroCost() const noexcept override { return false; }
  std::uint64_t moduleLimit() const noexcept override { return ~0ULL; }
  std::uint64_t idealCycles() const noexcept override { return 1; }
  net::RoutingStats routeWinners(
      const std::vector<GrantLink>& winners) override {
    log_.push_back(winners);
    net::RoutingStats stats;
    stats.packets = winners.size();
    stats.cycles = winners.empty() ? 0 : 1;
    return stats;
  }

 private:
  std::vector<std::vector<GrantLink>>& log_;
};

// The arbitration rule replayed independently of the machine: per live
// module the lowest (processor, wire index) wins; winners listed in wire
// order.
std::vector<GrantLink> replayWinners(const Machine& m,
                                     const std::vector<Request>& wire) {
  std::vector<std::size_t> best(m.moduleCount(), wire.size());
  for (std::size_t i = 0; i < wire.size(); ++i) {
    const std::size_t mod = static_cast<std::size_t>(wire[i].module);
    if (m.isFailed(mod)) continue;
    const std::size_t b = best[mod];
    if (b == wire.size() || wire[i].processor < wire[b].processor) {
      best[mod] = i;
    }
  }
  std::vector<GrantLink> winners;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    if (best[static_cast<std::size_t>(wire[i].module)] == i) {
      winners.push_back(GrantLink{wire[i].processor, wire[i].module});
    }
  }
  return winners;
}

TEST(Interconnect, WinnerSetIsLowestProcessorPerLiveModuleOnEveryPath) {
  struct Path {
    const char* name;
    std::uint64_t modules;
    std::uint64_t targeted;  // the wire hits modules [0, targeted)
    unsigned threads;
    bool reference;
  };
  // 1024-entry wires: the reference cycle's pool forks (4 participants)
  // at 4 threads.
  const std::size_t n = 1024;
  const Path paths[] = {
      {"step/1-thread", 64, 64, 1, false},
      {"step/4-thread/wire-outnumbers-modules", 64, 64, 4, false},
      {"step/4-thread/modules-outnumber-wire", 4096, 512, 4, false},
      {"reference-cycle", 64, 64, 4, true},
  };
  for (const Path& path : paths) {
    SCOPED_TRACE(path.name);
    std::vector<std::vector<GrantLink>> log;
    Machine m(path.modules, 16, path.threads);
    ReferenceCycle oracle(m);
    m.setInterconnect(std::make_unique<RecordingInterconnect>(log));
    FaultPlan plan;
    plan.grantDropProbability = 0.2;
    plan.seed = 31;
    plan.transientAt(2, 3, 4);
    plan.failAt(5, 7);
    m.setFaultPlan(plan);
    util::Xoshiro256 rng(404);
    std::vector<Request> wire(n);
    std::vector<Response> resp;
    std::uint64_t failed_requests = 0;
    for (std::uint64_t cyc = 0; cyc < 10; ++cyc) {
      for (Request& q : wire) {
        // Processor ids repeat across the wire, so ties break by index.
        q = Request{static_cast<std::uint32_t>(rng.below(n)),
                    rng.below(path.targeted), rng.below(16),
                    kOps[rng.below(5)], rng(), cyc + 1};
      }
      path.reference ? oracle.step(wire, resp) : m.step(wire, resp);
      ASSERT_EQ(log.size(), cyc + 1);
      // Fault events apply before a step, so isFailed now is this cycle's.
      const std::vector<GrantLink> want = replayWinners(m, wire);
      const std::vector<GrantLink>& got = log.back();
      ASSERT_EQ(got.size(), want.size()) << "cycle " << cyc;
      for (std::size_t w = 0; w < want.size(); ++w) {
        EXPECT_EQ(got[w].processor, want[w].processor) << "cycle " << cyc;
        EXPECT_EQ(got[w].module, want[w].module) << "cycle " << cyc;
      }
      for (const Response& r : resp) failed_requests += r.moduleFailed;
    }
    // The outage and drop paths genuinely ran.
    EXPECT_GT(failed_requests, 0u);
    EXPECT_GT(m.metrics().grantsDropped, 0u);
    EXPECT_EQ(m.metrics().networkPackets,
              m.metrics().requestsGranted + m.metrics().grantsDropped);
  }
}

}  // namespace
}  // namespace dsm::mpc
