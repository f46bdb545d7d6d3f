// E22 — planned serving: the BatchPlan threaded end to end (DESIGN.md §15).
//
// Two serving stacks replay the same Zipf-skewed overdriven trace through a
// PORT-SHARED butterfly-routed machine — the memory banks outnumber the
// network interfaces (--ports), so several modules answer through one output
// row and a round's delivery time is congestion-priced (serialization at the
// shared ports) instead of diameter-pinned. That is the regime the plan is
// for: baseline reads keep surplus copies in flight, spreading winners over
// more ports per round, while planned reads inject only the quorum the rule
// needs:
//
//   * baseline — the PR 9 stack: combining composition, quorum planner OFF
//     (the identity plan), plan-aware composition OFF. Every read attacks
//     all r copies.
//   * planned — the full §15 pipeline: the engine planner narrows reads to
//     their q-copy target sets (BatchPlan), and the admission scheduler
//     scores slot placement against per-batch module-load models
//     (plan-aware composition).
// Both route each cycle's winner set read off the response flags.
//
// Gates (exit code 1 on violation):
//   * transparency: a skewed no-shed trace replayed baseline and planned
//     produces identical per-request (status, value) maps — at 1 machine
//     thread, defaultThreads() and 3, fault-free AND under a FaultPlan
//     (transient module outage + grant-drop noise). The plan must change
//     what serving costs, never what it answers.
//   * wire: baseline/planned engine wireRequests >= 1.15x on the fault-free
//     trace (reads stop attacking copies the quorum rule never needed);
//   * network: baseline/planned butterfly networkCycles >= 1.15x on the same
//     trace. The rounds are where the network time goes: plan-aware
//     composition packs each pump into fewer, fuller batches (baseline's
//     write slots chain into fresh batches; steering absorbs read-only runs
//     into the open ones), and every batch avoided is three protocol phases
//     of rounds the butterfly never has to carry;
//   * the planned run actually exercised the machinery: plannedWireSavings,
//     plannedNetworkCycles and planAwarePlacements all nonzero, zero
//     escalations on the fault-free trace.
//
// --smoke shrinks the trace for `ctest -L perf`; full runs also write
// BENCH_e22.json.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "dsm/mpc/interconnect.hpp"
#include "dsm/mpc/machine.hpp"
#include "dsm/mpc/thread_pool.hpp"
#include "dsm/protocol/engines.hpp"
#include "dsm/scheme/pp_scheme.hpp"
#include "dsm/serve/serve.hpp"
#include "dsm/util/rng.hpp"
#include "dsm/util/table.hpp"
#include "dsm/workload/generators.hpp"

namespace dsm {
namespace {

/// Zipf(alpha) sampler over [0, n): P(i) proportional to 1/(i+1)^alpha,
/// inverse-CDF via binary search (same shape as E19's).
class ZipfSampler {
 public:
  ZipfSampler(std::uint64_t n, double alpha) : cdf_(n) {
    double total = 0.0;
    for (std::uint64_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  std::uint64_t operator()(util::Xoshiro256& rng) const {
    const double u = rng.uniform();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::uint64_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

struct BenchParams {
  std::size_t max_batch = 512;
  std::size_t batches_per_pump = 3;
  std::uint64_t offered_ticks = 24;
  std::size_t sessions = 16;
  std::uint64_t var_pool = 4096;
  double alpha = 1.1;
  double offered_factor = 2.0;
  std::uint64_t read_pct = 90;
  std::uint64_t seed = 22;
  std::uint64_t ports = 128;
};

// (session index, requestId) -> (status, value)
using ResponseMap = std::map<std::pair<std::size_t, std::uint64_t>,
                             std::pair<serve::Status, std::uint64_t>>;

struct ModeResult {
  ResponseMap responses;
  std::uint64_t served = 0;
  std::uint64_t batches = 0;
  std::uint64_t wire_requests = 0;
  std::uint64_t network_cycles = 0;
  std::uint64_t planned_network_cycles = 0;
  std::uint64_t plan_savings = 0;
  std::uint64_t escalations = 0;
  std::uint64_t plan_placements = 0;
  std::uint64_t plan_deflections = 0;
  std::uint64_t combined_reads = 0;
  std::uint64_t max_module_queue = 0;
  std::uint64_t machine_cycles = 0;
  std::uint64_t network_packets = 0;
  std::uint64_t network_max_queue = 0;
  std::uint64_t max_planned_load = 0;
};

/// Replays the trace through one stack. `planned` flips ALL THREE §15
/// consumers at once: engine planner, plan-aware composition, plan-priced
/// routing (the last follows automatically from the engine's wire plan).
/// The trace itself (kNoDeadline, oversized queue) admits and serves every
/// request, so both modes answer an identical workload.
ModeResult runMode(const scheme::PpScheme& scheme,
                   const std::vector<std::uint64_t>& pool_vars, bool planned,
                   const BenchParams& params, unsigned threads, bool faulted) {
  mpc::Machine machine(scheme.numModules(), scheme.slotsPerModule(), threads);
  // Port-shared butterfly: the banks outnumber the network interfaces, so a
  // round's delivery time is congestion-priced (serialization at the shared
  // ports) rather than pinned at the diameter — the regime where the plan's
  // thinner wire actually buys network cycles.
  machine.setInterconnect(std::make_unique<mpc::ButterflyInterconnect>(
      scheme.numModules(), params.ports));
  if (faulted) {
    mpc::FaultPlan fp;
    fp.grantDropProbability = 0.15;
    fp.seed = 23;
    // ONE module out at a time: with r = 2q-1 copies every quorum stays
    // reachable, so faults can stretch cycle counts but never flip a
    // status between the modes.
    fp.transientAt(4, 1, 10);
    machine.setFaultPlan(fp);
  }
  protocol::MajorityEngine engine(scheme, machine);
  engine.setPlannerEnabled(planned);

  serve::ServeConfig cfg;
  cfg.maxBatch = params.max_batch;
  cfg.maxBatchesPerPump = params.batches_per_pump;
  cfg.maxWaitTicks = 1;
  cfg.queueCapacity = 1u << 20;  // identity needs no rejects...
  cfg.combineDuplicates = true;
  cfg.planAwareComposition = planned;
  serve::AdmissionScheduler sched(engine, cfg);

  std::vector<serve::ClientSession*> sessions;
  for (std::size_t i = 0; i < params.sessions; ++i) {
    sessions.push_back(&sched.openSession());
  }

  const ZipfSampler zipf(pool_vars.size(), params.alpha);
  util::Xoshiro256 rng(params.seed);
  const double capacity =
      static_cast<double>(params.max_batch * params.batches_per_pump);

  double carry = 0.0;
  for (std::uint64_t t = 0; t < params.offered_ticks; ++t) {
    carry += params.offered_factor * capacity;
    auto per_tick = static_cast<std::uint64_t>(carry);
    carry -= static_cast<double>(per_tick);
    for (std::uint64_t i = 0; i < per_tick; ++i) {
      serve::ClientSession& s = *sessions[rng.below(sessions.size())];
      const std::uint64_t v = pool_vars[zipf(rng)];
      if (rng.below(100) < params.read_pct) {
        s.submitRead(v, serve::kNoDeadline);  // ...and no sheds
      } else {
        s.submitWrite(v, rng(), serve::kNoDeadline);
      }
    }
    sched.tick();
  }
  sched.flush();

  ModeResult out;
  for (std::size_t si = 0; si < sessions.size(); ++si) {
    for (const serve::Response& r : sessions[si]->drainResponses()) {
      out.responses.emplace(std::make_pair(si, r.requestId),
                            std::make_pair(r.status, r.value));
    }
  }
  const protocol::EngineMetrics& em = engine.metrics();
  const serve::ServeMetrics& sm = sched.metrics();
  out.served = sm.served;
  out.batches = sm.batchesComposed;
  out.wire_requests = em.wireRequests;
  out.network_cycles = em.networkCycles;
  out.planned_network_cycles = em.plannedNetworkCycles;
  out.plan_savings = em.plannedWireSavings;
  out.escalations = em.escalations;
  out.plan_placements = sm.planAwarePlacements;
  out.plan_deflections = sm.planDeflections;
  out.combined_reads = sm.combinedReads;
  const mpc::MachineMetrics& mm = machine.metrics();
  out.max_module_queue = mm.maxModuleQueue;
  out.machine_cycles = mm.cycles;
  out.network_packets = mm.networkPackets;
  out.network_max_queue = mm.networkMaxQueue;
  out.max_planned_load = em.maxPlannedModuleLoad;
  return out;
}

struct Gate {
  std::string name;
  double value = 0.0;
  double floor = 0.0;
  bool pass = false;
};

}  // namespace
}  // namespace dsm

int main(int argc, char** argv) {
  using namespace dsm;
  const util::Cli cli(argc, argv);
  const bool smoke = cli.getBool("smoke", false);

  BenchParams params;
  params.max_batch = cli.getUint("max-batch", 512);
  params.batches_per_pump = cli.getUint("batches-per-pump", 3);
  params.offered_ticks = cli.getUint("ticks", smoke ? 6 : 24);
  params.sessions = cli.getUint("sessions", 16);
  params.var_pool = cli.getUint("var-pool", 4096);
  params.alpha =
      static_cast<double>(cli.getUint("alpha-pct", 110)) / 100.0;
  params.read_pct = cli.getUint("read-pct", 90);
  params.seed = cli.getUint("seed", 22);
  params.ports = cli.getUint("ports", 128);
  const unsigned threads = static_cast<unsigned>(
      cli.getUint("threads", mpc::ThreadPool::defaultThreads()));

  const scheme::PpScheme scheme(1, static_cast<int>(cli.getUint("n", 5)));
  const std::size_t r = scheme.copiesPerVariable();

  // The Zipf pool is drawn from a greedy minimal-expansion variable set
  // (the E21 adversary): its copy sets concentrate on few modules, so the
  // butterfly is congestion-dominated — the regime the plan is FOR —
  // instead of diameter-dominated. Deterministic given the seed.
  std::vector<std::uint64_t> pool_vars;
  {
    const std::uint64_t pool =
        std::min<std::uint64_t>(params.var_pool, scheme.numVariables());
    util::Xoshiro256 pool_rng(params.seed ^ 0x9e3779b9ULL);
    pool_vars = workload::greedyAdversarial(
        scheme, static_cast<std::size_t>(pool), 64, pool_rng);
  }

  bench::banner("E22", "planned serving: BatchPlan from admission to wire");
  std::cout << "  scheme=" << scheme.name()
            << " modules=" << scheme.numModules() << " r=" << r
            << " q=" << scheme.readQuorum() << " threads=" << threads
            << "\n  maxBatch=" << params.max_batch
            << " batches/pump=" << params.batches_per_pump
            << " ticks=" << params.offered_ticks
            << " sessions=" << params.sessions
            << " var-pool=" << params.var_pool
            << " alpha=" << util::TextTable::num(params.alpha, 2)
            << " reads=" << params.read_pct << "%"
            << " offered=" << params.offered_factor << "x"
            << " ports=" << params.ports << "\n";

  // --- Perf sweep: both modes, fault-free, at the requested threads -------
  const ModeResult base =
      runMode(scheme, pool_vars, false, params, threads, false);
  const ModeResult plan =
      runMode(scheme, pool_vars, true, params, threads, false);

  util::TextTable table({"mode", "served", "batches", "wire", "netCycles",
                         "netPkts", "plannedNet", "planSavings", "escal",
                         "planPlace", "deflect", "combR", "mcycles", "modQ",
                         "netQ", "planLoad"});
  const auto add_row = [&table](const char* name, const ModeResult& m) {
    table.addRow({name, util::TextTable::num(m.served),
                  util::TextTable::num(m.batches),
                  util::TextTable::num(m.wire_requests),
                  util::TextTable::num(m.network_cycles),
                  util::TextTable::num(m.network_packets),
                  util::TextTable::num(m.planned_network_cycles),
                  util::TextTable::num(m.plan_savings),
                  util::TextTable::num(m.escalations),
                  util::TextTable::num(m.plan_placements),
                  util::TextTable::num(m.plan_deflections),
                  util::TextTable::num(m.combined_reads),
                  util::TextTable::num(m.machine_cycles),
                  util::TextTable::num(m.max_module_queue),
                  util::TextTable::num(m.network_max_queue),
                  util::TextTable::num(m.max_planned_load)});
  };
  add_row("baseline", base);
  add_row("planned", plan);
  table.print(std::cout);

  const auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  const double wire_ratio = ratio(base.wire_requests, plan.wire_requests);
  const double net_ratio = ratio(base.network_cycles, plan.network_cycles);
  bench::footnote("baseline/planned: wire " +
                  util::TextTable::num(wire_ratio, 2) + "x, net-cycles " +
                  util::TextTable::num(net_ratio, 2) + "x");

  std::vector<Gate> gates;
  gates.push_back({"wireRequestsRatio", wire_ratio, 1.15,
                   wire_ratio >= 1.15});
  gates.push_back({"networkCyclesRatio", net_ratio, 1.15,
                   net_ratio >= 1.15});
  gates.push_back({"plannedWireSavings",
                   static_cast<double>(plan.plan_savings), 1.0,
                   plan.plan_savings >= 1});
  gates.push_back({"plannedNetworkCycles",
                   static_cast<double>(plan.planned_network_cycles), 1.0,
                   plan.planned_network_cycles >= 1});
  gates.push_back({"planAwarePlacements",
                   static_cast<double>(plan.plan_placements), 1.0,
                   plan.plan_placements >= 1});
  gates.push_back({"faultFreeEscalations",  // value must be ZERO (floor 0)
                   static_cast<double>(plan.escalations), 0.0,
                   plan.escalations == 0});

  // --- Transparency: planned vs baseline, every thread count, +/- faults --
  bool identical = true;
  {
    std::vector<unsigned> thread_counts = {1, mpc::ThreadPool::defaultThreads(),
                                           3};
    std::sort(thread_counts.begin(), thread_counts.end());
    thread_counts.erase(
        std::unique(thread_counts.begin(), thread_counts.end()),
        thread_counts.end());
    BenchParams replay = params;
    replay.offered_ticks = smoke ? 4 : 6;
    for (const bool faulted : {false, true}) {
      const ModeResult ref =
          runMode(scheme, pool_vars, false, replay, 1, faulted);
      if (ref.responses.empty()) identical = false;
      for (const unsigned tc : thread_counts) {
        for (const bool planned : {false, true}) {
          if (tc == 1 && !planned) continue;
          const ModeResult got =
              runMode(scheme, pool_vars, planned, replay, tc, faulted);
          if (got.responses != ref.responses) {
            std::cout << "  GATE FAIL: " << (planned ? "planned" : "baseline")
                      << " at " << tc << " thread(s)"
                      << (faulted ? " under faults" : "")
                      << " diverged from the serial baseline replay\n";
            identical = false;
          }
        }
      }
    }
    if (identical) {
      bench::footnote(
          "transparency: no-shed replay (status, value)-identical baseline "
          "vs planned across all thread counts and fault plans");
    }
    gates.push_back({"transparency", identical ? 1.0 : 0.0, 1.0, identical});
  }

  bool ok = true;
  for (const Gate& g : gates) {
    if (!g.pass) {
      std::cout << "  GATE FAIL: " << g.name << " = "
                << util::TextTable::num(g.value, 2) << " (floor "
                << util::TextTable::num(g.floor, 2) << ")\n";
      ok = false;
    }
  }
  std::cout << "  gates: " << (ok ? "PASS" : "FAIL") << "\n";

  if (!smoke) {
    bench::Json root = bench::Json::obj();
    root.set("experiment", "E22");
    root.set("title", "planned serving: BatchPlan from admission to wire");
    bench::Json cfg = bench::Json::obj();
    cfg.set("scheme", scheme.name());
    cfg.set("modules", scheme.numModules());
    cfg.set("copiesPerVariable", static_cast<std::uint64_t>(r));
    cfg.set("readQuorum", static_cast<std::uint64_t>(scheme.readQuorum()));
    cfg.set("threads", static_cast<std::uint64_t>(threads));
    cfg.set("maxBatch", static_cast<std::uint64_t>(params.max_batch));
    cfg.set("batchesPerPump",
            static_cast<std::uint64_t>(params.batches_per_pump));
    cfg.set("offeredTicks", params.offered_ticks);
    cfg.set("offeredFactor", params.offered_factor);
    cfg.set("sessions", static_cast<std::uint64_t>(params.sessions));
    cfg.set("varPool", params.var_pool);
    cfg.set("alpha", params.alpha);
    cfg.set("readPct", params.read_pct);
    cfg.set("seed", params.seed);
    cfg.set("networkPorts", params.ports);
    root.set("config", std::move(cfg));
    bench::Json rows = bench::Json::arr();
    const auto mode_json = [](const char* name, const ModeResult& m) {
      bench::Json row = bench::Json::obj();
      row.set("mode", name);
      row.set("served", m.served);
      row.set("batchesComposed", m.batches);
      row.set("wireRequests", m.wire_requests);
      row.set("networkCycles", m.network_cycles);
      row.set("plannedNetworkCycles", m.planned_network_cycles);
      row.set("plannedWireSavings", m.plan_savings);
      row.set("escalations", m.escalations);
      row.set("planAwarePlacements", m.plan_placements);
      row.set("planDeflections", m.plan_deflections);
      row.set("combinedReads", m.combined_reads);
      return row;
    };
    rows.push(mode_json("baseline", base));
    rows.push(mode_json("planned", plan));
    root.set("rows", std::move(rows));
    bench::Json gate_arr = bench::Json::arr();
    for (const Gate& g : gates) {
      bench::Json gj = bench::Json::obj();
      gj.set("name", g.name);
      gj.set("value", g.value);
      gj.set("floor", g.floor);
      gj.set("pass", g.pass);
      gate_arr.push(std::move(gj));
    }
    root.set("gates", std::move(gate_arr));
    root.set("pass", ok);
    bench::writeJson("BENCH_e22.json", root);
  }
  return ok ? 0 : 1;
}
