// E21 — congestion-aware deterministic quorum planning (PR 9).
//
// Part A (adversarial congestion sweep): minimal-expansion read batches
// (greedyAdversarial) through the MajorityEngine, planner off vs on. The
// planner's greedy balanced-assignment shrinks each read to a q-subset, so
// the two congestion drivers the paper's Φ analysis is governed by — wire
// traffic and the worst per-module queue — both drop. Gated at >= 1.3x
// summed over the sweep. Iteration counts are reported but NOT gated
// lower: the planner-off engine already dodges hot modules through quorum
// slack (any q of its r in-flight copies finish the read), so thinning the
// attack trades a few extra rounds for the wire/queue reduction — see
// EXPERIMENTS.md E21 for the full story.
//
// Part B (determinism grid): mixed and fault-epoch streams through both
// engines x {planner off, on} x threads {1, 2, hw} x {fault-free,
// FaultPlan}. The FaultPlan leg layers grant-drop noise over a transient
// single-module outage placed in the read-only epoch (calibrated per mode
// from a scratch run's lifetime cycle count, so the outage never races a
// commit and value identity is exact, not statistical). Gates: planner-on
// full results bit-identical across thread counts, planner-on values
// bit-identical to planner-off, no unsatisfiable verdicts, and the faulted
// planner-on legs must actually exercise spare escalation.
//
// Every gate compares deterministic logical counters (no wall-clock), so
// the floors are stable properties of the seeds, not flaky thresholds.
// Exit code 0 iff all gates pass; --smoke shrinks sizes for `ctest -L
// perf`.
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "bench_common.hpp"
#include "dsm/protocol/engines.hpp"
#include "dsm/scheme/pp_scheme.hpp"
#include "dsm/util/rng.hpp"
#include "dsm/workload/generators.hpp"

namespace {

using namespace dsm;
using protocol::AccessRequest;
using protocol::AccessResult;

bool sameValues(const std::vector<AccessResult>& a,
                const std::vector<AccessResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].values != b[i].values) return false;
    if (a[i].unsatisfiable != b[i].unsatisfiable) return false;
  }
  return true;
}

bool noUnsat(const std::vector<AccessResult>& a) {
  for (const auto& r : a) {
    if (!r.unsatisfiable.empty()) return false;
  }
  return true;
}

struct LegResult {
  std::vector<AccessResult> results;
  protocol::EngineMetrics engine;
  mpc::MachineMetrics machine;
};

template <class Engine>
LegResult runStream(const scheme::PpScheme& s,
                    const std::vector<std::vector<AccessRequest>>& stream,
                    unsigned threads, bool planner,
                    const mpc::FaultPlan* plan) {
  mpc::Machine m(s.numModules(), s.slotsPerModule(), threads);
  if (plan != nullptr) m.setFaultPlan(*plan);
  Engine eng(s, m);
  eng.setPlannerEnabled(planner);
  LegResult leg;
  leg.results = eng.executeStream(stream);
  leg.engine = eng.metrics();
  leg.machine = m.metrics();
  return leg;
}

/// Lifetime cycles a mode's write epoch consumes under `drops` — the
/// calibration that lets the fault leg place its transient outage strictly
/// inside the read-only epoch. Deterministic and thread-invariant, so one
/// serial scratch run calibrates every thread count of the same mode.
template <class Engine>
std::uint64_t writeEpochCycles(const scheme::PpScheme& s,
                               const std::vector<AccessRequest>& writes,
                               bool planner, const mpc::FaultPlan& drops) {
  mpc::Machine m(s.numModules(), s.slotsPerModule());
  m.setFaultPlan(drops);
  Engine eng(s, m);
  eng.setPlannerEnabled(planner);
  eng.execute(writes);
  return m.lifetimeCycles();
}

struct Gate {
  std::string name;
  double value;
  double floor;
  bool pass;
};

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const bool smoke = cli.getBool("smoke", false);
  const std::uint64_t seed = cli.getUint("seed", 21);
  const int n = static_cast<int>(cli.getUint("n", 5));
  const unsigned hw = std::max(2u, std::thread::hardware_concurrency());
  const unsigned many =
      static_cast<unsigned>(cli.getUint("threads", smoke ? 4 : hw));
  const std::string json_path = cli.getString("json", "BENCH_e21.json");
  const std::vector<std::uint64_t> sweep_sizes =
      cli.getUintList("sweep", smoke ? std::vector<std::uint64_t>{128, 256}
                               : std::vector<std::uint64_t>{256, 512, 1024});
  const std::size_t stream_batch = smoke ? 64 : 192;
  const std::size_t stream_batches = smoke ? 4 : 6;

  const scheme::PpScheme s(1, n);
  bench::banner("E21", std::string("congestion-aware quorum planning (r=") +
                           std::to_string(s.copiesPerVariable()) +
                           ", q=" + std::to_string(s.readQuorum()) + ")" +
                           (smoke ? " (SMOKE)" : ""));

  bench::Json json = bench::Json::obj();
  json.set("experiment", "E21").set("title",
                                    "congestion-aware quorum planning");
  {
    bench::Json cfg = bench::Json::obj();
    cfg.set("n", n)
        .set("seed", seed)
        .set("threads_many", static_cast<std::uint64_t>(many))
        .set("stream_batch", static_cast<std::uint64_t>(stream_batch))
        .set("stream_batches", static_cast<std::uint64_t>(stream_batches))
        .set("smoke", smoke);
    json.set("config", std::move(cfg));
  }
  std::vector<Gate> gates;

  // ---- Part A: adversarial congestion sweep (MajorityEngine, serial) ----
  util::TextTable sweep_table({"batch", "planner", "wire", "max queue",
                               "iters", "plan savings", "values"});
  bench::Json sweep_rows = bench::Json::arr();
  std::uint64_t wire_sum[2] = {0, 0};
  std::uint64_t queue_sum[2] = {0, 0};
  std::uint64_t iter_sum[2] = {0, 0};
  bool sweep_values_ok = true;
  {
    util::Xoshiro256 rng(seed);
    for (const std::uint64_t k : sweep_sizes) {
      const auto vars = workload::greedyAdversarial(
          s, static_cast<std::size_t>(k), 64, rng);
      AccessResult ref;
      for (const bool planner : {false, true}) {
        mpc::Machine m(s.numModules(), s.slotsPerModule());
        protocol::MajorityEngine eng(s, m);
        eng.setPlannerEnabled(planner);
        eng.execute(workload::makeWrites(vars, 100));
        m.resetMetrics();
        eng.resetMetrics();
        const AccessResult r = eng.execute(workload::makeReads(vars));
        const bool values_ok =
            planner ? (r.values == ref.values && r.unsatisfiable.empty())
                    : r.unsatisfiable.empty();
        if (!planner) ref = r;
        sweep_values_ok = sweep_values_ok && values_ok;
        wire_sum[planner] += eng.metrics().wireRequests;
        queue_sum[planner] += m.metrics().maxModuleQueue;
        iter_sum[planner] += r.totalIterations;
        sweep_table.addRow(
            {util::TextTable::num(k), planner ? "on" : "off",
             util::TextTable::num(eng.metrics().wireRequests),
             util::TextTable::num(m.metrics().maxModuleQueue),
             util::TextTable::num(r.totalIterations),
             util::TextTable::num(eng.metrics().plannedWireSavings),
             values_ok ? "ok" : "MISMATCH"});
        sweep_rows.push(
            bench::Json::obj()
                .set("batch", k)
                .set("planner", planner)
                .set("wire_requests", eng.metrics().wireRequests)
                .set("max_module_queue", m.metrics().maxModuleQueue)
                .set("iterations", r.totalIterations)
                .set("planned_wire_savings",
                     eng.metrics().plannedWireSavings)
                .set("max_planned_load",
                     eng.metrics().maxPlannedModuleLoad)
                .set("values_match_planner_off", values_ok));
      }
    }
  }
  std::cout << "  adversarial sweep (reads, minimal-expansion batches):\n";
  sweep_table.print(std::cout);
  json.set("adversarial_sweep", std::move(sweep_rows));

  const double wire_ratio = static_cast<double>(wire_sum[0]) /
                            static_cast<double>(std::max<std::uint64_t>(
                                1, wire_sum[1]));
  const double queue_ratio = static_cast<double>(queue_sum[0]) /
                             static_cast<double>(std::max<std::uint64_t>(
                                 1, queue_sum[1]));
  const double iter_ratio = static_cast<double>(iter_sum[0]) /
                            static_cast<double>(std::max<std::uint64_t>(
                                1, iter_sum[1]));
  gates.push_back({"sweep_values_identical", sweep_values_ok ? 1.0 : 0.0,
                   1.0, sweep_values_ok});
  gates.push_back(
      {"wire_reduction", wire_ratio, 1.3, wire_ratio >= 1.3});
  gates.push_back(
      {"module_queue_reduction", queue_ratio, 1.3, queue_ratio >= 1.3});
  bench::footnote("congestion-sum planner-off/planner-on: wire " +
                  util::TextTable::num(wire_ratio, 2) + "x, max-queue " +
                  util::TextTable::num(queue_ratio, 2) +
                  "x, iterations " + util::TextTable::num(iter_ratio, 2) +
                  "x (quorum slack already absorbs hot modules; the planner "
                  "converts that slack into wire/queue savings)");

  // ---- Part B: determinism grid --------------------------------------
  util::TextTable grid_table({"engine", "faults", "planner", "threads",
                              "escalations", "identical", "vs off"});
  bench::Json grid_rows = bench::Json::arr();
  bool grid_ok = true;
  bool escalations_seen = true;

  // Stream shapes. Fault-free: mixed read/write batches. Faulted: one
  // write epoch then read-only batches, so the transient outage (placed in
  // the read epoch by calibration) can never swallow a commit.
  std::vector<std::vector<AccessRequest>> mixed_stream;
  std::vector<std::vector<AccessRequest>> fault_stream;
  {
    util::Xoshiro256 rng(seed + 1);
    const auto pool = workload::randomDistinct(
        s.numVariables(), stream_batch * stream_batches, rng);
    for (std::size_t b = 0; b < stream_batches; ++b) {
      const std::vector<std::uint64_t> slice(
          pool.begin() + b * stream_batch,
          pool.begin() + (b + 1) * stream_batch);
      mixed_stream.push_back(b == 0 ? workload::makeWrites(slice, 7000)
                                    : workload::makeMixed(slice, 0.7, rng));
      fault_stream.push_back(b == 0 ? workload::makeWrites(slice, 9000)
                                    : workload::makeReads(slice));
    }
  }

  const auto runEngineGrid = [&](const std::string& engine_name,
                                 auto engine_tag) {
    using Engine = typename decltype(engine_tag)::type;
    for (const bool faults : {false, true}) {
      const auto& stream = faults ? fault_stream : mixed_stream;
      mpc::FaultPlan plan;
      std::vector<AccessResult> off_values;
      for (const bool planner : {false, true}) {
        if (faults) {
          // Per-mode calibration: drop noise changes the cycle count of
          // the write epoch, so each mode gets the outage placed in ITS
          // read epoch. Thread counts share the plan (cycles are
          // thread-invariant).
          mpc::FaultPlan drops;
          drops.grantDropProbability = 0.25;
          drops.seed = seed + 17;
          const std::uint64_t w = writeEpochCycles<Engine>(
              s, stream[0], planner, drops);
          plan = drops;
          plan.transientAt(w + 3, 11, 40);
        }
        std::vector<AccessResult> serial_ref;
        for (const unsigned threads : {1u, 2u, many}) {
          const LegResult leg = runStream<Engine>(
              s, stream, threads, planner, faults ? &plan : nullptr);
          if (threads == 1) serial_ref = leg.results;
          const bool identical = leg.results == serial_ref;
          const bool vs_off =
              planner ? sameValues(leg.results, off_values) : true;
          const bool ok = identical && vs_off && noUnsat(leg.results);
          grid_ok = grid_ok && ok;
          if (faults && planner && leg.engine.escalations == 0) {
            escalations_seen = false;
          }
          grid_table.addRow(
              {engine_name, faults ? "plan" : "none",
               planner ? "on" : "off",
               util::TextTable::num(static_cast<std::uint64_t>(threads)),
               util::TextTable::num(leg.engine.escalations),
               identical ? "yes" : "NO",
               planner ? (vs_off ? "match" : "MISMATCH") : "-"});
          grid_rows.push(
              bench::Json::obj()
                  .set("engine", engine_name)
                  .set("faults", faults)
                  .set("planner", planner)
                  .set("threads", static_cast<std::uint64_t>(threads))
                  .set("escalations", leg.engine.escalations)
                  .set("planned_wire_savings",
                       leg.engine.plannedWireSavings)
                  .set("grants_dropped", leg.machine.grantsDropped)
                  .set("identical_to_serial", identical)
                  .set("values_match_planner_off", vs_off)
                  .set("no_unsatisfiable", noUnsat(leg.results)));
        }
        if (!planner) off_values = serial_ref;
      }
    }
  };
  runEngineGrid("majority", std::type_identity<protocol::MajorityEngine>{});
  runEngineGrid("single-owner",
                std::type_identity<protocol::SingleOwnerEngine>{});

  std::cout << "  determinism grid (threads x planner x faults):\n";
  grid_table.print(std::cout);
  json.set("determinism_grid", std::move(grid_rows));
  gates.push_back({"grid_identity", grid_ok ? 1.0 : 0.0, 1.0, grid_ok});
  gates.push_back({"fault_legs_escalate", escalations_seen ? 1.0 : 0.0, 1.0,
                   escalations_seen});

  bool all_pass = true;
  bench::Json gate_rows = bench::Json::arr();
  for (const Gate& g : gates) {
    all_pass = all_pass && g.pass;
    std::cout << "  gate " << g.name << ": "
              << util::TextTable::num(g.value, 3) << " (floor "
              << util::TextTable::num(g.floor, 2) << ") "
              << (g.pass ? "PASS" : "FAIL") << "\n";
    gate_rows.push(bench::Json::obj()
                       .set("name", g.name)
                       .set("value", g.value)
                       .set("floor", g.floor)
                       .set("pass", g.pass));
  }
  json.set("gates", std::move(gate_rows));
  json.set("all_pass", all_pass);
  bench::writeJson(json_path, json);
  std::cout << (all_pass ? "  E21 PASS\n" : "  E21 FAIL\n");
  return all_pass ? 0 : 1;
}
