// E20 — vectorized miss path: cold-cache addressing throughput through the
// batched Section-4 kernels (clmul field arithmetic, SoA coset
// canonicalisation, batched Lemma-4 slot scan) against the forced-scalar
// oracle (DSM_FORCE_SCALAR — the per-variable pre-PR path). Two parts:
//
//   A. Raw cold-miss resolution: a CopyCache is cleared before every
//      repetition, so each repetition resolves every variable through
//      MemoryScheme::copiesBatch — the headline is cold-miss variables/sec,
//      batched dispatch vs forced-scalar, serial and pooled. The resolved
//      addresses must be byte-identical across every mode.
//   B. End-to-end cold stream: a MajorityEngine executes a stream whose
//      batches never repeat a variable (every prepare misses), across
//      {1, many} threads x {no faults, FaultPlan} x {batched, forced
//      scalar}. All twelve runs must produce bit-identical AccessResults;
//      the JSON records the addressing seconds EngineMetrics now splits
//      out of prepare, plus the batch-miss lane occupancy.
//
// Exit code enforces the identity gates always, the >= 1.5x cold-miss
// speedup gate on hosts with a hardware carryless multiply (full runs
// only), and a 0.95x no-regression floor in --smoke (`ctest -L perf`).
#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "dsm/mpc/thread_pool.hpp"
#include "dsm/protocol/engines.hpp"
#include "dsm/scheme/copy_cache.hpp"
#include "dsm/scheme/pp_scheme.hpp"
#include "dsm/util/assert.hpp"
#include "dsm/util/kernel_dispatch.hpp"
#include "dsm/util/rng.hpp"
#include "dsm/util/timer.hpp"
#include "dsm/workload/generators.hpp"

namespace {

using namespace dsm;

mpc::FaultPlan faultPlan() {
  mpc::FaultPlan plan;
  plan.transientAt(3, 1, 4).transientAt(9, 5, 3);
  plan.grantDropProbability = 0.05;
  plan.seed = 20;
  return plan;
}

// Part A: resolve `vars` through a cleared cache, one timed repetition per
// call. The cache never fits a previous repetition's lines because clear()
// empties it — every lookup is a miss resolved through copiesBatch.
double coldResolve(scheme::CopyCache& cache, const scheme::PpScheme& s,
                   const std::vector<std::uint64_t>& vars,
                   std::size_t batch_size, mpc::ThreadPool* pool,
                   std::vector<scheme::PhysicalAddress>& out) {
  const std::size_t r = s.copiesPerVariable();
  out.resize(vars.size() * r);
  cache.clear();
  util::Timer t;
  for (std::size_t at = 0; at < vars.size(); at += batch_size) {
    const std::size_t count = std::min(batch_size, vars.size() - at);
    cache.copiesBatch(vars.data() + at, count, out.data() + at * r, pool);
  }
  return t.seconds();
}

struct StreamRun {
  double secs = 0.0;
  std::vector<protocol::AccessResult> results;
  protocol::EngineMetrics metrics;
};

// Part B: a fresh engine per run (cold cache), a stream that never repeats
// a variable, so every prepare resolves its whole batch through the miss
// path.
StreamRun runColdStream(
    const scheme::PpScheme& s,
    const std::vector<std::vector<protocol::AccessRequest>>& stream,
    unsigned threads, bool faults) {
  StreamRun out;
  mpc::Machine m(s.numModules(), s.slotsPerModule(), threads);
  if (faults) m.setFaultPlan(faultPlan());
  protocol::MajorityEngine eng(s, m);
  util::Timer t;
  out.results = eng.executeStream(stream);
  out.secs = t.seconds();
  out.metrics = eng.metrics();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const bool smoke = cli.getBool("smoke", false);

  const int n = static_cast<int>(cli.getUint("n", smoke ? 5 : 7));
  const std::uint64_t cold_vars = cli.getUint("vars", smoke ? 4096 : 65536);
  const std::size_t batch_size = cli.getUint("batch", smoke ? 256 : 2048);
  const std::size_t batches = cli.getUint("batches", smoke ? 4 : 12);
  const std::uint64_t reps = cli.getUint("reps", smoke ? 5 : 3);
  const std::uint64_t seed = cli.getUint("seed", 20);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned many = static_cast<unsigned>(
      cli.getUint("threads", smoke ? 2 : hw));
  const std::string json_path = cli.getString("json", "BENCH_e20.json");

  const scheme::PpScheme s(1, n);
  DSM_CHECK_MSG(cold_vars <= s.numVariables(),
                "--vars exceeds the scheme's " << s.numVariables()
                                               << " variables");
  DSM_CHECK_MSG(batches * batch_size <= s.numVariables(),
                "--batches x --batch exceeds the scheme's variable count "
                "(the stream must never repeat a variable)");

  bench::banner("E20", "cold-cache miss path, " + s.name() + ", " +
                           std::to_string(cold_vars) + " vars, dispatch=" +
                           util::kernelDispatchName() +
                           (smoke ? " (SMOKE)" : ""));

  bench::Json json = bench::Json::obj();
  json.set("experiment", "E20")
      .set("title",
           "vectorized miss path: batched clmul/SoA addressing vs scalar")
      .set("dispatch", util::kernelDispatchName())
      .set("clmul_hw", util::hasClmulHw());
  bench::Json config = bench::Json::obj();
  config.set("n", n)
      .set("vars", cold_vars)
      .set("batch_size", static_cast<std::uint64_t>(batch_size))
      .set("batches", static_cast<std::uint64_t>(batches))
      .set("reps", reps)
      .set("threads_many", static_cast<std::uint64_t>(many))
      .set("seed", seed)
      .set("smoke", smoke);
  json.set("config", std::move(config));

  bool all_identical = true;

  // Part A — cold-miss resolution throughput, cache cleared every rep.
  util::Xoshiro256 rng(seed);
  const auto vars = workload::randomDistinct(s.numVariables(), cold_vars, rng);
  mpc::ThreadPool pool(many);
  scheme::CopyCache cache(s, vars.size());
  std::vector<scheme::PhysicalAddress> ref_addrs;
  std::vector<scheme::PhysicalAddress> addrs;
  // Reference addresses: forced-scalar, serial.
  util::setForceScalarForTesting(true);
  coldResolve(cache, s, vars, batch_size, nullptr, ref_addrs);
  util::clearForceScalarOverride();

  double batched_serial_secs = 1e18;
  util::TextTable cold_table(
      {"mode", "pool", "Mvars/s", "speedup vs scalar", "identical"});
  bench::Json cold_rows = bench::Json::arr();
  double scalar_secs[2] = {1e18, 1e18};  // [pooled]
  double batched_secs[2] = {1e18, 1e18};
  for (const bool pooled : {false, true}) {
    for (const bool force : {true, false}) {
      util::setForceScalarForTesting(force);
      double best = 1e18;
      bool identical = true;
      for (std::uint64_t rep = 0; rep < reps; ++rep) {
        best = std::min(best, coldResolve(cache, s, vars, batch_size,
                                          pooled ? &pool : nullptr, addrs));
        identical = identical && addrs == ref_addrs;
      }
      util::clearForceScalarOverride();
      (force ? scalar_secs : batched_secs)[pooled] = best;
      if (!force && !pooled) batched_serial_secs = best;
      all_identical = all_identical && identical;
      const double speedup = scalar_secs[pooled] / best;
      cold_table.addRow(
          {force ? "scalar" : "batched", pooled ? "yes" : "no",
           util::TextTable::num(vars.size() / best / 1e6, 2),
           force ? "1.00" : util::TextTable::num(speedup, 2),
           identical ? "yes" : "NO"});
      bench::Json row = bench::Json::obj();
      row.set("mode", force ? "scalar" : "batched")
          .set("pooled", pooled)
          .set("vars_per_sec", vars.size() / best)
          .set("speedup_vs_scalar", force ? 1.0 : speedup)
          .set("identical", identical);
      cold_rows.push(std::move(row));
    }
  }
  std::cout << "  cold-miss resolution (cache cleared every rep):\n";
  cold_table.print(std::cout);
  json.set("cold_miss", std::move(cold_rows));
  const double cold_speedup = scalar_secs[0] / batched_serial_secs;

  // Part B — end-to-end cold stream, full identity grid.
  std::vector<std::vector<protocol::AccessRequest>> stream;
  {
    util::Xoshiro256 srng(seed + 1);
    const auto pool_vars = workload::randomDistinct(
        s.numVariables(), batches * batch_size, srng);
    for (std::size_t b = 0; b < batches; ++b) {
      const std::vector<std::uint64_t> slice(
          pool_vars.begin() + b * batch_size,
          pool_vars.begin() + (b + 1) * batch_size);
      stream.push_back(b % 2 == 0
                           ? workload::makeWrites(slice, b * batch_size)
                           : workload::makeReads(slice));
    }
  }
  util::TextTable stream_table({"threads", "faults", "mode", "req/s",
                                "addr ms", "lanes/chunk", "identical"});
  bench::Json stream_rows = bench::Json::arr();
  // One reference per fault setting: a FaultPlan legitimately changes the
  // results, so identity is asserted across threads x dispatch WITHIN each
  // fault setting.
  std::vector<protocol::AccessResult> grid_ref[2];
  const std::size_t total_requests = batches * batch_size;
  for (const unsigned threads : {1u, many}) {
    for (const bool faults : {false, true}) {
      for (const bool force : {true, false}) {
        util::setForceScalarForTesting(force);
        const StreamRun r = runColdStream(s, stream, threads, faults);
        util::clearForceScalarOverride();
        if (grid_ref[faults].empty()) grid_ref[faults] = r.results;
        const bool identical = r.results == grid_ref[faults];
        all_identical = all_identical && identical;
        const double occupancy =
            r.metrics.addrBatchChunks == 0
                ? 0.0
                : static_cast<double>(r.metrics.addrBatchLanes) /
                      static_cast<double>(r.metrics.addrBatchChunks);
        stream_table.addRow(
            {util::TextTable::num(static_cast<std::uint64_t>(threads)),
             faults ? "plan" : "none",
             force ? "scalar" : "batched",
             util::TextTable::num(total_requests / r.secs, 0),
             util::TextTable::num(r.metrics.addrSeconds * 1e3, 2),
             util::TextTable::num(occupancy, 1), identical ? "yes" : "NO"});
        bench::Json row = bench::Json::obj();
        row.set("threads", static_cast<std::uint64_t>(threads))
            .set("faults", faults)
            .set("mode", force ? "scalar" : "batched")
            .set("req_per_sec", total_requests / r.secs)
            .set("addr_ms", r.metrics.addrSeconds * 1e3)
            .set("addr_batch_lanes", r.metrics.addrBatchLanes)
            .set("addr_batch_chunks", r.metrics.addrBatchChunks)
            .set("miss_lane_occupancy", occupancy)
            .set("cache_misses", r.metrics.cacheMisses)
            .set("identical", identical);
        stream_rows.push(std::move(row));
      }
    }
  }
  std::cout << "  cold stream (MajorityEngine, no variable repeats):\n";
  stream_table.print(std::cout);
  json.set("cold_stream", std::move(stream_rows));

  // Gates. The 1.5x cold-miss speedup is only claimed where the hardware
  // carryless multiply exists (the ISSUE's target host); elsewhere the
  // batched path must still never lose more than 5%. Smoke runs apply the
  // 0.95x floor only (tiny sizes make 1.5x unreliable to measure).
  const bool floor_pass = cold_speedup >= 0.95;
  const bool speed_gate =
      smoke ? floor_pass
            : (util::hasClmulHw() ? cold_speedup >= 1.5 : floor_pass);
  std::cout << "  cold-miss speedup (serial, batched vs scalar): "
            << util::TextTable::num(cold_speedup, 2) << "x ("
            << (smoke ? (floor_pass ? "PASS >= 0.95x smoke floor"
                                    : "FAIL >= 0.95x smoke floor")
                      : (util::hasClmulHw()
                             ? (speed_gate ? "PASS >= 1.5x gate"
                                           : "FAIL >= 1.5x gate")
                             : (floor_pass ? "PASS >= 0.95x (no clmul hw)"
                                           : "FAIL >= 0.95x (no clmul hw)")))
            << "); identity everywhere: " << (all_identical ? "yes" : "NO")
            << "\n";
  bench::Json gates = bench::Json::obj();
  gates.set("cold_speedup_serial", cold_speedup)
      .set("speed_gate_pass", speed_gate)
      .set("all_identical", all_identical);
  json.set("gates", std::move(gates));

  if (!smoke) bench::writeJson(json_path, json);
  bench::footnote(
      "part A clears the CopyCache before every repetition so each lookup "
      "is a cold miss resolved through MemoryScheme::copiesBatch (clmul "
      "field kernels + SoA canonicalisation + shared Lemma-4 sweep); the "
      "scalar rows force DSM_FORCE_SCALAR's per-variable oracle. Part B "
      "streams never-repeating batches through a fresh engine per run and "
      "bit-compares results across threads x faults x dispatch.");
  return (all_identical && speed_gate) ? 0 : 1;
}
