// E17 — thread scaling on the saturated-wire stream: MajorityEngine
// executeStream over a PpScheme(1, 5) hot pool (1023 modules; each batch
// offers batch x 3 copy accesses, and a protocol round's wire carries one
// phase of them: 513 entries in --smoke, 2049 in a full run), swept across
// thread counts. The timed rows run at the pool's calibrated fork grain,
// which keeps wires this size inline on a host whose fork overhead
// outweighs them, so their gain is the batch-overlap pipeline's: batch
// k+1's addressing overlaps batch k's wire rounds.
//
// Every row's outputs must be bit-identical to the serial (threads=1) run,
// fault-free and under a drop plan — that identity is a hard gate at every
// thread count, including oversubscribed ones. One more untimed 2-thread
// run at the fixed fork-grain floor forks the rounds' wire build and reply
// scan (the machine step itself always runs serially) and is held to the
// same gate. The
// throughput gate only applies to rows that the host can actually run in
// parallel (1 < threads <= host CPUs): a full run requires those rows
// strictly faster than serial, --smoke requires >= 0.95x (noise floor for
// seconds-scale runs). Single-CPU hosts get the identity gates only.
//
// A full run writes BENCH_e17.json; ctest runs --smoke under `perf`.
#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "dsm/protocol/engines.hpp"
#include "dsm/scheme/pp_scheme.hpp"
#include "dsm/util/assert.hpp"
#include "dsm/util/rng.hpp"
#include "dsm/util/timer.hpp"
#include "dsm/workload/generators.hpp"

namespace {

using namespace dsm;

mpc::FaultPlan dropPlan() {
  mpc::FaultPlan plan;
  plan.grantDropProbability = 0.1;
  plan.seed = 17;
  return plan;
}

// E14/E16-style hot-working-set stream: every batch is a fresh shuffle of
// one variable pool, alternating writes and reads so values flow across it.
std::vector<std::vector<protocol::AccessRequest>> hotPoolStream(
    const scheme::PpScheme& s, std::size_t batches, std::size_t batch_size,
    std::size_t pool_size, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const auto pool = workload::randomDistinct(s.numVariables(), pool_size, rng);
  std::vector<std::vector<protocol::AccessRequest>> stream;
  for (std::size_t b = 0; b < batches; ++b) {
    auto vars = pool;
    for (std::size_t i = vars.size() - 1; i > 0; --i) {
      std::swap(vars[i], vars[rng.below(i + 1)]);
    }
    vars.resize(batch_size);
    stream.push_back(b % 2 == 0 ? workload::makeWrites(vars, b * batch_size)
                                : workload::makeReads(vars));
  }
  return stream;
}

struct Run {
  double secs = 1e18;  ///< best-of-reps wall time for the whole stream
  bool reps_agree = true;
  std::vector<protocol::AccessResult> results;
  protocol::EngineMetrics metrics;
};

// Fresh machine + engine per repetition (the protocol mutates memory, so a
// repeated stream on one machine would be a different workload); best-of-N
// to shed scheduler noise, with every repetition's outputs bit-compared.
Run runAt(const scheme::PpScheme& s,
          const std::vector<std::vector<protocol::AccessRequest>>& stream,
          unsigned threads, bool faults, std::uint64_t reps) {
  Run out;
  util::Timer t;
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    mpc::Machine m(s.numModules(), s.slotsPerModule(), threads);
    if (faults) m.setFaultPlan(dropPlan());
    protocol::MajorityEngine eng(s, m);
    t.reset();
    auto results = eng.executeStream(stream);
    const double secs = t.seconds();
    if (secs < out.secs) {
      out.secs = secs;
      out.metrics = eng.metrics();
    }
    if (rep == 0) {
      out.results = std::move(results);
    } else {
      out.reps_agree = out.reps_agree && results == out.results;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const bool smoke = cli.getBool("smoke", false);

  const int n = static_cast<int>(cli.getUint("n", 5));
  const std::size_t batches = cli.getUint("batches", smoke ? 4 : 16);
  const std::size_t batch_size = cli.getUint("batch", smoke ? 512 : 2048);
  const std::size_t pool_size = cli.getUint("pool", smoke ? 768 : 3072);
  const std::uint64_t seed = cli.getUint("seed", 17);
  const std::uint64_t reps = cli.getUint("reps", smoke ? 1 : 3);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  // Sweep 1, 2 and the full host width; 2 stays in the list even on a
  // single-CPU host so the determinism gate always covers a multi-thread
  // pool (the floor-grain run below covers a forked one).
  std::vector<std::uint64_t> default_threads{1, 2};
  if (hw > 2) default_threads.push_back(hw);
  const auto thread_counts = cli.getUintList("threads", default_threads);
  const std::string json_path = cli.getString("json", "BENCH_e17.json");
  DSM_CHECK_MSG(batch_size <= pool_size,
                "--batch must not exceed --pool: " << batch_size << " > "
                                                   << pool_size);

  const scheme::PpScheme s(1, n);
  DSM_CHECK_MSG(s.numModules() < batch_size * s.copiesPerVariable(),
                "a batch's copy accesses must outnumber the modules "
                "(saturated stream): " << s.numModules() << " modules vs "
                                       << batch_size * s.copiesPerVariable()
                                       << " copy accesses");
  bench::banner("E17", "thread scaling, saturated stream (n=" +
                           std::to_string(n) + ": " +
                           std::to_string(s.numModules()) + " modules, " +
                           std::to_string(batches) + " batches x " +
                           std::to_string(batch_size) + ", host CPUs=" +
                           std::to_string(hw) + (smoke ? ", SMOKE" : "") +
                           ")");

  bench::Json json = bench::Json::obj();
  json.set("experiment", "E17")
      .set("title", "thread scaling: pipelined stream");
  bench::Json config = bench::Json::obj();
  config.set("n", n)
      .set("modules", s.numModules())
      .set("batches", static_cast<std::uint64_t>(batches))
      .set("batch_size", static_cast<std::uint64_t>(batch_size))
      .set("pool_size", static_cast<std::uint64_t>(pool_size))
      .set("seed", seed)
      .set("reps", reps)
      .set("host_cpus", static_cast<std::uint64_t>(hw))
      .set("smoke", smoke);
  json.set("config", std::move(config));

  const std::size_t total_requests = batches * batch_size;
  const double floor = smoke ? 0.95 : 1.0;
  bool all_identical = true;
  bool forked_identical = true;  // the floor-grain 2-thread runs
  std::vector<protocol::AccessResult> serial_results[2];  // by faults
  bool scaling_pass = true;
  std::uint64_t gated_rows = 0;
  double worst_gated_speedup = 1e18;

  const auto stream = hotPoolStream(s, batches, batch_size, pool_size, seed);
  util::TextTable table(
      {"threads", "faults", "req/s", "speedup", "gated", "identical"});
  bench::Json rows = bench::Json::arr();
  for (const bool faults : {false, true}) {
    const Run serial = runAt(s, stream, 1, faults, reps);
    all_identical = all_identical && serial.reps_agree;
    for (const std::uint64_t threads : thread_counts) {
      const Run r = threads == 1
                        ? serial
                        : runAt(s, stream, static_cast<unsigned>(threads),
                                faults, reps);
      const bool identical =
          r.reps_agree &&
          (threads == 1 || r.results == serial.results);
      const double speedup = serial.secs / r.secs;
      // Only rows the host can genuinely parallelise carry a speed gate;
      // an oversubscribed pool measures the scheduler, not this code.
      const bool gated = threads > 1 && threads <= hw;
      all_identical = all_identical && identical;
      if (gated) {
        ++gated_rows;
        worst_gated_speedup = std::min(worst_gated_speedup, speedup);
        scaling_pass = scaling_pass && speedup >= floor &&
                       (smoke || speedup > 1.0);
      }
      table.addRow({util::TextTable::num(threads),
                    faults ? "drops" : "none",
                    util::TextTable::num(total_requests / r.secs, 0),
                    util::TextTable::num(speedup, 2), gated ? "yes" : "no",
                    identical ? "yes" : "NO"});
      bench::Json row = bench::Json::obj();
      row.set("threads", threads)
          .set("faults", faults)
          .set("requests", static_cast<std::uint64_t>(total_requests))
          .set("req_per_sec", total_requests / r.secs)
          .set("speedup_vs_serial", speedup)
          .set("gated", gated)
          .set("identical", identical)
          .set("wire_build_ms", r.metrics.wireBuildSeconds * 1e3)
          .set("step_ms", r.metrics.stepSeconds * 1e3)
          .set("scan_ms", r.metrics.scanSeconds * 1e3);
      rows.push(std::move(row));
    }
    serial_results[faults] = serial.results;
  }
  // Untimed forked-pool identity at the fixed fork-grain floor, run after
  // every timed row so it cannot warm or cool any of them.
  for (const bool faults : {false, true}) {
    const Run forked = bench::atFloorForkGrain(
        [&] { return runAt(s, stream, 2, faults, 1); });
    forked_identical = forked_identical && forked.reps_agree &&
                       forked.results == serial_results[faults];
  }
  all_identical = all_identical && forked_identical;
  table.print(std::cout);
  json.set("rows", std::move(rows));

  if (gated_rows == 0) {
    std::cout << "  scaling gate: n/a (host has " << hw
              << " CPU; identity gates only)\n";
  } else {
    std::cout << "  scaling gate: worst gated speedup "
              << util::TextTable::num(worst_gated_speedup, 2) << "x vs the "
              << (smoke ? ">= 0.95x smoke floor" : "> 1x full-run gate")
              << " -> " << (scaling_pass ? "PASS" : "FAIL") << "\n";
  }
  std::cout << "  forked pool at the " << mpc::ThreadPool::kMinItemsPerWorker
            << "-item grain floor (2 threads, untimed) identical to serial: "
            << (forked_identical ? "yes" : "NO") << "\n";
  std::cout << "  outputs bit-identical to serial everywhere: "
            << (all_identical ? "yes" : "NO") << "\n";
  bench::Json gates = bench::Json::obj();
  gates.set("all_identical", all_identical)
      .set("forked_identical", forked_identical)
      .set("scaling_rows_gated", gated_rows)
      .set("scaling_gate_pass", scaling_pass);
  if (gated_rows > 0) gates.set("worst_gated_speedup", worst_gated_speedup);
  json.set("gates", std::move(gates));

  if (!smoke) bench::writeJson(json_path, json);
  bench::footnote(
      "the stream pipeline overlaps batch k+1's addressing with batch k's "
      "wire rounds; a round's wire build and reply scan fork only when its "
      "wire repays the pool's calibrated fork overhead, and the machine "
      "step is serial at every thread count. Identity to serial is a hard "
      "gate at every thread count and at the grain floor.");
  return (all_identical && scaling_pass) ? 0 : 1;
}
