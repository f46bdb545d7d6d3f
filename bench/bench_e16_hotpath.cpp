// E16 — hot-path overhaul: (A) raw Machine::step throughput on a saturated
// wire, fused two-sweep cycle vs the five-pass mpc::ReferenceCycle, and (B)
// end-to-end stream throughput, persistent-wire MajorityEngine vs the
// from-scratch ReferenceMajorityEngine on the E14 hot-pool workload (both
// oracles from dsm_oracle). The reference stream runs as the pre-overhaul
// strictly serial batch loop: one execute() per batch, no prepare overlap.
// Both parts run fault-free and under a FaultPlan, at 1 and many threads,
// and every configuration's outputs must be bit-identical to its reference
// — the overhaul buys throughput, never different answers.
//
// --smoke shrinks every dimension to seconds-scale and asserts the
// bit-identity gates plus the 0.95x stream thread-scaling floor (ctest runs
// it under the `perf` label); only the 2x step-speedup gate needs a full
// run, which additionally writes BENCH_e16.json with the measured numbers.
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
#include "oracle/reference_engine.hpp"

namespace {

using namespace dsm;

constexpr mpc::Op kOps[] = {mpc::Op::kRead, mpc::Op::kWrite, mpc::Op::kCommit,
                            mpc::Op::kAbort, mpc::Op::kRepair};

mpc::FaultPlan dropPlan() {
  mpc::FaultPlan plan;
  plan.grantDropProbability = 0.1;
  plan.seed = 16;
  return plan;
}

// Saturated wire: every module sees `per_module` competing requests each
// cycle, ops rotate through all five kinds so the staged tables churn.
std::vector<mpc::Request> saturatedWire(std::uint64_t modules,
                                        std::uint64_t slots,
                                        std::uint64_t per_module,
                                        std::uint64_t cyc) {
  std::vector<mpc::Request> wire;
  wire.reserve(modules * per_module);
  for (std::uint64_t i = 0; i < modules * per_module; ++i) {
    const std::uint64_t m = i % modules;
    wire.push_back(mpc::Request{static_cast<std::uint32_t>(i), m,
                                (i / modules + cyc) % slots,
                                kOps[(i + cyc) % 5], i ^ cyc, cyc + 1});
  }
  return wire;
}

struct StepRun {
  double fast_secs = 0.0;
  double ref_secs = 0.0;
  double arb_secs = 0.0;     ///< fused sweep 1 (validate+arbitrate+count)
  double access_secs = 0.0;  ///< fused sweep 2 (access+peak+reset)
  bool identical = true;
};

// Each repetition runs the whole cycle loop on fresh machines; the reported
// time is the best repetition (standard best-of-N to shed scheduler noise —
// both sides get the same treatment, so the ratio stays honest). Responses
// and metrics are bit-compared on every repetition.
StepRun runStepBench(std::uint64_t modules, std::uint64_t slots,
                     std::uint64_t per_module, std::uint64_t cycles,
                     unsigned threads, bool faults, std::uint64_t reps) {
  StepRun out;
  out.fast_secs = 1e18;
  out.ref_secs = 1e18;
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    mpc::Machine fast(modules, slots, threads);
    mpc::Machine ref(modules, slots, threads);
    mpc::ReferenceCycle oracle(ref);
    if (faults) {
      fast.setFaultPlan(dropPlan());
      ref.setFaultPlan(dropPlan());
    }
    double fast_secs = 0.0;
    double ref_secs = 0.0;
    std::vector<mpc::Response> fast_resp;
    std::vector<mpc::Response> ref_resp;
    util::Timer t;
    for (std::uint64_t cyc = 0; cyc < cycles; ++cyc) {
      const auto wire = saturatedWire(modules, slots, per_module, cyc);
      t.reset();
      fast.step(wire, fast_resp);
      fast_secs += t.seconds();
      t.reset();
      oracle.step(wire, ref_resp);
      ref_secs += t.seconds();
      out.identical = out.identical && fast_resp == ref_resp;
    }
    const auto& fm = fast.metrics();
    const auto& rm = ref.metrics();
    out.identical = out.identical && fm.requestsGranted == rm.requestsGranted &&
                    fm.maxModuleQueue == rm.maxModuleQueue &&
                    fm.grantsDropped == rm.grantsDropped;
    if (fast_secs < out.fast_secs) {
      out.fast_secs = fast_secs;
      out.arb_secs = fm.arbSeconds;
      out.access_secs = fm.accessSeconds;
    }
    out.ref_secs = std::min(out.ref_secs, ref_secs);
  }
  return out;
}

// E14-style hot-working-set stream: every batch is a fresh shuffle of one
// variable pool, alternating writes and reads so values flow across it.
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

struct StreamRun {
  double fast_secs = 0.0;
  double ref_secs = 0.0;
  bool identical = true;
  protocol::EngineMetrics fast_metrics;
};

StreamRun runStreamBench(
    const scheme::PpScheme& s,
    const std::vector<std::vector<protocol::AccessRequest>>& stream,
    unsigned threads, bool faults) {
  StreamRun out;
  util::Timer t;
  std::vector<protocol::AccessResult> fast_results;
  std::vector<protocol::AccessResult> ref_results;
  {
    mpc::Machine m(s.numModules(), s.slotsPerModule(), threads);
    if (faults) m.setFaultPlan(dropPlan());
    protocol::MajorityEngine eng(s, m);
    t.reset();
    fast_results = eng.executeStream(stream);
    out.fast_secs = t.seconds();
    out.fast_metrics = eng.metrics();
  }
  {
    mpc::Machine m(s.numModules(), s.slotsPerModule(), threads);
    if (faults) m.setFaultPlan(dropPlan());
    protocol::ReferenceMajorityEngine eng(s, m);
    ref_results.reserve(stream.size());
    t.reset();
    for (const auto& batch : stream) ref_results.push_back(eng.execute(batch));
    out.ref_secs = t.seconds();
  }
  out.identical = fast_results == ref_results;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const bool smoke = cli.getBool("smoke", false);

  // Step-bench shape.
  const std::uint64_t modules = cli.getUint("modules", smoke ? 32 : 256);
  const std::uint64_t slots = cli.getUint("slots", smoke ? 64 : 1024);
  const std::uint64_t per_module = cli.getUint("per-module", smoke ? 2 : 4);
  const std::uint64_t cycles = cli.getUint("cycles", smoke ? 50 : 2000);
  const std::uint64_t reps = cli.getUint("reps", smoke ? 1 : 3);
  // Stream-bench shape (E14's hot pool).
  const int n = static_cast<int>(cli.getUint("n", smoke ? 5 : 7));
  const std::size_t batches = cli.getUint("batches", smoke ? 4 : 24);
  const std::size_t batch_size = cli.getUint("batch", smoke ? 128 : 2048);
  const std::size_t pool_size = cli.getUint("pool", smoke ? 256 : 3072);
  const std::uint64_t seed = cli.getUint("seed", 5);
  // Smoke always exercises a forked pool for the determinism check; the
  // timed run adds a hardware-threads row only when the host actually has
  // more than one CPU (an oversubscribed pool measures the scheduler).
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::uint64_t> default_threads{1};
  if (smoke) {
    default_threads.push_back(2);
  } else if (hw > 1) {
    default_threads.push_back(hw);
  }
  const auto thread_counts = cli.getUintList("threads", default_threads);
  const std::string json_path = cli.getString("json", "BENCH_e16.json");
  DSM_CHECK_MSG(batch_size <= pool_size,
                "--batch must not exceed --pool: " << batch_size << " > "
                                                   << pool_size);

  bench::banner(
      "E16", "hot-path overhaul (wire " + std::to_string(modules) + "x" +
                 std::to_string(per_module) + " entries x " +
                 std::to_string(cycles) + " cycles; stream " +
                 std::to_string(batches) + " batches x " +
                 std::to_string(batch_size) + ", n=" + std::to_string(n) +
                 (smoke ? ", SMOKE" : "") + ")");

  bench::Json json = bench::Json::obj();
  json.set("experiment", "E16")
      .set("title", "hot-path overhaul: fused step, flat staging, "
                    "persistent wire");
  bench::Json config = bench::Json::obj();
  config.set("modules", modules)
      .set("slots", slots)
      .set("per_module", per_module)
      .set("cycles", cycles)
      .set("reps", reps)
      .set("n", n)
      .set("batches", static_cast<std::uint64_t>(batches))
      .set("batch_size", static_cast<std::uint64_t>(batch_size))
      .set("pool_size", static_cast<std::uint64_t>(pool_size))
      .set("seed", seed)
      .set("smoke", smoke);
  json.set("config", std::move(config));

  bool all_identical = true;
  double worst_step_speedup = 1e18;

  // Part A: saturated-wire step throughput, fused step vs reference cycle.
  const std::uint64_t wire_entries = modules * per_module;
  util::TextTable step_table({"threads", "faults", "ref Mentr/s",
                              "fused Mentr/s", "speedup", "identical"});
  bench::Json step_rows = bench::Json::arr();
  for (const std::uint64_t threads : thread_counts) {
    for (const bool faults : {false, true}) {
      const StepRun r =
          runStepBench(modules, slots, per_module, cycles,
                       static_cast<unsigned>(threads), faults, reps);
      const double total = static_cast<double>(wire_entries * cycles);
      const double speedup = r.ref_secs / r.fast_secs;
      all_identical = all_identical && r.identical;
      worst_step_speedup = std::min(worst_step_speedup, speedup);
      step_table.addRow({util::TextTable::num(threads),
                         faults ? "drops" : "none",
                         util::TextTable::num(total / r.ref_secs / 1e6, 2),
                         util::TextTable::num(total / r.fast_secs / 1e6, 2),
                         util::TextTable::num(speedup, 2),
                         r.identical ? "yes" : "NO"});
      bench::Json row = bench::Json::obj();
      row.set("threads", threads)
          .set("faults", faults)
          .set("wire_entries", wire_entries)
          .set("ref_entries_per_sec", total / r.ref_secs)
          .set("fused_entries_per_sec", total / r.fast_secs)
          .set("speedup", speedup)
          .set("identical", r.identical)
          .set("arb_sweep_ms", r.arb_secs * 1e3)
          .set("access_sweep_ms", r.access_secs * 1e3);
      step_rows.push(std::move(row));
    }
  }
  std::cout << "  Machine::step, saturated wire:\n";
  step_table.print(std::cout);
  json.set("step", std::move(step_rows));

  // Part B: end-to-end stream, persistent wire vs from-scratch reference.
  const scheme::PpScheme s(1, n);
  const auto stream = hotPoolStream(s, batches, batch_size, pool_size, seed);
  const std::size_t total_requests = batches * batch_size;
  double best_stream_speedup = 0.0;
  // Thread-scaling floor (smoke and full runs alike): on a host that can
  // actually run the pool in parallel, a forked stream must keep at least
  // 0.95x of the serial throughput — parallelism must never cost 5%.
  double serial_stream_secs[2] = {0.0, 0.0};
  bool stream_scaling_pass = true;
  std::uint64_t stream_scaling_rows = 0;
  double worst_stream_scaling = 1e18;
  util::TextTable stream_table({"threads", "faults", "ref req/s",
                                "persistent req/s", "speedup", "identical"});
  bench::Json stream_rows = bench::Json::arr();
  for (const std::uint64_t threads : thread_counts) {
    for (const bool faults : {false, true}) {
      const StreamRun r =
          runStreamBench(s, stream, static_cast<unsigned>(threads), faults);
      const double speedup = r.ref_secs / r.fast_secs;
      all_identical = all_identical && r.identical;
      best_stream_speedup = std::max(best_stream_speedup, speedup);
      if (threads == 1) {
        serial_stream_secs[faults] = r.fast_secs;
      } else if (threads <= hw && serial_stream_secs[faults] > 0.0) {
        const double scaling = serial_stream_secs[faults] / r.fast_secs;
        ++stream_scaling_rows;
        worst_stream_scaling = std::min(worst_stream_scaling, scaling);
        stream_scaling_pass = stream_scaling_pass && scaling >= 0.95;
      }
      stream_table.addRow(
          {util::TextTable::num(threads), faults ? "drops" : "none",
           util::TextTable::num(total_requests / r.ref_secs, 0),
           util::TextTable::num(total_requests / r.fast_secs, 0),
           util::TextTable::num(speedup, 2), r.identical ? "yes" : "NO"});
      bench::Json row = bench::Json::obj();
      row.set("threads", threads)
          .set("faults", faults)
          .set("requests", static_cast<std::uint64_t>(total_requests))
          .set("ref_req_per_sec", total_requests / r.ref_secs)
          .set("persistent_req_per_sec", total_requests / r.fast_secs)
          .set("speedup", speedup)
          .set("identical", r.identical)
          .set("wire_build_ms", r.fast_metrics.wireBuildSeconds * 1e3)
          .set("step_ms", r.fast_metrics.stepSeconds * 1e3)
          .set("scan_ms", r.fast_metrics.scanSeconds * 1e3);
      stream_rows.push(std::move(row));
    }
  }
  std::cout << "  end-to-end stream (MajorityEngine vs reference):\n";
  stream_table.print(std::cout);
  json.set("stream", std::move(stream_rows));

  // Untimed forked identity at the fixed fork-grain floor: the timed rows
  // run at the pool's calibrated grain, which keeps these wires inline on
  // a host whose fork overhead outweighs them. At the floor a full
  // run's step wire and stream rounds fork; the smoke's stay inline even
  // there, so it skips this.
  bool forked_identical = true;
  if (!smoke) {
    const unsigned fork_threads =
        static_cast<unsigned>(std::max<std::uint64_t>(
            2, *std::max_element(thread_counts.begin(), thread_counts.end())));
    for (const bool faults : {false, true}) {
      forked_identical = forked_identical && bench::atFloorForkGrain([&] {
        return runStepBench(modules, slots, per_module, cycles, fork_threads,
                            faults, 1)
                   .identical &&
               runStreamBench(s, stream, fork_threads, faults).identical;
      });
    }
    all_identical = all_identical && forked_identical;
    std::cout << "  " << fork_threads << "-thread pool at the "
              << mpc::ThreadPool::kMinItemsPerWorker
              << "-item grain floor (untimed) identical to reference: "
              << (forked_identical ? "yes" : "NO") << "\n";
  }

  const bool speed_gate = smoke || worst_step_speedup >= 2.0;
  std::cout << "  worst step speedup: "
            << util::TextTable::num(worst_step_speedup, 2) << "x ("
            << (worst_step_speedup >= 2.0 ? "PASS" : (smoke ? "n/a in smoke"
                                                            : "FAIL"))
            << " >= 2x gate); best stream speedup: "
            << util::TextTable::num(best_stream_speedup, 2)
            << "x; outputs bit-identical to reference everywhere: "
            << (all_identical ? "yes" : "NO") << "\n";
  if (stream_scaling_rows == 0) {
    std::cout << "  stream thread-scaling gate: n/a (host has " << hw
              << " CPU)\n";
  } else {
    std::cout << "  stream thread-scaling gate: worst "
              << util::TextTable::num(worst_stream_scaling, 2)
              << "x vs serial ("
              << (stream_scaling_pass ? "PASS" : "FAIL") << " >= 0.95x)\n";
  }
  bench::Json gates = bench::Json::obj();
  gates.set("step_speedup_worst", worst_step_speedup)
      .set("step_speedup_gate_2x", worst_step_speedup >= 2.0)
      .set("stream_speedup_best", best_stream_speedup)
      .set("stream_scaling_rows", stream_scaling_rows)
      .set("stream_scaling_pass", stream_scaling_pass)
      .set("forked_identical", forked_identical)
      .set("all_identical", all_identical);
  if (stream_scaling_rows > 0) {
    gates.set("stream_scaling_worst", worst_stream_scaling);
  }
  json.set("gates", std::move(gates));

  if (!smoke) bench::writeJson(json_path, json);
  bench::footnote(
      "the fused cycle does two parallel sweeps instead of five and never "
      "pre-clears responses; the flat staged tables drop the per-entry "
      "allocations; the persistent wire retires requests incrementally "
      "instead of rebuilding the wire every iteration. --smoke checks the "
      "bit-identity gates and the stream thread-scaling floor (the step "
      "speed gate needs a full run).");
  return (all_identical && speed_gate && stream_scaling_pass) ? 0 : 1;
}
