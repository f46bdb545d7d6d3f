// Closed-loop offline workloads: MajorityEngine::executeStream on PpScheme,
// fault-free, planner off, crossbar machine.
//
//   hot_stream  — PpScheme(1,5): every batch is 2048 distinct variables of
//     one 3072-variable pool, so the copy cache is warm and the time goes to
//     the machine step and the wire build/scan.
//   cold_stream — PpScheme(1,7): batches walk one permutation of the whole
//     variable space, so every lookup misses the copy cache and the
//     Section-4 addressing kernels dominate.
//
// Both run one machine thread. On a shared virtual host a forked machine
// pool waits on every worker's wake-up, so its wall time tracks the host's
// steal time, not the program (3-4x apart between runs at 3 threads). The
// traced hot_stream run still times rounds at CPUs - 1 threads (the
// prefetch thread takes the last CPU) and reports the ratio as
// mpc.pool_speedup, where a pool change shows.
//
// A client keeps a window of kWindow batches outstanding: one
// executeStream call per window, whose wall time is the window latency.
// A round replays the same batches on a primed stack (see Stack), so every
// round's simulated counts must repeat exactly.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dsm/protocol/engines.hpp"
#include "dsm/scheme/pp_scheme.hpp"
#include "dsm/util/rng.hpp"
#include "dsm/util/timer.hpp"
#include "dsm/workload/generators.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using dsm::protocol::AccessRequest;
using dsm::protocol::AccessResult;
using Batches = std::vector<std::vector<AccessRequest>>;

constexpr std::size_t kBatch = 2048;
constexpr std::size_t kWindow = 8;
constexpr std::size_t kHotPool = 3072;
constexpr std::size_t kHotBatches = 128;  // per round
constexpr int kMinRounds = 3;
constexpr int kSetups = 9;

struct StreamInputs {
  int n = 5;
  std::uint64_t numVariables = 0;
  Batches warmup;  // part of set-up: run once on each new stack
  Batches round;   // the measured batches, kWindow per executeStream call
};

std::vector<AccessRequest> makeBatch(const std::uint64_t* vars,
                                     std::size_t count, bool write,
                                     dsm::util::Xoshiro256& rng) {
  std::vector<AccessRequest> batch(count);
  for (std::size_t i = 0; i < count; ++i) {
    batch[i].variable = vars[i];
    batch[i].op = write ? dsm::mpc::Op::kWrite : dsm::mpc::Op::kRead;
    batch[i].value = write ? (rng() | 1) : 0;  // nonzero: distinct from init
  }
  return batch;
}

StreamInputs makeInputs(bool cold, std::uint64_t seed) {
  StreamInputs in;
  in.n = cold ? 7 : 5;
  const dsm::scheme::PpScheme scheme(1, in.n);
  in.numVariables = scheme.numVariables();
  dsm::util::Xoshiro256 rng(seed);
  if (cold) {
    std::vector<std::uint64_t> perm(in.numVariables);
    for (std::uint64_t v = 0; v < perm.size(); ++v) perm[v] = v;
    for (std::size_t i = perm.size() - 1; i > 0; --i) {
      std::swap(perm[i], perm[rng.below(i + 1)]);
    }
    const std::size_t batches = perm.size() / kBatch / kWindow * kWindow;
    for (std::size_t b = 0; b < batches; ++b) {
      in.round.push_back(
          makeBatch(&perm[b * kBatch], kBatch, b % 2 == 0, rng));
    }
    // Warm the engine on variables the measured batches never touch, so
    // their lookups stay cold.
    const std::size_t used = batches * kBatch;
    in.warmup.push_back(makeBatch(&perm[used],
                                  std::min(kBatch, perm.size() - used), false,
                                  rng));
    return in;
  }
  const std::vector<std::uint64_t> pool =
      dsm::workload::randomDistinct(in.numVariables, kHotPool, rng);
  for (std::size_t off = 0; off < pool.size(); off += kBatch) {
    in.warmup.push_back(makeBatch(&pool[off],
                                  std::min(kBatch, pool.size() - off), false,
                                  rng));
  }
  std::vector<std::uint64_t> vars = pool;
  for (std::size_t b = 0; b < kHotBatches; ++b) {
    for (std::size_t i = vars.size() - 1; i > 0; --i) {
      std::swap(vars[i], vars[rng.below(i + 1)]);
    }
    in.round.push_back(makeBatch(vars.data(), kBatch, b % 2 == 0, rng));
  }
  return in;
}

struct RoundResult {
  SimCounts counts;
  BatchStats model;
  double busyS = 0.0;  // summed window latencies
  std::vector<double> windowMs;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  dsm::protocol::EngineMetrics engine;
  dsm::mpc::MachineMetrics machine;
};

/// Checks one window's results against the sequential register model
/// (`memory` holds each variable's last kOk write, initially 0).
void checkResults(const Batches& round, std::size_t first,
                  const std::vector<AccessResult>& results,
                  std::vector<std::uint64_t>& memory, RoundResult& out) {
  for (std::size_t k = 0; k < results.size(); ++k) {
    const std::vector<AccessRequest>& batch = round[first + k];
    const AccessResult& res = results[k];
    std::vector<std::uint8_t> unsat(batch.size(), 0);
    for (const std::size_t i : res.unsatisfiable) unsat[i] = 1;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const AccessRequest& req = batch[i];
      const std::uint64_t got = res.values[i];
      ++out.attempted;
      out.counts.outcomeHash = foldOutcome(out.counts.outcomeHash, unsat[i], got);
      if (unsat[i]) {
        ++out.failed;
        if (got != 0) ++out.mismatches;
        continue;
      }
      ++out.counts.ok;
      std::uint64_t& cell = memory[req.variable];
      if (req.op == dsm::mpc::Op::kWrite) {
        if (got != req.value) ++out.mismatches;
        cell = req.value;
      } else if (got != cell) {
        ++out.mismatches;
      }
    }
  }
}

/// One scheme/machine/engine stack that replays the same round of batches
/// again and again. Construction plus the short warm-up is the timed
/// set-up; prime() then runs one untimed round, which brings machine
/// memory, copy cache and scratch to the state every later round starts
/// from, so every measured round's simulated counts must be equal.
class Stack {
 public:
  Stack(const StreamInputs& in, unsigned threads, Tracer* tracer)
      : in_(in), tracer_(tracer), memory_(in.numVariables, 0) {
    dsm::util::Timer setup;
    pp_.emplace(1, in.n);
    if (tracer_) traced_.emplace(*pp_, *tracer_);
    const dsm::scheme::MemoryScheme& scheme =
        traced_ ? static_cast<const dsm::scheme::MemoryScheme&>(*traced_)
                : *pp_;
    machine_.emplace(pp_->numModules(), pp_->slotsPerModule(), threads);
    if (tracer_) {
      engine_ = std::make_unique<ProbeEngine>(scheme, *machine_,
                                              pp_->graph().q(), tracer_);
    } else {
      engine_ =
          std::make_unique<dsm::protocol::MajorityEngine>(scheme, *machine_);
    }
    engine_->executeStream(in_.warmup);
    setup_s_ = setup.seconds();
  }

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  double setupS() const { return setup_s_; }

  /// The untimed first round; its outcomes still go through the register
  /// model.
  RoundResult prime() {
    RoundResult r = round();
    if (tracer_) tracer_->clear();
    return r;
  }

  RoundResult round() {
    RoundResult out;
    engine_->resetMetrics();
    machine_->resetMetrics();
    const std::uint64_t q = pp_->graph().q();
    const std::span<const std::vector<AccessRequest>> all(in_.round);
    for (std::size_t first = 0; first < in_.round.size(); first += kWindow) {
      g_current_tick.store(first / kWindow);
      dsm::util::Timer window;
      std::vector<AccessResult> results;
      {
        ScopedSpan span(tracer_, "stream.window", first / kWindow);
        results = engine_->executeStream(all.subspan(first, kWindow));
      }
      const double ms = window.millis();
      out.windowMs.push_back(ms);
      out.busyS += ms * 1e-3;
      for (const AccessResult& r : results) recordBatch(r, q, out.model);
      checkResults(in_.round, first, results, memory_, out);
    }
    const SimCounts outcome = out.counts;
    out.counts = captureCounts(*machine_, *engine_, nullptr);
    out.counts.ok = outcome.ok;
    out.counts.outcomeHash = outcome.outcomeHash;
    out.engine = engine_->metrics();
    out.machine = machine_->metrics();
    return out;
  }

 private:
  const StreamInputs& in_;
  Tracer* tracer_;
  std::vector<std::uint64_t> memory_;  // register model: last kOk write
  std::optional<dsm::scheme::PpScheme> pp_;
  std::optional<TracedScheme> traced_;
  std::optional<dsm::mpc::Machine> machine_;
  std::unique_ptr<dsm::protocol::MajorityEngine> engine_;
  double setup_s_ = 0.0;
};

bool sameModel(const BatchStats& a, const BatchStats& b) {
  return a.batches == b.batches && a.modeledSteps == b.modeledSteps &&
         a.iterations == b.iterations && a.phiMax == b.phiMax &&
         a.phiOverBound == b.phiOverBound;
}

double perBatch(double seconds, std::uint64_t batches) {
  return batches == 0 ? 0.0 : seconds * 1e3 / static_cast<double>(batches);
}

}  // namespace

Report runStreamWorkload(const RunOptions& options, bool cold) {
  Report report;
  const StreamInputs in = makeInputs(cold, options.seed);
  const unsigned pool_threads = std::max(1u, usableCpus() - 1);
  const bool pool_rounds = options.trace && !cold && pool_threads > 1;
  report.info["config"] = runConfigJson(options, 1);


  // Untraced rounds give the end-to-end numbers. With --trace 1, rounds on
  // a traced stack (decorated scheme + probe engine) and, on hot_stream,
  // untraced rounds at pool_threads take turns with them, so host drift
  // hits every kind alike.
  std::unique_ptr<Tracer> tracer;
  if (options.trace) tracer = std::make_unique<Tracer>();
  std::vector<std::unique_ptr<Stack>> stacks;
  stacks.push_back(std::make_unique<Stack>(in, 1, nullptr));
  if (options.trace) stacks.push_back(std::make_unique<Stack>(in, 1, tracer.get()));
  if (pool_rounds) {
    stacks.push_back(std::make_unique<Stack>(in, pool_threads, nullptr));
  }
  // Set-up is timed on throwaway stacks, before priming: building one
  // evicts the measured stacks' working set, which priming restores.
  std::vector<double> setup;
  for (int i = 0; i < kSetups; ++i) {
    setup.push_back(Stack(in, 1, nullptr).setupS());
  }
  std::vector<RoundResult> primers;
  for (auto& stack : stacks) primers.push_back(stack->prime());
  std::vector<std::vector<RoundResult>> rounds(stacks.size());
  dsm::util::Timer clock;
  for (std::size_t round = 0;; ++round) {
    const bool enough_rounds = std::all_of(
        rounds.begin(), rounds.end(),
        [](const auto& r) { return static_cast<int>(r.size()) >= kMinRounds; });
    if (enough_rounds && clock.seconds() >= options.seconds) break;
    const std::size_t kind = round % stacks.size();
    rounds[kind].push_back(stacks[kind]->round());
  }
  const std::vector<RoundResult>& plain = rounds[0];

  // Determinism: every measured round replays the same inputs from the same
  // state, traced or not, at any machine thread count.
  const RoundResult& ref = plain.front();
  bool same = true;
  for (const auto& set : rounds) {
    for (const RoundResult& r : set) {
      same = same && r.counts == ref.counts && sameModel(r.model, ref.model);
    }
  }
  if (!same) report.fail("simulated counts differ between rounds");
  std::uint64_t mismatches = 0;
  const auto tally = [&](const RoundResult& r) {
    report.attempted += r.attempted;
    report.failed += r.failed + r.mismatches;
    mismatches += r.mismatches;
  };
  for (const RoundResult& r : primers) tally(r);
  for (const auto& set : rounds) {
    for (const RoundResult& r : set) tally(r);
  }
  std::vector<double> throughput, window_ms;
  for (const RoundResult& r : plain) {
    throughput.push_back(static_cast<double>(r.counts.ok) / r.busyS);
    window_ms.insert(window_ms.end(), r.windowMs.begin(), r.windowMs.end());
  }
  if (mismatches != 0) report.fail("register-model mismatches");
  const double kreq = static_cast<double>(ref.counts.ok) / 1e3;

  report.info["rounds"] = std::to_string(plain.size());
  report.info["traced_rounds"] =
      std::to_string(options.trace ? rounds[1].size() : 0);
  report.info["pool_rounds"] =
      std::to_string(pool_rounds ? rounds[2].size() : 0);
  report.info["pool_threads"] = std::to_string(pool_threads);
  report.info["windows"] = std::to_string(window_ms.size());
  report.info["window_batches"] = std::to_string(kWindow);
  report.info["mismatches"] = std::to_string(mismatches);
  report.info["deterministic_repeat"] = same ? "true" : "false";
  report.info["p99_supported"] = window_ms.size() >= 1000 ? "true" : "false";
  report.info["latency_p99_ms"] = std::to_string(percentile(window_ms, 99));

  auto& m = report.metrics;
  m["setup_s"] = median(setup);
  m["throughput_rps"] = median(throughput);
  // A closed loop always runs at the highest rate it sustains.
  m["max_rate_rps"] = m["throughput_rps"];
  m["latency_p50_ms"] = percentile(window_ms, 50);
  m["latency_p95_ms"] = percentile(window_ms, 95);
  m["sim_cycles_per_kreq"] = static_cast<double>(ref.counts.cycles) / kreq;
  m["modeled_steps_per_kreq"] =
      static_cast<double>(ref.model.modeledSteps) / kreq;
  m["peak_rss_mb"] = peakRssMb();

  if (!options.trace) return report;

  // Per-layer metrics from the traced rounds (per executed batch where a
  // layer runs once per batch).
  const std::vector<RoundResult>& traced = rounds[1];
  const SimCounts& c = ref.counts;
  std::vector<double> plain_busy, traced_busy;
  for (const RoundResult& r : plain) plain_busy.push_back(r.busyS);
  for (const RoundResult& r : traced) traced_busy.push_back(r.busyS);
  double build = 0, scan = 0, step = 0, arb = 0, access = 0, addr = 0;
  std::uint64_t misses = 0;
  for (const RoundResult& r : traced) {
    build += r.engine.wireBuildSeconds;
    scan += r.engine.scanSeconds;
    step += r.engine.stepSeconds;
    arb += r.machine.arbSeconds;
    access += r.machine.accessSeconds;
    addr += r.engine.addrSeconds;
    misses += r.engine.cacheMisses;
  }
  const std::uint64_t batches = c.batches * traced.size();
  const SpanTimes batch = spanTimes(*tracer, "protocol.batch");
  const SpanTimes window = spanTimes(*tracer, "stream.window");
  const double scheme_ms = spanTotalMs(*tracer, "scheme.copies_batch") +
                           spanTotalMs(*tracer, "scheme.copies");
  m["protocol.batch_ms.p50"] = percentile(batch.durMs, 50);
  m["protocol.batch_ms.p99"] = percentile(batch.durMs, 99);
  m["protocol.self_ms"] = percentile(batch.selfMs, 50);
  m["protocol.wire_build_ms"] = perBatch(build, batches);
  m["protocol.scan_ms"] = perBatch(scan, batches);
  m["protocol.step_ms"] = perBatch(step, batches);
  m["protocol.wire_per_req"] = ratio(c.wireRequests, c.requests);
  m["protocol.phi_max"] = static_cast<double>(ref.model.phiMax);
  m["protocol.phi_over_bound"] = ref.model.phiOverBound;
  m["protocol.escalations"] = perKreq(c.escalations, c.ok);
  m["protocol.plan_savings_per_req"] = ratio(c.planSavings, c.requests);
  m["protocol.repairs"] = perKreq(c.repairs, c.ok);
  m["protocol.dead_copies"] = perKreq(c.deadCopies, c.ok);
  m["protocol.staged_aborted"] = perKreq(c.stagedAborted, c.ok);
  m["mpc.cycles_per_batch"] = ratio(c.cycles, c.batches);
  m["mpc.grant_ratio"] = ratio(c.granted, c.issued);
  m["mpc.max_module_queue"] = static_cast<double>(c.maxModuleQueue);
  m["mpc.grants_dropped"] = perKreq(c.grantsDropped, c.ok);
  m["mpc.arb_ms"] = perBatch(arb, batches);
  m["mpc.access_ms"] = perBatch(access, batches);
  m["mpc.host_ns_per_wire_req"] =
      step * 1e9 / static_cast<double>(c.issued * traced.size());
  m["scheme.copies_batch_ms"] = scheme_ms / static_cast<double>(batches);
  m["scheme.ns_per_miss"] =
      misses == 0 ? 0.0 : scheme_ms * 1e6 / static_cast<double>(misses);
  m["scheme.cache_hit_rate"] = ratio(c.cacheHits, c.cacheHits + c.cacheMisses);
  m["scheme.miss_lanes_per_chunk"] = ratio(c.addrLanes, c.addrChunks);
  m["scheme.addr_ms"] = perBatch(addr, batches);
  m["trace.overhead_share"] = median(traced_busy) / median(plain_busy) - 1.0;
  if (pool_rounds) {
    std::vector<double> pool_rps;
    for (const RoundResult& r : rounds[2]) {
      pool_rps.push_back(static_cast<double>(r.counts.ok) / r.busyS);
    }
    m["mpc.pool_speedup"] = median(pool_rps) / median(throughput);
  }
  m["trace.coverage_share"] = window.childMs / window.totalMs;
  report.info["spans"] = std::to_string(tracer->spanCount());
  if (!options.artifactPrefix.empty()) {
    tracer->write(options.artifactPrefix + "-spans.tsv");
  }
  return report;
}

}  // namespace perfbench
