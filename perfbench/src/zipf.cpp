// zipf_serve — open-loop, wall-paced serving through serve::AdmissionScheduler
// on the planned stack: combining, engine quorum planner and plan-aware
// composition on; a port-shared ButterflyInterconnect (128 ports); a
// FaultPlan of rolling one-module transient outages plus grant-drop noise;
// one machine thread (see stream.cpp for why no workload forks the pool).
//
// Traffic: every virtual tick 16 client sessions submit kTickRequests
// requests, Zipf(1.1) over a greedy-adversarial 4096-variable pool, 90 %
// reads. The per-tick trace is a function of the seed and the tick index
// only, and virtual time advances one tick per tick() call, so
// composition, batches and every simulated count are identical at every
// offered rate: the wall tick period alone sets the rate, and host speed
// alone decides whether ticks keep up. Latency runs from each request's
// due time (the tick's scheduled start), so a stall also charges the
// requests queued behind it; generator lateness is reported separately.
//
// Phases, each on a freshly built stack (timed as set-up) that first runs
// kWarmupTicks unpaced:
//   * model    — unpaced replay through ProbeEngine: the paper cost model;
//   * nominal  — kNominalTicks at kNominalRate: latency_p50/p95_ms (the
//     p99 goes to the open-loop bookkeeping);
//   * capacity — ticks back to back: throughput_rps;
//   * ladder   — fixed rates kLadderBase * kLadderStep^i from just below
//     the measured capacity upward until one fails: max_rate_rps.
// With --trace 1 the phases are one untraced and one traced run of
// kTracedTicks at the nominal rate.
// Every phase's simulated counts at the checkpoint tick must agree.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "dsm/mpc/interconnect.hpp"
#include "dsm/scheme/pp_scheme.hpp"
#include "dsm/serve/serve.hpp"
#include "dsm/util/rng.hpp"
#include "dsm/util/timer.hpp"
#include "dsm/workload/generators.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSchemeN = 5;
constexpr std::size_t kMaxBatch = 512;
constexpr std::size_t kBatchesPerPump = 3;
constexpr std::size_t kTickRequests = kMaxBatch * kBatchesPerPump;
constexpr std::size_t kSessions = 16;
constexpr std::size_t kPool = 4096;
constexpr std::size_t kGreedyCandidates = 64;
constexpr std::uint64_t kPorts = 128;
constexpr double kAlpha = 1.1;
constexpr std::uint64_t kReadPct = 90;
constexpr std::size_t kTemplateTicks = 256;  // trace period in ticks
// Rolling outages: one module down for kOutageCycles every kOutageSpacing
// machine cycles, far enough apart that no batch meets two of them (the
// engine remembers a batch's dead modules), so every quorum stays reachable.
constexpr std::uint64_t kOutageSpacing = 2000;
constexpr std::uint64_t kOutageCycles = 60;
constexpr double kGrantDrop = 0.03;

constexpr std::uint64_t kWarmupTicks = 50;
constexpr std::uint64_t kCheckpointTicks = 200;  // measured ticks compared
constexpr std::uint64_t kCapacityTicks = 600;
constexpr std::uint64_t kNominalTicks = 2000;    // p99: 20 pumps beyond
constexpr std::uint64_t kTracedTicks = 1000;     // per-layer p99: 10 beyond
constexpr double kNominalRate = 125.0;           // ticks per second
constexpr std::uint64_t kRungTicks = 300;
constexpr double kRungPercentile = 95.0;         // 15 pumps beyond at 300
constexpr double kLadderBase = 50.0;             // ticks per second
constexpr double kLadderStep = 1.05;
constexpr int kLadderRungs = 60;
constexpr double kLadderStart = 0.85;  // share of the measured capacity
constexpr double kLatencyLimitMs = 25.0;

double ladderRate(int rung) { return kLadderBase * std::pow(kLadderStep, rung); }

struct TickRequest {
  std::uint32_t var = 0;  // index into the pool
  std::uint8_t session = 0;
  bool write = false;
};

struct ZipfInputs {
  std::uint64_t seed = 0;
  std::vector<std::uint64_t> pool;
  std::vector<TickRequest> trace;  // kTemplateTicks * kTickRequests
  dsm::mpc::FaultPlan faults;
};

ZipfInputs makeInputs(std::uint64_t seed) {
  ZipfInputs in;
  in.seed = seed;
  const dsm::scheme::PpScheme scheme(1, kSchemeN);
  dsm::util::Xoshiro256 rng(seed);
  in.pool = dsm::workload::greedyAdversarial(scheme, kPool, kGreedyCandidates,
                                             rng);
  std::vector<double> cdf(in.pool.size());
  double total = 0.0;
  for (std::size_t i = 0; i < cdf.size(); ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), kAlpha);
    cdf[i] = total;
  }
  in.trace.resize(kTemplateTicks * kTickRequests);
  for (TickRequest& r : in.trace) {
    const double u = rng.uniform() * total;
    r.var = static_cast<std::uint32_t>(
        std::min<std::size_t>(cdf.size() - 1,
                              std::lower_bound(cdf.begin(), cdf.end(), u) -
                                  cdf.begin()));
    r.session = static_cast<std::uint8_t>(rng.below(kSessions));
    r.write = rng.below(100) >= kReadPct;
  }
  in.faults.grantDropProbability = kGrantDrop;
  in.faults.seed = seed ^ 0xFA17ULL;
  for (std::uint64_t start = kOutageSpacing / 2; start < 40'000'000;
       start += kOutageSpacing) {
    in.faults.transientAt(start, rng.below(scheme.numModules()),
                          kOutageCycles);
  }
  return in;
}

/// Payload of trace entry `j` of tick `t`: a pure function of the seed.
std::uint64_t writeValue(std::uint64_t seed, std::uint64_t tick,
                         std::size_t j) {
  dsm::util::SplitMix64 mix(seed ^ (tick * kTickRequests + j) *
                                       0x9E3779B97F4A7C15ULL);
  return mix.next() | 1;  // nonzero: distinct from the initial 0
}

/// The sequential register model, applied in global submit order: each kOk
/// read must return the value of the latest earlier kOk write (initially
/// 0); non-kOk outcomes must carry a zero value.
class SubmitOrderModel {
 public:
  /// `submits` sizes the id map up front, so no reallocation lands inside
  /// a timed tick.
  SubmitOrderModel(std::uint64_t num_vars, std::size_t sessions,
                   std::uint64_t submits)
      : memory_(num_vars, 0), seq_of_(sessions) {
    for (auto& ids : seq_of_) ids.reserve(2 * submits / sessions);
  }

  void submit(std::size_t session, std::uint64_t request_id,
              std::uint64_t var, bool write, std::uint64_t value) {
    auto& ids = seq_of_[session];
    if (ids.size() <= request_id) ids.resize(request_id + 1);
    ids[request_id] = base_ + records_.size();
    records_.push_back({var, value, write, false, 0, 0});
  }

  void complete(std::size_t session, const dsm::serve::Response& r) {
    Record& rec = records_[seq_of_[session][r.requestId] - base_];
    rec.done = true;
    rec.status = static_cast<std::uint8_t>(r.status);
    rec.got = r.value;
    while (!records_.empty() && records_.front().done) {
      apply(records_.front());
      records_.pop_front();
      ++base_;
    }
  }

  std::uint64_t applied() const { return base_; }
  std::uint64_t ok() const { return ok_; }
  std::uint64_t failed() const { return failed_; }
  std::uint64_t mismatches() const { return mismatches_; }
  std::uint64_t hash() const { return hash_; }

 private:
  struct Record {
    std::uint64_t var;
    std::uint64_t value;
    bool write;
    bool done;
    std::uint8_t status;
    std::uint64_t got;
  };

  void apply(const Record& rec) {
    hash_ = foldOutcome(hash_, rec.status, rec.got);
    if (rec.status != static_cast<std::uint8_t>(dsm::serve::Status::kOk)) {
      ++failed_;
      if (rec.got != 0) ++mismatches_;
      return;
    }
    ++ok_;
    std::uint64_t& cell = memory_[rec.var];
    if (rec.write) {
      if (rec.got != rec.value) ++mismatches_;
      cell = rec.value;
    } else if (rec.got != cell) {
      ++mismatches_;
    }
  }

  std::vector<std::uint64_t> memory_;
  std::vector<std::vector<std::uint64_t>> seq_of_;  // request id -> seq
  std::deque<Record> records_;  // submitted, not yet applied
  std::uint64_t base_ = 0;      // seq of records_.front()
  std::uint64_t ok_ = 0, failed_ = 0, mismatches_ = 0, hash_ = 0;
};

struct PhaseSpec {
  std::uint64_t ticks = 0;  // measured ticks after the warm-up
  double rate = 0.0;        // ticks per second; 0 = back to back
  bool probe = false;       // run through ProbeEngine (cost model)
  Tracer* tracer = nullptr; // decorate every layer and record spans
};

struct PhaseResult {
  double setupS = 0.0;
  SimCounts checkpoint;
  BatchStats checkpointModel;
  SimCounts end;
  BatchStats endModel;
  // Latency of every response to a measured tick, one entry per (pump,
  // submit tick): the responses of one pump share a delivery time.
  std::vector<Weighted> latencyMs;
  std::uint64_t latencySamples = 0;
  std::vector<double> latenessMs;  // per measured tick
  std::vector<double> busyMs;      // per measured tick
  double wallS = 0.0;              // first measured tick start to last end
  std::uint64_t okMeasured = 0;
  std::uint64_t submitsMeasured = 0;
  std::uint64_t attempted = 0, failed = 0, mismatches = 0;
  std::uint64_t measuredBatches = 0;
  dsm::protocol::EngineMetrics engineStart, engineEnd;
  dsm::mpc::MachineMetrics machineStart, machineEnd;
};

/// Spins until `due`. A sleeping generator wakes late on a virtual host
/// (timer slack plus vCPU wake-up), which would show up as lateness that
/// the program did not cause.
void waitUntil(Clock::time_point due) {
  while (Clock::now() < due) {
  }
}

PhaseResult runPhase(const ZipfInputs& in, const PhaseSpec& spec) {
  PhaseResult out;
  dsm::util::Timer setup;
  const dsm::scheme::PpScheme pp(1, kSchemeN);
  std::optional<TracedScheme> traced_scheme;
  if (spec.tracer) traced_scheme.emplace(pp, *spec.tracer);
  const dsm::scheme::MemoryScheme& scheme =
      traced_scheme ? static_cast<const dsm::scheme::MemoryScheme&>(
                          *traced_scheme)
                    : pp;
  dsm::mpc::Machine machine(pp.numModules(), pp.slotsPerModule(), 1);
  auto butterfly =
      std::make_unique<dsm::mpc::ButterflyInterconnect>(pp.numModules(), kPorts);
  if (spec.tracer) {
    machine.setInterconnect(std::make_unique<TracedInterconnect>(
        std::move(butterfly), *spec.tracer));
  } else {
    machine.setInterconnect(std::move(butterfly));
  }
  machine.setFaultPlan(in.faults);
  std::unique_ptr<dsm::protocol::MajorityEngine> engine;
  ProbeEngine* probe = nullptr;
  if (spec.probe || spec.tracer) {
    auto p = std::make_unique<ProbeEngine>(scheme, machine, pp.graph().q(),
                                           spec.tracer);
    probe = p.get();
    engine = std::move(p);
  } else {
    engine = std::make_unique<dsm::protocol::MajorityEngine>(scheme, machine);
  }
  engine->setPlannerEnabled(true);
  dsm::serve::ServeConfig cfg;
  cfg.maxBatch = kMaxBatch;
  cfg.maxBatchesPerPump = kBatchesPerPump;
  cfg.maxWaitTicks = 1;
  cfg.queueCapacity = 1u << 16;
  cfg.combineDuplicates = true;
  cfg.planAwareComposition = true;
  dsm::serve::AdmissionScheduler sched(*engine, cfg);
  std::vector<dsm::serve::ClientSession*> sessions;
  for (std::size_t i = 0; i < kSessions; ++i) {
    sessions.push_back(&sched.openSession());
  }
  const std::uint64_t total_ticks = kWarmupTicks + spec.ticks;
  SubmitOrderModel model(pp.numVariables(), kSessions,
                         total_ticks * kTickRequests);

  const std::uint64_t checkpoint_tick = kWarmupTicks + kCheckpointTicks;
  const double period_s = spec.rate > 0.0 ? 1.0 / spec.rate : 0.0;
  Clock::time_point start;
  std::vector<Clock::time_point> due(spec.ticks);
  dsm::serve::Response resp;
  std::map<std::uint64_t, std::uint64_t> ok_by_tick;  // per pump
  out.latencyMs.reserve(2 * spec.ticks);
  out.latenessMs.reserve(spec.ticks);
  out.busyMs.reserve(spec.ticks);
  for (std::uint64_t t = 0; t < total_ticks; ++t) {
    const bool measured = t >= kWarmupTicks;
    const std::uint64_t k = t - kWarmupTicks;  // valid when measured
    if (t == kWarmupTicks) {
      if (spec.tracer) spec.tracer->clear();
      out.engineStart = engine->metrics();
      out.machineStart = machine.metrics();
      out.setupS = setup.seconds();
      start = Clock::now();
    }
    if (measured) {
      due[k] = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(period_s * k));
      if (spec.rate > 0.0) waitUntil(due[k]);
    }
    const Clock::time_point begin = Clock::now();
    if (measured && spec.rate == 0.0) due[k] = begin;
    g_current_tick.store(t);
    const TickRequest* reqs = &in.trace[(t % kTemplateTicks) * kTickRequests];
    {
      ScopedSpan span(spec.tracer, "serve.submit", t);
      for (std::size_t j = 0; j < kTickRequests; ++j) {
        const TickRequest& r = reqs[j];
        dsm::serve::ClientSession& s = *sessions[r.session];
        const std::uint64_t var = in.pool[r.var];
        std::uint64_t id = 0;
        std::uint64_t value = 0;
        if (r.write) {
          value = writeValue(in.seed, t, j);
          id = s.submitWrite(var, value);
        } else {
          id = s.submitRead(var);
        }
        model.submit(r.session, id, var, r.write, value);
      }
    }
    {
      ScopedSpan span(spec.tracer, "serve.tick", t);
      sched.tick();
    }
    const Clock::time_point delivered = Clock::now();
    for (std::size_t si = 0; si < sessions.size(); ++si) {
      while (sessions[si]->poll(resp)) {
        model.complete(si, resp);
        if (resp.submitTick < kWarmupTicks) continue;
        ++out.latencySamples;
        if (resp.status != dsm::serve::Status::kOk) {
          // A failed request misses every latency limit.
          out.latencyMs.push_back({std::numeric_limits<double>::infinity(), 1});
          continue;
        }
        ++out.okMeasured;
        ++ok_by_tick[resp.submitTick - kWarmupTicks];
      }
    }
    for (const auto& [sk, count] : ok_by_tick) {
      out.latencyMs.push_back(
          {std::chrono::duration<double, std::milli>(delivered - due[sk])
               .count(),
           count});
    }
    ok_by_tick.clear();
    if (measured) {
      out.submitsMeasured += kTickRequests;
      out.latenessMs.push_back(
          std::chrono::duration<double, std::milli>(begin - due[k]).count());
      out.busyMs.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - begin)
              .count());
    }
    if (t + 1 == checkpoint_tick) {
      out.checkpoint = captureCounts(machine, *engine, &sched);
      out.checkpoint.ok = model.ok();
      out.checkpoint.outcomeHash = model.hash();
      if (probe) out.checkpointModel = probe->stats();
    }
  }
  out.wallS = std::chrono::duration<double>(Clock::now() - start).count();
  // Serve whatever is still queued, so every submitted request is checked.
  sched.flush();
  for (std::size_t si = 0; si < sessions.size(); ++si) {
    while (sessions[si]->poll(resp)) model.complete(si, resp);
  }
  out.end = captureCounts(machine, *engine, &sched);
  out.end.ok = model.ok();
  out.end.outcomeHash = model.hash();
  if (probe) out.endModel = probe->stats();
  out.engineEnd = engine->metrics();
  out.machineEnd = machine.metrics();
  out.measuredBatches = out.engineEnd.batches - out.engineStart.batches;
  out.attempted = model.applied();
  out.failed = model.failed();
  out.mismatches = model.mismatches();
  return out;
}

/// Lateness trend: median of the last quarter minus median of the first.
double latenessTrendMs(const std::vector<double>& lateness) {
  const std::size_t q = lateness.size() / 4;
  if (q == 0) return 0.0;
  return median({lateness.end() - static_cast<std::ptrdiff_t>(q),
                 lateness.end()}) -
         median({lateness.begin(),
                 lateness.begin() + static_cast<std::ptrdiff_t>(q)});
}

/// Open-loop bookkeeping for one paced phase, as a JSON object. `pass`
/// receives whether the phase met the latency limit at percentile `pct`
/// without a growing backlog.
std::string openLoopJson(const PhaseResult& r, double rate, double pct,
                         bool* pass_out) {
  const double period_ms = 1e3 / rate;
  const double trend = latenessTrendMs(r.latenessMs);
  const double tail = weightedPercentile(r.latencyMs, pct);
  const bool growing = trend > 2.0 * period_ms;
  const bool pass = tail <= kLatencyLimitMs && !growing;
  if (pass_out) *pass_out = pass;
  std::ostringstream os;
  os << "{\"rate_rps\": " << rate * kTickRequests
     << ", \"ticks_per_s\": " << rate << ", \"pumps\": " << r.latenessMs.size()
     << ", \"samples\": " << r.latencySamples
     << ", \"latency_p50_ms\": " << weightedPercentile(r.latencyMs, 50)
     << ", \"latency_p" << pct << "_ms\": " << tail
     << ", \"lateness_p50_ms\": " << percentile(r.latenessMs, 50)
     << ", \"lateness_p99_ms\": " << percentile(r.latenessMs, 99)
     << ", \"lateness_trend_ms\": " << trend
     << ", \"growing_backlog\": " << (growing ? "true" : "false")
     << ", \"meets_limit\": " << (pass ? "true" : "false") << "}";
  return os.str();
}

void addPerLayer(const PhaseResult& plain, const PhaseResult& traced,
                 const Tracer& tracer, Report& report) {
  auto& m = report.metrics;
  const SimCounts& c = traced.end;
  const std::uint64_t ticks = kWarmupTicks + kTracedTicks;
  const SpanTimes tick = spanTimes(tracer, "serve.tick");
  const SpanTimes submit = spanTimes(tracer, "serve.submit");
  const SpanTimes batch = spanTimes(tracer, "protocol.batch");
  m["serve.tick_ms.p50"] = percentile(tick.durMs, 50);
  m["serve.tick_ms.p99"] = percentile(tick.durMs, 99);
  m["serve.self_ms"] = percentile(tick.selfMs, 50);
  m["serve.submit_ns"] =
      submit.totalMs * 1e6 / static_cast<double>(traced.submitsMeasured);
  m["serve.batches_per_tick"] = ratio(c.composed, ticks);
  m["serve.slots_per_batch"] = ratio(c.requests, c.batches);
  m["serve.combined_share"] =
      ratio(c.combinedReads + c.combinedWrites, c.submitted);
  m["serve.plan_deflections"] = perKreq(c.planDeflections, c.ok);
  m["serve.max_queue_depth"] = static_cast<double>(c.maxQueueDepth);
  m["serve.gen_lateness_ms.p99"] = percentile(traced.latenessMs, 99);

  const auto& e0 = traced.engineStart;
  const auto& e1 = traced.engineEnd;
  const auto& m0 = traced.machineStart;
  const auto& m1 = traced.machineEnd;
  const double batches = static_cast<double>(traced.measuredBatches);
  m["protocol.batch_ms.p50"] = percentile(batch.durMs, 50);
  m["protocol.batch_ms.p99"] = percentile(batch.durMs, 99);
  m["protocol.self_ms"] = percentile(batch.selfMs, 50);
  m["protocol.wire_build_ms"] =
      (e1.wireBuildSeconds - e0.wireBuildSeconds) * 1e3 / batches;
  m["protocol.scan_ms"] = (e1.scanSeconds - e0.scanSeconds) * 1e3 / batches;
  m["protocol.step_ms"] = (e1.stepSeconds - e0.stepSeconds) * 1e3 / batches;
  m["protocol.wire_per_req"] = ratio(c.wireRequests, c.requests);
  m["protocol.phi_max"] = static_cast<double>(traced.endModel.phiMax);
  m["protocol.phi_over_bound"] = traced.endModel.phiOverBound;
  m["protocol.escalations"] = perKreq(c.escalations, c.ok);
  m["protocol.plan_savings_per_req"] = ratio(c.planSavings, c.requests);
  m["protocol.repairs"] = perKreq(c.repairs, c.ok);
  m["protocol.dead_copies"] = perKreq(c.deadCopies, c.ok);
  m["protocol.staged_aborted"] = perKreq(c.stagedAborted, c.ok);

  m["mpc.cycles_per_batch"] = ratio(c.cycles, c.batches);
  m["mpc.grant_ratio"] = ratio(c.granted, c.issued);
  m["mpc.max_module_queue"] = static_cast<double>(c.maxModuleQueue);
  m["mpc.grants_dropped"] = perKreq(c.grantsDropped, c.ok);
  m["mpc.arb_ms"] = (m1.arbSeconds - m0.arbSeconds) * 1e3 / batches;
  m["mpc.access_ms"] = (m1.accessSeconds - m0.accessSeconds) * 1e3 / batches;
  m["mpc.host_ns_per_wire_req"] =
      (e1.stepSeconds - e0.stepSeconds) * 1e9 /
      static_cast<double>(m1.requestsIssued - m0.requestsIssued);

  const double scheme_ms = spanTotalMs(tracer, "scheme.copies_batch") +
                           spanTotalMs(tracer, "scheme.copies");
  const std::uint64_t misses = e1.cacheMisses - e0.cacheMisses;
  m["scheme.copies_batch_ms"] = scheme_ms / batches;
  m["scheme.ns_per_miss"] =
      misses == 0 ? 0.0 : scheme_ms * 1e6 / static_cast<double>(misses);
  m["scheme.cache_hit_rate"] = ratio(c.cacheHits, c.cacheHits + c.cacheMisses);
  m["scheme.miss_lanes_per_chunk"] = ratio(c.addrLanes, c.addrChunks);
  m["scheme.addr_ms"] = (e1.addrSeconds - e0.addrSeconds) * 1e3 / batches;

  m["net.route_ms"] = spanTotalMs(tracer, "net.route") / batches;
  m["net.cycles_per_kreq"] = perKreq(c.netCycles, c.ok);
  m["net.packets_per_kreq"] = perKreq(c.netPackets, c.ok);
  m["net.max_queue"] = static_cast<double>(c.netMaxQueue);
  m["net.stretch"] = ratio(c.netCycles, c.netIdealCycles);
  m["plan.max_planned_load"] = static_cast<double>(c.maxPlannedLoad);

  m["trace.overhead_share"] = median(traced.busyMs) / median(plain.busyMs) - 1.0;
  m["trace.coverage_share"] = tick.childMs / tick.totalMs;
}

}  // namespace

Report runZipfWorkload(const RunOptions& options) {
  Report report;
  const ZipfInputs in = makeInputs(options.seed);
  report.info["config"] = runConfigJson(options, 1);
  dsm::util::Timer clock;

  // Reserved up front: phases are referenced while later ones are added.
  std::vector<PhaseResult> phases;
  phases.reserve(kLadderRungs + 8);
  std::vector<std::string> open_loop;
  const auto run = [&](const PhaseSpec& spec) -> const PhaseResult& {
    phases.push_back(runPhase(in, spec));
    return phases.back();
  };

  if (options.trace) {
    const PhaseResult& plain =
        run({kTracedTicks, kNominalRate, false, nullptr});
    Tracer tracer;
    const PhaseResult& traced =
        run({kTracedTicks, kNominalRate, false, &tracer});
    if (!(plain.end == traced.end)) {
      report.fail("traced run's simulated counts differ from untraced");
    }
    open_loop.push_back(openLoopJson(plain, kNominalRate, 99, nullptr));
    open_loop.push_back(openLoopJson(traced, kNominalRate, 99, nullptr));
    addPerLayer(plain, traced, tracer, report);
    report.info["spans"] = std::to_string(tracer.spanCount());
    if (!options.artifactPrefix.empty()) {
      tracer.write(options.artifactPrefix + "-spans.tsv");
    }
  } else {
    // The unpaced model replay runs first: it also takes the process's
    // first-touch and warm-up costs, which would otherwise land on the
    // capacity phase.
    const PhaseResult& model = run({kCheckpointTicks, 0.0, true, nullptr});
    const PhaseResult& nominal =
        run({kNominalTicks, kNominalRate, false, nullptr});
    open_loop.push_back(openLoopJson(nominal, kNominalRate, 99, nullptr));
    const PhaseResult& capacity = run({kCapacityTicks, 0.0, false, nullptr});
    const double throughput =
        static_cast<double>(capacity.okMeasured) / capacity.wallS;

    // Ladder: start at the highest fixed rate below kLadderStart of the
    // measured capacity, climb until a rate fails, descend if the first one
    // does.
    const double capacity_ticks = throughput / kTickRequests;
    int rung = 0;
    while (rung + 1 < kLadderRungs &&
           ladderRate(rung + 1) <= kLadderStart * capacity_ticks) {
      ++rung;
    }
    double max_rate = 0.0;
    bool truncated = false;
    int direction = 0;  // +1 climbing, -1 descending
    while (rung >= 0 && rung < kLadderRungs) {
      const double rate = ladderRate(rung);
      const double estimate = 0.5 + static_cast<double>(kRungTicks) / rate;
      if (clock.seconds() + estimate > options.seconds && direction != 0) {
        truncated = true;
        break;
      }
      bool pass = false;
      const PhaseResult& r = run({kRungTicks, rate, false, nullptr});
      open_loop.push_back(openLoopJson(r, rate, kRungPercentile, &pass));
      if (pass) {
        max_rate = std::max(max_rate, rate * kTickRequests);
        if (direction < 0) break;
        direction = 1;
        ++rung;
      } else {
        if (direction > 0) break;
        direction = -1;
        --rung;
      }
    }
    report.info["ladder_truncated"] = truncated ? "true" : "false";

    std::vector<double> setup;
    for (const PhaseResult& p : phases) setup.push_back(p.setupS);
    const SimCounts& c = model.checkpoint;
    const double kreq = static_cast<double>(c.ok) / 1e3;
    auto& m = report.metrics;
    m["setup_s"] = median(setup);
    m["throughput_rps"] = throughput;
    m["max_rate_rps"] = max_rate;
    m["latency_p50_ms"] = weightedPercentile(nominal.latencyMs, 50);
    m["latency_p95_ms"] = weightedPercentile(nominal.latencyMs, 95);
    m["sim_cycles_per_kreq"] = static_cast<double>(c.cycles) / kreq;
    m["modeled_steps_per_kreq"] =
        static_cast<double>(model.checkpointModel.modeledSteps) / kreq;
    m["peak_rss_mb"] = peakRssMb();
    report.info["p99_supported"] =
        nominal.latenessMs.size() >= 1000 ? "true" : "false";
  }

  bool same = true;
  std::uint64_t mismatches = 0;
  for (const PhaseResult& p : phases) {
    same = same && p.checkpoint == phases.front().checkpoint;
    report.attempted += p.attempted;
    report.failed += p.failed + p.mismatches;
    mismatches += p.mismatches;
  }
  if (!same) report.fail("simulated counts differ between phases");
  if (mismatches != 0) report.fail("register-model mismatches");
  report.info["phases"] = std::to_string(phases.size());
  report.info["mismatches"] = std::to_string(mismatches);
  report.info["deterministic_repeat"] = same ? "true" : "false";
  report.info["latency_limit_ms"] = std::to_string(kLatencyLimitMs);
  std::string rates = "[";
  for (std::size_t i = 0; i < open_loop.size(); ++i) {
    rates += (i ? ", " : "") + open_loop[i];
  }
  report.info["open_loop"] = rates + "]";
  return report;
}

}  // namespace perfbench
