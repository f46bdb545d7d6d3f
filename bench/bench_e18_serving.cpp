// E18 — online serving: offered-load sweep against the admission front end.
//
// Synthetic clients drive the AdmissionScheduler at a controlled offered
// load (a multiple of the configured service capacity maxBatch *
// maxBatchesPerPump per tick) with a fixed per-request deadline. Hot-key
// combining is off: every request then takes its own protocol slot, so that
// product is the distinct-slot capacity the sweep measures (E19 measures
// combining). Each row reports p50/p99 latency (wall ms and virtual ticks),
// goodput and the loss split (shed vs rejected). The table should show a
// saturation knee just above offered = 1.0 and *graceful* overload past it:
// goodput holds near capacity (work is shed by deadline and rejected by
// backpressure — the queue never grows without bound and fresh work is
// never stalled behind doomed work).
//
// Gates (exit code 1 on violation):
//   * no loss (shed + queue-full) below 0.9x offered load;
//   * a saturation knee (first row with >1% loss) inside the sweep, above
//     1.0x offered load;
//   * goodput at the heaviest overload >= 0.7x the best row (non-collapse);
//   * served p99 tick latency <= deadline on every row (shed, not stalled);
//   * one overloaded row replayed at 1 and 3 machine threads produces
//     bit-identical batch composition and responses (serving determinism).
//
// --smoke shrinks the sweep for `ctest -L perf`; full runs also write
// BENCH_e18.json.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "dsm/mpc/machine.hpp"
#include "dsm/protocol/engines.hpp"
#include "dsm/scheme/pp_scheme.hpp"
#include "dsm/serve/serve.hpp"
#include "dsm/util/rng.hpp"
#include "dsm/util/stats.hpp"
#include "dsm/util/table.hpp"

namespace dsm {
namespace {

struct RowStats {
  double offered_factor = 0.0;
  std::uint64_t submitted = 0;
  std::uint64_t served = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t unsatisfiable = 0;
  double goodput_per_tick = 0.0;  ///< served / offered ticks
  double loss_fraction = 0.0;     ///< (shed + rejected) / submitted
  double p50_ms = 0.0, p99_ms = 0.0;
  double p50_ticks = 0.0, p99_ticks = 0.0;
  std::uint64_t max_queue_depth = 0;
  std::uint64_t coalesce_deferrals = 0;
  // Determinism digest (recorded batches + responses), only when recording.
  std::vector<std::vector<protocol::AccessRequest>> batches;
  std::vector<serve::Response> responses;  ///< all sessions, session-major
};

struct BenchParams {
  std::size_t max_batch = 256;
  std::size_t batches_per_pump = 2;
  std::uint64_t max_wait_ticks = 2;
  std::uint64_t ttl_ticks = 6;
  std::uint64_t offered_ticks = 48;
  std::size_t sessions = 16;
  std::uint64_t var_pool = 2048;
  std::uint64_t seed = 18;
};

RowStats runRow(const scheme::PpScheme& scheme, double offered_factor,
                const BenchParams& params, unsigned threads, bool record) {
  mpc::Machine machine(scheme.numModules(), scheme.slotsPerModule(), threads);
  protocol::MajorityEngine engine(scheme, machine);

  serve::ServeConfig cfg;
  cfg.maxBatch = params.max_batch;
  cfg.maxBatchesPerPump = params.batches_per_pump;
  cfg.maxWaitTicks = params.max_wait_ticks;
  cfg.queueCapacity = 16 * params.max_batch;
  cfg.combineDuplicates = false;  // capacity = distinct slots (file comment)
  cfg.recordBatches = record;
  serve::AdmissionScheduler sched(engine, cfg);

  std::vector<serve::ClientSession*> sessions;
  for (std::size_t i = 0; i < params.sessions; ++i) {
    sessions.push_back(&sched.openSession());
  }

  const double capacity =
      static_cast<double>(params.max_batch * params.batches_per_pump);
  const std::uint64_t pool =
      std::min<std::uint64_t>(params.var_pool, scheme.numVariables());
  util::Xoshiro256 rng(params.seed);

  // Offered phase: `per_tick` submissions spread round-robin over the
  // sessions, then one tick (which pumps when a trigger is due).
  double carry = 0.0;
  std::size_t rr = 0;
  for (std::uint64_t t = 0; t < params.offered_ticks; ++t) {
    carry += offered_factor * capacity;
    auto per_tick = static_cast<std::uint64_t>(carry);
    carry -= static_cast<double>(per_tick);
    for (std::uint64_t i = 0; i < per_tick; ++i) {
      serve::ClientSession& s = *sessions[rr++ % sessions.size()];
      const std::uint64_t v = rng.below(pool);
      if (rng.below(2) == 0) {
        s.submitRead(v, params.ttl_ticks);
      } else {
        s.submitWrite(v, rng(), params.ttl_ticks);
      }
    }
    sched.tick();
  }
  // Drain: no new offers, keep ticking until the queue empties (every
  // request either serves or sheds well within ttl + maxWait ticks).
  for (int t = 0; t < 64 && sched.queueDepth() > 0; ++t) sched.tick();
  sched.flush();

  RowStats row;
  row.offered_factor = offered_factor;
  std::vector<double> wall_ms;
  std::vector<double> ticks;
  for (serve::ClientSession* s : sessions) {
    for (const serve::Response& r : s->drainResponses()) {
      if (r.status == serve::Status::kOk) {
        wall_ms.push_back(r.latencySeconds * 1e3);
        ticks.push_back(static_cast<double>(r.completeTick - r.submitTick));
      }
      if (record) row.responses.push_back(r);
    }
  }
  const serve::ServeMetrics& m = sched.metrics();
  row.submitted = m.submitted;
  row.served = m.served;
  row.shed = m.shed;
  row.rejected = m.rejectedQueueFull;
  row.unsatisfiable = m.unsatisfiable;
  row.goodput_per_tick =
      static_cast<double>(m.served) / static_cast<double>(params.offered_ticks);
  row.loss_fraction = m.submitted == 0
                          ? 0.0
                          : static_cast<double>(m.shed + m.rejectedQueueFull) /
                                static_cast<double>(m.submitted);
  if (!wall_ms.empty()) {
    row.p50_ms = util::quantile(wall_ms, 0.50);
    row.p99_ms = util::quantile(wall_ms, 0.99);
    row.p50_ticks = util::quantile(ticks, 0.50);
    row.p99_ticks = util::quantile(ticks, 0.99);
  }
  row.max_queue_depth = m.maxQueueDepth;
  row.coalesce_deferrals = m.coalesceDeferrals;
  if (record) row.batches = sched.recordedBatches();
  return row;
}

bool sameRuns(const RowStats& a, const RowStats& b) {
  if (a.batches != b.batches) return false;
  if (a.responses.size() != b.responses.size()) return false;
  for (std::size_t i = 0; i < a.responses.size(); ++i) {
    const serve::Response& x = a.responses[i];
    const serve::Response& y = b.responses[i];
    if (x.requestId != y.requestId || x.variable != y.variable ||
        x.op != y.op || x.status != y.status || x.value != y.value ||
        x.submitTick != y.submitTick || x.completeTick != y.completeTick) {
      return false;  // latencySeconds deliberately excluded (wall clock)
    }
  }
  return true;
}

}  // namespace
}  // namespace dsm

int main(int argc, char** argv) {
  using namespace dsm;
  const util::Cli cli(argc, argv);
  const bool smoke = cli.getBool("smoke", false);

  BenchParams params;
  params.max_batch = cli.getUint("max-batch", smoke ? 128 : 256);
  params.batches_per_pump = cli.getUint("batches-per-pump", 2);
  params.max_wait_ticks = cli.getUint("max-wait", 2);
  params.ttl_ticks = cli.getUint("ttl", 6);
  params.offered_ticks = cli.getUint("ticks", smoke ? 12 : 48);
  params.sessions = cli.getUint("sessions", 16);
  params.var_pool = cli.getUint("var-pool", smoke ? 1024 : 2048);
  params.seed = cli.getUint("seed", 18);
  const unsigned threads = static_cast<unsigned>(
      cli.getUint("threads", mpc::ThreadPool::defaultThreads()));

  std::vector<double> factors;
  if (cli.has("factors")) {
    for (const std::uint64_t pct : cli.getUintList("factors", {})) {
      factors.push_back(static_cast<double>(pct) / 100.0);
    }
  } else {
    factors = smoke ? std::vector<double>{0.5, 1.0, 2.5}
                    : std::vector<double>{0.25, 0.5, 0.75, 0.9,
                                          1.0,  1.25, 1.75, 2.5};
  }

  const scheme::PpScheme scheme(1, 5);
  const double capacity =
      static_cast<double>(params.max_batch * params.batches_per_pump);

  bench::banner("E18", "online serving: offered-load sweep");
  std::cout << "  scheme=" << scheme.name()
            << " modules=" << scheme.numModules()
            << " variables=" << scheme.numVariables() << " threads=" << threads
            << "\n  capacity/tick=" << static_cast<std::uint64_t>(capacity)
            << " (maxBatch=" << params.max_batch << " x "
            << params.batches_per_pump << " batches/pump)"
            << " ttl=" << params.ttl_ticks
            << " ticks=" << params.offered_ticks
            << " sessions=" << params.sessions
            << " var-pool=" << params.var_pool << "\n";

  util::TextTable table({"offered", "submitted", "served", "shed", "rejected",
                         "loss%", "goodput/tick", "p50ms", "p99ms",
                         "p50tk", "p99tk", "maxQ"});
  std::vector<RowStats> rows;
  for (const double f : factors) {
    rows.push_back(runRow(scheme, f, params, threads, /*record=*/false));
    const RowStats& r = rows.back();
    table.addRow({util::TextTable::num(r.offered_factor, 2),
                  util::TextTable::num(r.submitted),
                  util::TextTable::num(r.served), util::TextTable::num(r.shed),
                  util::TextTable::num(r.rejected),
                  util::TextTable::num(r.loss_fraction * 100.0, 2),
                  util::TextTable::num(r.goodput_per_tick, 1),
                  util::TextTable::num(r.p50_ms, 3),
                  util::TextTable::num(r.p99_ms, 3),
                  util::TextTable::num(r.p50_ticks, 1),
                  util::TextTable::num(r.p99_ticks, 1),
                  util::TextTable::num(r.max_queue_depth)});
  }
  table.print(std::cout);

  // The knee: first offered factor whose loss exceeds 1%.
  double knee = 0.0;
  for (const RowStats& r : rows) {
    if (r.loss_fraction > 0.01) {
      knee = r.offered_factor;
      break;
    }
  }
  if (knee > 0.0) {
    bench::footnote("saturation knee at offered=" +
                    util::TextTable::num(knee, 2) +
                    " (first row with >1% loss)");
  } else {
    bench::footnote("no saturation knee inside the sweep");
  }

  // --- Gates -------------------------------------------------------------
  bool ok = true;
  double best_goodput = 0.0;
  for (const RowStats& r : rows) {
    best_goodput = std::max(best_goodput, r.goodput_per_tick);
  }
  for (const RowStats& r : rows) {
    if (r.offered_factor <= 0.9 && r.loss_fraction > 0.0) {
      std::cout << "  GATE FAIL: loss below the knee (offered="
                << r.offered_factor << " loss=" << r.loss_fraction << ")\n";
      ok = false;
    }
    if (r.served > 0 && r.p99_ticks >
            static_cast<double>(params.ttl_ticks) + 0.5) {
      std::cout << "  GATE FAIL: served p99 tick latency " << r.p99_ticks
                << " exceeds ttl=" << params.ttl_ticks
                << " (stalled instead of shed) at offered=" << r.offered_factor
                << "\n";
      ok = false;
    }
  }
  if (knee <= 1.0) {
    std::cout << "  GATE FAIL: no saturation knee above offered=1.0 inside "
                 "the sweep (knee="
              << knee << ")\n";
    ok = false;
  }
  const RowStats& heaviest = rows.back();
  if (heaviest.goodput_per_tick < 0.7 * best_goodput) {
    std::cout << "  GATE FAIL: goodput collapse under overload ("
              << heaviest.goodput_per_tick << " < 0.7 x " << best_goodput
              << ")\n";
    ok = false;
  }

  // Determinism gate: replay the heaviest row at 1 vs 3 machine threads
  // (serial vs pipelined stream path) and require bit-identical batches and
  // responses.
  {
    BenchParams det = params;
    det.offered_ticks = smoke ? 8 : 16;
    const RowStats serial = runRow(scheme, factors.back(), det, 1, true);
    const RowStats pipelined = runRow(scheme, factors.back(), det, 3, true);
    if (!sameRuns(serial, pipelined)) {
      std::cout << "  GATE FAIL: serving is not deterministic across machine "
                   "thread counts\n";
      ok = false;
    } else {
      bench::footnote(
          "determinism: overloaded replay bit-identical at 1 vs 3 threads (" +
          util::TextTable::num(static_cast<std::uint64_t>(
              serial.batches.size())) +
          " batches)");
    }
  }
  std::cout << "  gates: " << (ok ? "PASS" : "FAIL") << "\n";

  if (!smoke) {
    bench::Json root = bench::Json::obj();
    root.set("experiment", "E18");
    root.set("title", "online serving: offered-load sweep");
    bench::Json cfg = bench::Json::obj();
    cfg.set("scheme", scheme.name());
    cfg.set("modules", scheme.numModules());
    cfg.set("variables", scheme.numVariables());
    cfg.set("threads", static_cast<std::uint64_t>(threads));
    cfg.set("maxBatch", static_cast<std::uint64_t>(params.max_batch));
    cfg.set("batchesPerPump",
            static_cast<std::uint64_t>(params.batches_per_pump));
    cfg.set("maxWaitTicks", params.max_wait_ticks);
    cfg.set("ttlTicks", params.ttl_ticks);
    cfg.set("offeredTicks", params.offered_ticks);
    cfg.set("sessions", static_cast<std::uint64_t>(params.sessions));
    cfg.set("varPool", params.var_pool);
    cfg.set("queueCapacity", static_cast<std::uint64_t>(16 * params.max_batch));
    cfg.set("combineDuplicates", false);
    cfg.set("capacityPerTick", capacity);
    cfg.set("seed", params.seed);
    root.set("config", std::move(cfg));
    bench::Json arr = bench::Json::arr();
    for (const RowStats& r : rows) {
      bench::Json row = bench::Json::obj();
      row.set("offered", r.offered_factor);
      row.set("submitted", r.submitted);
      row.set("served", r.served);
      row.set("shed", r.shed);
      row.set("rejectedQueueFull", r.rejected);
      row.set("unsatisfiable", r.unsatisfiable);
      row.set("lossFraction", r.loss_fraction);
      row.set("goodputPerTick", r.goodput_per_tick);
      row.set("p50Ms", r.p50_ms);
      row.set("p99Ms", r.p99_ms);
      row.set("p50Ticks", r.p50_ticks);
      row.set("p99Ticks", r.p99_ticks);
      row.set("maxQueueDepth", r.max_queue_depth);
      row.set("coalesceDeferrals", r.coalesce_deferrals);
      arr.push(std::move(row));
    }
    root.set("rows", std::move(arr));
    bench::Json gates = bench::Json::obj();
    gates.set("kneeOffered", knee);
    gates.set("pass", ok);
    root.set("gates", std::move(gates));
    bench::writeJson("BENCH_e18.json", root);
  }
  return ok ? 0 : 1;
}
