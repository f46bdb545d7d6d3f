// E15 — recovery under transient faults: sweep the intensity of a scripted
// FaultPlan (transient module outages + grant-drop noise) over a hot batch
// stream and report availability (fraction of requests satisfied),
// throughput, and the recovery counters (read-repairs, staged-then-aborted
// writes, commits lost in the commit window). Every row is additionally run
// at 1 thread and at hardware concurrency: the results must be bit-identical
// — faults, drops and repairs are all pure functions of the machine's cycle
// counter, never of scheduling. Exit status is nonzero on any mismatch.
#include <cstdint>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "dsm/protocol/engines.hpp"
#include "dsm/scheme/pp_scheme.hpp"
#include "dsm/util/rng.hpp"
#include "dsm/util/timer.hpp"
#include "dsm/workload/generators.hpp"

namespace {

struct RunOutcome {
  std::vector<dsm::protocol::AccessResult> results;
  dsm::protocol::EngineMetrics metrics;
  double seconds = 0.0;
};

bool sameResults(const RunOutcome& a, const RunOutcome& b) {
  return a.results == b.results && a.metrics.faults == b.metrics.faults;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dsm;
  const util::Cli cli(argc, argv);
  const int n = static_cast<int>(cli.getUint("n", 5));
  const std::size_t batches = cli.getUint("batches", 12);
  const std::size_t batch_size = cli.getUint("batch", 512);
  const std::uint64_t seed = cli.getUint("seed", 17);
  std::uint64_t horizon = cli.getUint("horizon", 0);  // 0 = auto-measure
  const unsigned hw = std::max(2u, std::thread::hardware_concurrency());

  bench::banner("E15", "recovery under transient faults (q=2, n=" +
                           std::to_string(n) + ", " + std::to_string(batches) +
                           " batches x " + std::to_string(batch_size) +
                           " requests)");

  const scheme::PpScheme s(1, n);

  // Hot stream: alternating write/read batches over a shared variable pool,
  // so reads verify values across fault episodes and repairs have stale
  // copies to heal.
  std::vector<std::vector<protocol::AccessRequest>> stream;
  {
    util::Xoshiro256 rng(seed);
    const auto pool =
        workload::randomDistinct(s.numVariables(), batch_size, rng);
    for (std::size_t b = 0; b < batches; ++b) {
      stream.push_back(b % 2 == 0
                           ? workload::makeWrites(pool, b * batch_size + 1)
                           : workload::makeReads(pool));
    }
  }
  const std::size_t total_requests = batches * batch_size;

  // Auto-size the fault horizon to the cycles the healthy stream actually
  // consumes, so scheduled outages overlap real traffic instead of landing
  // after the run is over.
  if (horizon == 0) {
    mpc::Machine probe(s.numModules(), s.slotsPerModule(), 1);
    protocol::MajorityEngine probe_eng(s, probe);
    probe_eng.executeStream(stream);
    horizon = std::max<std::uint64_t>(probe.metrics().cycles, 1);
  }
  std::cout << "  fault horizon: " << horizon << " cycles\n";

  // Fault levels: `outages` transient failures scheduled uniformly over the
  // cycle horizon plus grant-drop noise. Level 0 is the healthy baseline.
  struct Level {
    std::uint64_t outages;
    double drop;
  };
  const std::vector<Level> levels{
      {0, 0.0}, {8, 0.0}, {32, 0.0}, {128, 0.0}, {32, 0.02}};

  const auto makePlan = [&](const Level& lv) {
    mpc::FaultPlan plan;
    plan.seed = seed ^ 0xE15;
    plan.grantDropProbability = lv.drop;
    util::Xoshiro256 rng(seed + lv.outages * 31 + 1);
    for (std::uint64_t i = 0; i < lv.outages; ++i) {
      plan.transientAt(rng.below(horizon), rng.below(s.numModules()),
                       1 + rng.below(10));
    }
    return plan;
  };

  const auto run = [&](const Level& lv, unsigned threads) {
    mpc::Machine machine(s.numModules(), s.slotsPerModule(), threads);
    machine.setFaultPlan(makePlan(lv));
    protocol::MajorityEngine eng(s, machine);
    RunOutcome out;
    util::Timer t;
    out.results = eng.executeStream(stream);
    out.seconds = t.seconds();
    out.metrics = eng.metrics();
    return out;
  };

  util::TextTable table({"outages", "drop %", "avail %", "req/s", "repairs",
                         "aborted", "commits lost", "dead copies",
                         "identical"});
  bench::Json json = bench::Json::obj();
  json.set("experiment", "E15").set("title", "recovery under transient faults");
  bench::Json config = bench::Json::obj();
  config.set("n", n)
      .set("batches", static_cast<std::uint64_t>(batches))
      .set("batch_size", static_cast<std::uint64_t>(batch_size))
      .set("seed", seed)
      .set("horizon", horizon)
      .set("hw_threads", static_cast<std::uint64_t>(hw));
  json.set("config", std::move(config));
  bench::Json rows = bench::Json::arr();
  bool all_identical = true;
  for (const Level& lv : levels) {
    const RunOutcome serial = run(lv, 1);
    const RunOutcome parallel = run(lv, hw);
    const bool identical = sameResults(serial, parallel);
    all_identical = all_identical && identical;

    std::uint64_t unsat = 0;
    for (const auto& res : serial.results) unsat += res.unsatisfiable.size();
    const double avail =
        100.0 * static_cast<double>(total_requests - unsat) /
        static_cast<double>(total_requests);
    const auto& fm = serial.metrics.faults;
    table.addRow({util::TextTable::num(lv.outages),
                  util::TextTable::num(lv.drop * 100, 0),
                  util::TextTable::num(avail, 2),
                  util::TextTable::num(
                      static_cast<double>(total_requests) / serial.seconds, 0),
                  util::TextTable::num(fm.repairsPerformed),
                  util::TextTable::num(fm.stagedAborted),
                  util::TextTable::num(fm.commitsLost),
                  util::TextTable::num(fm.deadCopies),
                  identical ? "yes" : "NO"});
    if (lv.outages == 32 && lv.drop == 0.0) {
      bench::printFaultMetrics("level outages=32", fm);
    }
    bench::Json row = bench::Json::obj();
    row.set("outages", lv.outages)
        .set("drop_probability", lv.drop)
        .set("availability_pct", avail)
        .set("req_per_sec",
             static_cast<double>(total_requests) / serial.seconds)
        .set("repairs", fm.repairsPerformed)
        .set("staged_aborted", fm.stagedAborted)
        .set("commits_lost", fm.commitsLost)
        .set("dead_copies", fm.deadCopies)
        .set("identical", identical);
    rows.push(std::move(row));
  }
  table.print(std::cout);
  json.set("levels", std::move(rows));
  json.set("all_identical", all_identical);
  bench::writeJson(cli.getString("json", "BENCH_e15.json"), json);

  std::cout << "  results bit-identical at 1 vs " << hw
            << " threads across all fault levels: "
            << (all_identical ? "yes" : "NO") << "\n";
  bench::footnote(
      "availability degrades gracefully: a variable is lost only while >= 2 "
      "of its 3 copy modules are down simultaneously; read-repair re-inflates "
      "redundancy after each outage, and aborted writes never leak values "
      "(two-phase commit). repairs > 0 even at level 0: a contended write "
      "commits a quorum, not necessarily all copies — reads heal the rest.");
  return all_identical ? 0 : 1;
}
