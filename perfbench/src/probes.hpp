// Bench-side probes: an in-memory span recorder and three decorators that
// time calls into the dsm layers from outside, through their public
// functions and virtual seams:
//
//   * ProbeEngine       — MajorityEngine subclass overriding the virtual
//     executePrepared: one "protocol.batch" span per executed batch, plus
//     the per-batch paper cost model (modeledSteps, Φ per phase) that the
//     engine returns but the serving layer consumes internally.
//   * TracedScheme      — MemoryScheme decorator: "scheme.copies_batch" /
//     "scheme.copies" spans around the Section-4 addressing calls the copy
//     cache makes on a miss.
//   * TracedInterconnect — Interconnect decorator owning a
//     ButterflyInterconnect: one "net.route" span per routed machine cycle.
//
// The decorators change no result: they forward every call unchanged, and
// the harness checks that a traced run's simulated counts equal the
// untraced run's bit for bit.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dsm/mpc/interconnect.hpp"
#include "dsm/protocol/engines.hpp"
#include "dsm/scheme/memory_scheme.hpp"

namespace perfbench {

/// One recorded interval. Times are nanoseconds since the tracer's epoch.
/// `parent` indexes the innermost span that was open on the same thread
/// when this one opened (-1 for none); `id` is the batch or tick id the
/// harness or the probe attached.
struct Span {
  const char* name = "";
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int32_t parent = -1;
  std::uint64_t id = 0;
};

/// Spans recorded by one thread, in open order.
struct ThreadSpans {
  std::uint32_t thread = 0;
  std::vector<Span> spans;
  std::vector<std::int32_t> open;  ///< stack of open span indices
};

/// In-memory span recorder. Each thread appends to its own buffer (taken
/// once under a mutex), so recording is lock-free after a thread's first
/// span. Read the buffers only after every recording thread has finished
/// its work and synchronized with the reader (the engine's pool join and
/// prefetch hand-off provide that at the end of every executeStream).
class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::int32_t open(const char* name, std::uint64_t id);
  void close(std::int32_t index);

  /// The buffers, one per thread that recorded (main thread first).
  const std::vector<std::unique_ptr<ThreadSpans>>& threads() const {
    return threads_;
  }
  std::size_t spanCount() const;
  /// Drops every recorded span (call only while no span is open).
  void clear();
  /// Writes one tab-separated line per span:
  /// name, thread, index, parent, id, start_ns, end_ns.
  bool write(const std::string& path) const;

 private:
  ThreadSpans& local();
  std::int64_t now() const;

  using Clock = std::chrono::steady_clock;
  Clock::time_point epoch_;
  std::uint64_t generation_;
  std::mutex mu_;  // guards threads_ growth
  std::vector<std::unique_ptr<ThreadSpans>> threads_;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t id)
      : tracer_(tracer), index_(tracer ? tracer->open(name, id) : -1) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t index_;
};

/// Id stamped on spans whose caller has no batch of its own (the scheme
/// and network probes): the tick or stream window the harness is running.
inline std::atomic<std::uint64_t> g_current_tick{0};

/// Paper cost model of the batches one engine executed.
struct BatchStats {
  std::uint64_t batches = 0;
  std::uint64_t modeledSteps = 0;
  std::uint64_t iterations = 0;
  std::uint64_t phiMax = 0;
  /// Worst Φ_p / analysis::predictedPhi(R_0, q) over all phases (eq. 2).
  double phiOverBound = 0.0;
};

/// Folds one executed batch into `stats` (q = the scheme's field order).
void recordBatch(const dsm::protocol::AccessResult& result, std::uint64_t q,
                 BatchStats& stats);

/// MajorityEngine that records the paper cost model of every batch and,
/// with a tracer, a "protocol.batch" span around the wire rounds.
class ProbeEngine final : public dsm::protocol::MajorityEngine {
 public:
  ProbeEngine(const dsm::scheme::MemoryScheme& scheme,
              dsm::mpc::Machine& machine, std::uint64_t q, Tracer* tracer)
      : MajorityEngine(scheme, machine), q_(q), tracer_(tracer) {}

  const BatchStats& stats() const noexcept { return stats_; }

 protected:
  dsm::protocol::AccessResult executePrepared(
      const std::vector<dsm::protocol::AccessRequest>& batch,
      const PreparedBatch& prep) override;

 private:
  std::uint64_t q_;
  Tracer* tracer_;
  BatchStats stats_;
};

/// Forwards every MemoryScheme call to `inner`, timing the addressing calls.
class TracedScheme final : public dsm::scheme::MemoryScheme {
 public:
  TracedScheme(const dsm::scheme::MemoryScheme& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  std::string name() const override { return inner_.name(); }
  std::uint64_t numVariables() const override { return inner_.numVariables(); }
  std::uint64_t numModules() const override { return inner_.numModules(); }
  unsigned copiesPerVariable() const override {
    return inner_.copiesPerVariable();
  }
  unsigned readQuorum() const override { return inner_.readQuorum(); }
  unsigned writeQuorum() const override { return inner_.writeQuorum(); }
  std::uint64_t slotsPerModule() const override {
    return inner_.slotsPerModule();
  }
  void copies(std::uint64_t v,
              std::vector<dsm::scheme::PhysicalAddress>& out) const override;
  void copiesBatch(const std::uint64_t* vars, std::size_t count,
                   dsm::scheme::PhysicalAddress* out) const override;

 private:
  const dsm::scheme::MemoryScheme& inner_;
  Tracer& tracer_;
};

/// Forwards every Interconnect call to an owned ButterflyInterconnect
/// (final, so it is wrapped rather than subclassed), timing routeWinners.
class TracedInterconnect final : public dsm::mpc::Interconnect {
 public:
  TracedInterconnect(std::unique_ptr<dsm::mpc::ButterflyInterconnect> inner,
                     Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::string name() const override { return inner_->name(); }
  bool zeroCost() const noexcept override { return inner_->zeroCost(); }
  std::uint64_t moduleLimit() const noexcept override {
    return inner_->moduleLimit();
  }
  std::uint64_t idealCycles() const noexcept override {
    return inner_->idealCycles();
  }
  dsm::net::RoutingStats routeWinners(
      const std::vector<dsm::mpc::GrantLink>& winners) override;
  void onPlan(const dsm::mpc::WirePlan& plan) override { inner_->onPlan(plan); }

 private:
  std::unique_ptr<dsm::mpc::ButterflyInterconnect> inner_;
  Tracer& tracer_;
};

}  // namespace perfbench
