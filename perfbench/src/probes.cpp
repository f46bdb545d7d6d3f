#include "probes.hpp"

#include <algorithm>
#include <fstream>

#include "dsm/analysis/recurrence.hpp"

namespace perfbench {

namespace {

std::atomic<std::uint64_t> g_tracer_generation{0};

// The calling thread's buffer in the tracer of generation `generation`.
struct LocalBuffer {
  std::uint64_t generation = 0;
  ThreadSpans* spans = nullptr;
};
thread_local LocalBuffer t_local;

}  // namespace

Tracer::Tracer()
    : epoch_(Clock::now()), generation_(++g_tracer_generation) {}

std::int64_t Tracer::now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

ThreadSpans& Tracer::local() {
  if (t_local.generation != generation_) {
    auto buffer = std::make_unique<ThreadSpans>();
    buffer->spans.reserve(1 << 17);
    {
      std::lock_guard<std::mutex> lock(mu_);
      buffer->thread = static_cast<std::uint32_t>(threads_.size());
      threads_.push_back(std::move(buffer));
      t_local = {generation_, threads_.back().get()};
    }
  }
  return *t_local.spans;
}

std::int32_t Tracer::open(const char* name, std::uint64_t id) {
  ThreadSpans& local_spans = local();
  Span span;
  span.name = name;
  span.parent = local_spans.open.empty() ? -1 : local_spans.open.back();
  span.id = id;
  const auto index = static_cast<std::int32_t>(local_spans.spans.size());
  local_spans.open.push_back(index);
  span.start = now();
  local_spans.spans.push_back(span);
  return index;
}

void Tracer::close(std::int32_t index) {
  const std::int64_t end = now();
  ThreadSpans& local_spans = local();
  local_spans.spans[static_cast<std::size_t>(index)].end = end;
  local_spans.open.pop_back();
}

std::size_t Tracer::spanCount() const {
  std::size_t total = 0;
  for (const auto& t : threads_) total += t->spans.size();
  return total;
}

void Tracer::clear() {
  for (auto& t : threads_) t->spans.clear();
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "name\tthread\tindex\tparent\tid\tstart_ns\tend_ns\n";
  for (const auto& t : threads_) {
    for (std::size_t i = 0; i < t->spans.size(); ++i) {
      const Span& s = t->spans[i];
      out << s.name << '\t' << t->thread << '\t' << i << '\t' << s.parent
          << '\t' << s.id << '\t' << s.start << '\t' << s.end << '\n';
    }
  }
  return static_cast<bool>(out);
}

void recordBatch(const dsm::protocol::AccessResult& result, std::uint64_t q,
                 BatchStats& stats) {
  ++stats.batches;
  stats.modeledSteps += result.modeledSteps;
  stats.iterations += result.totalIterations;
  for (std::size_t p = 0; p < result.phaseIterations.size(); ++p) {
    const std::uint64_t phi = result.phaseIterations[p];
    stats.phiMax = std::max(stats.phiMax, phi);
    if (p >= result.liveTrajectory.size() || result.liveTrajectory[p].empty()) {
      continue;
    }
    const std::uint64_t bound =
        dsm::analysis::predictedPhi(result.liveTrajectory[p].front(), q);
    if (bound > 0) {
      stats.phiOverBound =
          std::max(stats.phiOverBound, static_cast<double>(phi) /
                                           static_cast<double>(bound));
    }
  }
}

dsm::protocol::AccessResult ProbeEngine::executePrepared(
    const std::vector<dsm::protocol::AccessRequest>& batch,
    const PreparedBatch& prep) {
  dsm::protocol::AccessResult result;
  {
    ScopedSpan span(tracer_, "protocol.batch", stats_.batches);
    result = MajorityEngine::executePrepared(batch, prep);
  }
  recordBatch(result, q_, stats_);
  return result;
}

void TracedScheme::copies(std::uint64_t v,
                          std::vector<dsm::scheme::PhysicalAddress>& out) const {
  ScopedSpan span(&tracer_, "scheme.copies", g_current_tick.load());
  inner_.copies(v, out);
}

void TracedScheme::copiesBatch(const std::uint64_t* vars, std::size_t count,
                               dsm::scheme::PhysicalAddress* out) const {
  ScopedSpan span(&tracer_, "scheme.copies_batch", g_current_tick.load());
  inner_.copiesBatch(vars, count, out);
}

dsm::net::RoutingStats TracedInterconnect::routeWinners(
    const std::vector<dsm::mpc::GrantLink>& winners) {
  ScopedSpan span(&tracer_, "net.route", g_current_tick.load());
  return inner_->routeWinners(winners);
}

}  // namespace perfbench
