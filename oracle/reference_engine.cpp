#include "oracle/reference_engine.hpp"

#include <algorithm>

#include "dsm/util/assert.hpp"
#include "dsm/util/numeric.hpp"
#include "dsm/util/timer.hpp"

namespace dsm::protocol {

AccessResult ReferenceMajorityEngine::executePrepared(
    const std::vector<AccessRequest>& batch, const PreparedBatch& prep) {
  DSM_CHECK_MSG(!plannerEnabled(), "reference engines run planner-off only");
  AccessResult result;
  result.values.assign(batch.size(), 0);
  mpc::ThreadPool& pool = machine_.pool();

  const std::size_t r = scheme_.copiesPerVariable();  // cluster size
  const std::size_t clusters = (batch.size() + r - 1) / r;
  const int coord_cost = 1 + util::ceilLog2(r);
  const int addr_cost = util::ceilLog2(scheme_.numModules());

  fresh_.assign(batch.size(), Freshest{});

  // Phase k: cluster i serves batch request i*r + k. Processor (i, j) — the
  // global id i*r + j — owns copy j of that variable.
  for (std::size_t k = 0; k < r; ++k) {
    active_.clear();
    for (std::size_t i = 0; i < clusters; ++i) {
      const std::size_t req = i * r + k;
      if (req < batch.size()) active_.push_back(req);
    }
    if (active_.empty()) {
      result.phaseIterations.push_back(0);
      result.liveTrajectory.emplace_back();
      continue;
    }
    const std::size_t na = active_.size();
    resetPhaseState(na, r);
    for (std::size_t a = 0; a < na; ++a) {
      quorum_[a] = batch[active_[a]].op == mpc::Op::kRead
                       ? scheme_.readQuorum()
                       : scheme_.writeQuorum();
    }
    for (std::size_t a = 0; a < na; ++a) {
      premarkKnownDeadCopies(prep, a, active_[a], r);
      transitionAfterScan(a, active_[a], batch[active_[a]].op, r);
    }
    std::uint64_t iters = 0;
    std::vector<std::uint64_t> trajectory;
    util::Timer timer;
    while (true) {
      // From-scratch offset pass (serial, O(na) regardless of how few
      // requests remain live — the cost the persistent wire removes).
      timer.reset();
      offsets_.resize(na + 1);
      std::uint64_t live = 0;
      std::size_t total = 0;
      for (std::size_t a = 0; a < na; ++a) {
        offsets_[a] = total;
        if (state_[a] == kStateDone) continue;
        ++live;
        total += state_[a] == kStateAcquire
                     ? r - done_[a] - dead_count_[a]
                     : pending_count_[a];
      }
      offsets_[na] = total;
      if (live == 0) break;
      trajectory.push_back(live);
      wire_.resize(total);
      wire_copy_.resize(total);
      pool.parallelFor(na, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t a = lo; a < hi; ++a) {
          std::size_t out = offsets_[a];
          if (out == offsets_[a + 1]) continue;  // done
          const std::size_t req = active_[a];
          const std::size_t cluster = req / r;
          if (state_[a] == kStateFinalize) {
            const auto fop = static_cast<mpc::Op>(final_op_[a]);
            const bool repair = fop == mpc::Op::kRepair;
            const std::uint64_t val =
                repair ? fresh_[req].value : batch[req].value;
            const std::uint64_t ts =
                repair ? fresh_[req].timestamp : prep.stamps[req];
            for (std::size_t j = 0; j < r; ++j) {
              if (!pending_[a * r + j]) continue;
              const auto& pa = prep.copies[req * r + j];
              wire_[out] = mpc::Request{
                  static_cast<std::uint32_t>(cluster * r + j), pa.module,
                  pa.slot, fop, val, ts};
              wire_copy_[out] = j;
              ++out;
            }
          } else {
            const std::uint8_t* acc = &accessed_[a * r];
            const std::uint8_t* dd = &dead_[a * r];
            for (std::size_t j = 0; j < r; ++j) {
              if (acc[j] || dd[j]) continue;
              const auto& pa = prep.copies[req * r + j];
              wire_[out] = mpc::Request{
                  static_cast<std::uint32_t>(cluster * r + j), pa.module,
                  pa.slot, batch[req].op, batch[req].value, prep.stamps[req]};
              wire_copy_[out] = j;
              ++out;
            }
          }
        }
      });
      metrics_.wireBuildSeconds += timer.seconds();

      timer.reset();
      cycle_.step(wire_, replies_);
      metrics_.stepSeconds += timer.seconds();
      metrics_.wireRequests += wire_.size();
      ++iters;

      timer.reset();
      pool.parallelFor(na, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t a = lo; a < hi; ++a) {
          if (offsets_[a] == offsets_[a + 1]) continue;
          const std::size_t req = active_[a];
          const mpc::Op op = batch[req].op;
          const bool finalizing = state_[a] == kStateFinalize;
          for (std::size_t w = offsets_[a]; w < offsets_[a + 1]; ++w) {
            const std::size_t j = wire_copy_[w];
            if (replies_[w].moduleFailed) {
              if (!dead_[a * r + j]) {
                dead_[a * r + j] = 1;
                ++dead_count_[a];
              }
              if (finalizing && pending_[a * r + j]) {
                pending_[a * r + j] = 0;
                --pending_count_[a];
                ++lost_[a];
              }
              continue;
            }
            if (!replies_[w].granted) continue;
            if (finalizing) {
              pending_[a * r + j] = 0;
              --pending_count_[a];
              ++acked_[a];
              continue;
            }
            accessed_[a * r + j] = 1;
            ++done_[a];
            if (op == mpc::Op::kRead) {
              ts_seen_[a * r + j] = replies_[w].timestamp;
              fresh_[req].offer(replies_[w].timestamp, replies_[w].value);
            }
          }
          transitionAfterScan(a, req, op, r);
        }
      });
      metrics_.scanSeconds += timer.seconds();
    }
    finishPhase(prep, na, active_.data(), r, result);
    result.phaseIterations.push_back(iters);
    result.liveTrajectory.push_back(std::move(trajectory));
    result.totalIterations += iters;
    if (iters > 0) {
      result.modeledSteps += iters * static_cast<std::uint64_t>(coord_cost) +
                             static_cast<std::uint64_t>(addr_cost);
    }
  }

  for (std::size_t i = 0; i < batch.size(); ++i) {
    result.values[i] = batch[i].op == mpc::Op::kRead ? fresh_[i].value
                                                     : batch[i].value;
  }
  for (const std::size_t i : result.unsatisfiable) result.values[i] = 0;
  return result;
}

AccessResult ReferenceSingleOwnerEngine::executePrepared(
    const std::vector<AccessRequest>& batch, const PreparedBatch& prep) {
  DSM_CHECK_MSG(!plannerEnabled(), "reference engines run planner-off only");
  AccessResult result;
  result.values.assign(batch.size(), 0);
  mpc::ThreadPool& pool = machine_.pool();

  const std::size_t r = scheme_.copiesPerVariable();
  const std::size_t nb = batch.size();
  const int addr_cost = util::ceilLog2(scheme_.numModules());

  resetPhaseState(nb, r);
  fresh_.assign(nb, Freshest{});
  for (std::size_t i = 0; i < nb; ++i) {
    quorum_[i] = batch[i].op == mpc::Op::kRead ? scheme_.readQuorum()
                                               : scheme_.writeQuorum();
  }
  for (std::size_t i = 0; i < nb; ++i) {
    premarkKnownDeadCopies(prep, i, i, r);
    transitionAfterScan(i, i, batch[i].op, r);
  }

  std::uint64_t iters = 0;
  std::vector<std::uint64_t> trajectory;
  util::Timer timer;
  while (true) {
    timer.reset();
    offsets_.resize(nb + 1);
    std::uint64_t live = 0;
    std::size_t total = 0;
    for (std::size_t i = 0; i < nb; ++i) {
      offsets_[i] = total;
      if (state_[i] == kStateDone) continue;
      ++live;
      ++total;
    }
    offsets_[nb] = total;
    if (live == 0) break;
    trajectory.push_back(live);
    wire_.resize(total);
    wire_copy_.resize(total);
    pool.parallelFor(nb, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        const std::size_t out = offsets_[i];
        if (out == offsets_[i + 1]) continue;  // done
        const std::size_t start = (i + iters) % r;
        std::size_t pick = r;
        if (state_[i] == kStateFinalize) {
          for (std::size_t off = 0; off < r; ++off) {
            const std::size_t j = (start + off) % r;
            if (pending_[i * r + j]) {
              pick = j;
              break;
            }
          }
          const auto fop = static_cast<mpc::Op>(final_op_[i]);
          const bool repair = fop == mpc::Op::kRepair;
          const auto& pa = prep.copies[i * r + pick];
          wire_[out] = mpc::Request{
              static_cast<std::uint32_t>(i), pa.module, pa.slot, fop,
              repair ? fresh_[i].value : batch[i].value,
              repair ? fresh_[i].timestamp : prep.stamps[i]};
          wire_copy_[out] = pick;
        } else {
          for (std::size_t off = 0; off < r; ++off) {
            const std::size_t j = (start + off) % r;
            if (!accessed_[i * r + j] && !dead_[i * r + j]) {
              pick = j;
              break;
            }
          }
          const auto& pa = prep.copies[i * r + pick];
          wire_[out] = mpc::Request{static_cast<std::uint32_t>(i), pa.module,
                                    pa.slot, batch[i].op, batch[i].value,
                                    prep.stamps[i]};
          wire_copy_[out] = pick;
        }
      }
    });
    metrics_.wireBuildSeconds += timer.seconds();

    timer.reset();
    cycle_.step(wire_, replies_);
    metrics_.stepSeconds += timer.seconds();
    metrics_.wireRequests += wire_.size();
    ++iters;

    timer.reset();
    pool.parallelFor(nb, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        const std::size_t w = offsets_[i];
        if (w == offsets_[i + 1]) continue;
        const std::size_t j = wire_copy_[w];
        const bool finalizing = state_[i] == kStateFinalize;
        if (replies_[w].moduleFailed) {
          if (!dead_[i * r + j]) {
            dead_[i * r + j] = 1;
            ++dead_count_[i];
          }
          if (finalizing && pending_[i * r + j]) {
            pending_[i * r + j] = 0;
            --pending_count_[i];
            ++lost_[i];
          }
        } else if (replies_[w].granted) {
          if (finalizing) {
            pending_[i * r + j] = 0;
            --pending_count_[i];
            ++acked_[i];
          } else {
            accessed_[i * r + j] = 1;
            ++done_[i];
            if (batch[i].op == mpc::Op::kRead) {
              ts_seen_[i * r + j] = replies_[w].timestamp;
              fresh_[i].offer(replies_[w].timestamp, replies_[w].value);
            }
          }
        }
        transitionAfterScan(i, i, batch[i].op, r);
      }
    });
    metrics_.scanSeconds += timer.seconds();
  }
  finishPhase(prep, nb, nullptr, r, result);

  result.phaseIterations.push_back(iters);
  result.liveTrajectory.push_back(std::move(trajectory));
  result.totalIterations = iters;
  result.modeledSteps =
      iters > 0 ? iters + static_cast<std::uint64_t>(addr_cost) : 0;
  for (std::size_t i = 0; i < nb; ++i) {
    result.values[i] = batch[i].op == mpc::Op::kRead ? fresh_[i].value
                                                     : batch[i].value;
  }
  for (const std::size_t i : result.unsatisfiable) result.values[i] = 0;
  return result;
}

}  // namespace dsm::protocol
