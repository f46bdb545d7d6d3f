#include "dsm/plan/plan.hpp"

#include <algorithm>

#include "dsm/util/assert.hpp"

namespace dsm::plan {

void BatchPlan::build(const scheme::PhysicalAddress* copies, std::size_t r,
                      ModuleLoadModel& model) {
  const std::size_t b = count.size();
  DSM_CHECK_MSG(r <= 0xFFFF, "copy count too large for plan ranks: " << r);
  order.resize(b * r);
  wireSavings = 0;
  for (std::size_t i = 0; i < b; ++i) {
    const scheme::PhysicalAddress* line = &copies[i * r];
    std::uint16_t* ord = &order[i * r];
    const std::size_t targets = count[i];
    // Greedy balanced assignment: pick the target copies one at a time,
    // each time the copy whose module carries the least planned load so
    // far (stable tie-break by module index — the plan is a pure function
    // of the batch). O(r^2) per request with r tiny.
    for (std::size_t k = 0; k < r; ++k) {
      std::size_t best = r;
      std::uint32_t best_load = 0;
      std::uint64_t best_mod = 0;
      for (std::size_t j = 0; j < r; ++j) {
        bool picked = false;
        for (std::size_t p = 0; p < k; ++p) {
          if (ord[p] == j) {
            picked = true;
            break;
          }
        }
        if (picked) continue;
        const std::uint64_t m = line[j].module;
        const std::uint32_t l = model.load(m);
        if (best == r || l < best_load || (l == best_load && m < best_mod)) {
          best = j;
          best_load = l;
          best_mod = m;
        }
      }
      ord[k] = static_cast<std::uint16_t>(best);
      if (k < targets) {
        // Targets bump the histogram; spares beyond the target count are
        // only ordered by it (coldest-first escalation order), never
        // counted — they fire only on escalation.
        model.bump(line[best].module);
      }
    }
    wireSavings += r - targets;
  }
  maxPlannedLoad = model.maxLoad();
  model.reset();
  planned = true;
}

void BatchPlan::identity(std::size_t b, std::size_t r) {
  DSM_CHECK_MSG(r <= 0xFFFF, "copy count too large for plan ranks: " << r);
  order.resize(b * r);
  for (std::size_t i = 0; i < b; ++i) {
    for (std::size_t k = 0; k < r; ++k) {
      order[i * r + k] = static_cast<std::uint16_t>(k);
    }
  }
  count.assign(b, static_cast<std::uint16_t>(r));
  wireSavings = 0;
  maxPlannedLoad = 0;
  planned = false;
}

void BatchPlan::initTargets(const std::uint16_t* order,
                            std::uint16_t planned_count,
                            const std::uint8_t* dead, unsigned quorum,
                            std::size_t r, unsigned& target_count,
                            unsigned& live_targets) {
  unsigned tc = planned_count;
  unsigned live = 0;
  for (unsigned k = 0; k < tc; ++k) {
    if (!dead[order[k]]) ++live;
  }
  // Premarked-dead targets escalate before the first wire round, exactly
  // like a mid-phase discovery would.
  while (live < quorum && tc < r) {
    const std::uint16_t j = order[tc++];
    if (!dead[j]) ++live;
  }
  target_count = tc;
  live_targets = live;
}

bool BatchPlan::escalateUntilQuorum(const std::uint16_t* order,
                                    const std::uint8_t* dead, unsigned quorum,
                                    std::size_t r, unsigned& target_count,
                                    unsigned& live_targets) {
  bool opened = false;
  while (live_targets < quorum && target_count < r) {
    const std::uint16_t j = order[target_count++];
    if (!dead[j]) ++live_targets;
    opened = true;
  }
  return opened;
}

void BatchPlan::openOneSpare(const std::uint16_t* order,
                             const std::uint8_t* dead, unsigned& target_count,
                             unsigned& live_targets) {
  const std::uint16_t j = order[target_count++];
  if (!dead[j]) ++live_targets;
}

namespace {

/// The shared per-request greedy pick (build()'s inner loop, restricted to
/// the target ranks): fills picks[0..targets) and returns the max
/// post-placement load among the chosen modules. The model is read-only —
/// this request's own earlier picks are overlaid, so copies that share a
/// module (possible under the baseline random schemes) price exactly as
/// build()'s bump-as-you-go does.
std::uint32_t greedyPick(const ModuleLoadModel& model,
                         const scheme::PhysicalAddress* copies, std::size_t r,
                         std::size_t targets, std::uint16_t* picks) {
  std::uint32_t score = 0;
  for (std::size_t k = 0; k < targets; ++k) {
    std::size_t best = r;
    std::uint32_t best_load = 0;
    std::uint64_t best_mod = 0;
    for (std::size_t j = 0; j < r; ++j) {
      bool picked = false;
      for (std::size_t p = 0; p < k; ++p) {
        if (picks[p] == j) {
          picked = true;
          break;
        }
      }
      if (picked) continue;
      const std::uint64_t m = copies[j].module;
      std::uint32_t l = model.load(m);
      for (std::size_t p = 0; p < k; ++p) {
        if (copies[picks[p]].module == m) ++l;
      }
      if (best == r || l < best_load || (l == best_load && m < best_mod)) {
        best = j;
        best_load = l;
        best_mod = m;
      }
    }
    picks[k] = static_cast<std::uint16_t>(best);
    score = std::max(score, best_load + 1);
  }
  return score;
}

}  // namespace

std::uint32_t probePlacement(const ModuleLoadModel& model,
                             const scheme::PhysicalAddress* copies,
                             std::size_t r, std::size_t targets,
                             std::vector<std::uint16_t>& pick_scratch) {
  pick_scratch.resize(targets);
  return greedyPick(model, copies, r, targets, pick_scratch.data());
}

void commitPlacement(ModuleLoadModel& model,
                     const scheme::PhysicalAddress* copies, std::size_t r,
                     std::size_t targets,
                     std::vector<std::uint16_t>& pick_scratch) {
  pick_scratch.resize(targets);
  greedyPick(model, copies, r, targets, pick_scratch.data());
  for (std::size_t k = 0; k < targets; ++k) {
    model.bump(copies[pick_scratch[k]].module);
  }
}

}  // namespace dsm::plan
