#include "dsm/scheme/copy_cache.hpp"

#include <algorithm>

#include "dsm/util/assert.hpp"

namespace dsm::scheme {

namespace {
std::size_t roundUpPow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}
}  // namespace

CopyCache::CopyCache(const MemoryScheme& scheme, std::size_t capacity)
    : scheme_(scheme), stride_(scheme.copiesPerVariable()) {
  if (capacity > 0) {
    const std::size_t slots = roundUpPow2(capacity);
    slot_var_.assign(slots, 0);
    slot_valid_.assign(slots, 0);
    addrs_.resize(slots * stride_);
    mask_ = slots - 1;
  }
}

void CopyCache::copies(std::uint64_t v, std::vector<PhysicalAddress>& out) {
  if (slot_valid_.empty()) {
    ++misses_;
    scheme_.copies(v, out);
    return;
  }
  const std::size_t s = static_cast<std::size_t>(v & mask_);
  PhysicalAddress* line = &addrs_[s * stride_];
  if (slot_valid_[s] && slot_var_[s] == v) {
    ++hits_;
    out.assign(line, line + stride_);
    return;
  }
  ++misses_;
  scheme_.copies(v, out);
  DSM_CHECK_MSG(out.size() == stride_,
                "scheme returned " << out.size() << " copies, expected "
                                   << stride_);
  std::copy(out.begin(), out.end(), line);
  slot_var_[s] = v;
  slot_valid_[s] = 1;
}

void CopyCache::copiesBatch(const std::uint64_t* vars, std::size_t count,
                            PhysicalAddress* out, mpc::ThreadPool* pool) {
  if (slot_valid_.empty()) {
    // Caching disabled: everything misses, everything resolves batched.
    misses_ += count;
    miss_scratch_.resize(count);
    miss_vars_.assign(vars, vars + count);
    for (std::size_t i = 0; i < count; ++i) miss_scratch_[i] = i;
  } else {
    // Serial classification in batch order. A miss claims its slot's tag
    // immediately (the addresses follow after resolution), so later
    // lookups colliding with it classify exactly as the serial loop's
    // overwrite would have. With distinct variables a reclaimed slot can
    // only turn a would-be hit into a miss — never the reverse — so no
    // lookup ever needs an address line this batch hasn't computed yet.
    // Missed variables are gathered contiguously so the resolution below
    // hands the scheme dense SoA input.
    miss_scratch_.clear();
    miss_vars_.clear();
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t v = vars[i];
      const std::size_t s = static_cast<std::size_t>(v & mask_);
      if (slot_valid_[s] && slot_var_[s] == v) {
        ++hits_;
        const PhysicalAddress* line = &addrs_[s * stride_];
        std::copy(line, line + stride_, out + i * stride_);
        continue;
      }
      ++misses_;
      slot_var_[s] = v;
      slot_valid_[s] = 1;
      miss_scratch_.push_back(i);
      miss_vars_.push_back(v);
    }
  }
  const std::size_t nm = miss_scratch_.size();
  if (nm == 0) return;
  // Miss resolution: one batched scheme call per pool chunk into the
  // contiguous scratch — pure scheme computation on disjoint ranges (the
  // parallel-safe part; schemes are immutable and thread-safe). No cache
  // state is touched here.
  miss_addrs_.resize(nm * stride_);
  const auto resolve = [&](std::size_t lo, std::size_t hi) {
    if (lo >= hi) return;
    scheme_.copiesBatch(miss_vars_.data() + lo, hi - lo,
                        miss_addrs_.data() + lo * stride_);
  };
  if (pool != nullptr) {
    pool->parallelFor(nm, resolve);
    // Chunk accounting mirrors the pool's partition: fixed for the pool's
    // lifetime, but its width follows the calibrated fork grain, so a
    // multi-thread pool's chunk count can differ from host to host and
    // from process to process (a 1-thread pool always counts one chunk per
    // batch).
    const std::size_t w = pool->partitionWidth(nm);
    const std::size_t chunk = (nm + w - 1) / w;
    batch_miss_chunks_ += (nm + chunk - 1) / chunk;
  } else {
    resolve(0, nm);
    batch_miss_chunks_ += 1;
  }
  batch_miss_lanes_ += nm;
  // Serial write-back in batch order: scatter the resolved lines to the
  // caller's flat output, and install them in the cache where the tag
  // still names this miss (when several misses collided on one slot, the
  // tag names the LAST claimant — serial overwrite order).
  for (std::size_t j = 0; j < nm; ++j) {
    const std::size_t i = miss_scratch_[j];
    const PhysicalAddress* line = &miss_addrs_[j * stride_];
    std::copy(line, line + stride_, out + i * stride_);
    if (slot_valid_.empty()) continue;
    const std::uint64_t v = vars[i];
    const std::size_t s = static_cast<std::size_t>(v & mask_);
    if (slot_var_[s] == v) {
      std::copy(line, line + stride_, &addrs_[s * stride_]);
    }
  }
}

void CopyCache::clear() {
  std::fill(slot_valid_.begin(), slot_valid_.end(), 0);
  hits_ = 0;
  misses_ = 0;
  batch_miss_lanes_ = 0;
  batch_miss_chunks_ = 0;
}

}  // namespace dsm::scheme
