#include "dsm/net/butterfly.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "dsm/util/assert.hpp"
#include "dsm/util/rng.hpp"
#include "oracle/reference_butterfly.hpp"

namespace dsm::net {
namespace {

TEST(Butterfly, SinglePacketTakesExactlyDCycles) {
  Butterfly bf(4);
  for (std::uint32_t s : {0u, 5u, 15u}) {
    for (std::uint32_t t : {0u, 9u, 15u}) {
      const auto st = bf.route({Packet{s, t}});
      EXPECT_EQ(st.cycles, 4u) << s << "->" << t;
      EXPECT_EQ(st.totalHops, 4u);
      EXPECT_DOUBLE_EQ(st.stretch, 1.0);
    }
  }
}

TEST(Butterfly, EmptyBatch) {
  // An idle network costs nothing — in particular stretch must stay 0, not
  // NaN (it feeds MachineMetrics::networkStretch on cycles with no winners).
  Butterfly bf(3);
  const auto st = bf.route({});
  EXPECT_EQ(st.cycles, 0u);
  EXPECT_EQ(st.packets, 0u);
  EXPECT_EQ(st.totalHops, 0u);
  EXPECT_EQ(st.maxQueue, 0u);
  EXPECT_DOUBLE_EQ(st.stretch, 0.0);
}

TEST(Butterfly, DimensionOneSmallestNetwork) {
  // d=1 is the degenerate two-row butterfly (what ButterflyInterconnect
  // builds for a one-module machine). One hop each way; two packets on the
  // same link serialize.
  Butterfly bf(1);
  EXPECT_EQ(bf.rows(), 2u);
  for (std::uint32_t s : {0u, 1u}) {
    for (std::uint32_t t : {0u, 1u}) {
      const auto st = bf.route({Packet{s, t}});
      EXPECT_EQ(st.cycles, 1u) << s << "->" << t;
      EXPECT_DOUBLE_EQ(st.stretch, 1.0);
    }
  }
  const auto st = bf.route({Packet{0, 1}, Packet{0, 1}});
  EXPECT_EQ(st.cycles, 2u);
  EXPECT_EQ(st.maxQueue, 2u);
  EXPECT_DOUBLE_EQ(st.stretch, 2.0);
}

TEST(Butterfly, AllPacketsOneDestinationSaturates) {
  // Every row sends to row 0 — the worst hot spot the network can see. The
  // destination is fed by two links, so 2^d packets need at least 2^(d-1)
  // cycles no matter how the tree buffers them.
  Butterfly bf(5);
  std::vector<Packet> pkts;
  for (std::uint32_t i = 0; i < bf.rows(); ++i) pkts.push_back({i, 0});
  const auto st = bf.route(pkts);
  EXPECT_EQ(st.packets, bf.rows());
  EXPECT_GE(st.cycles, bf.rows() / 2);
  EXPECT_GT(st.maxQueue, 1u);
  EXPECT_EQ(st.totalHops, bf.rows() * 5);
}

TEST(Butterfly, FifoTieBreakByPacketIndexIsPinned) {
  // Regression pin for the documented determinism contract: queues are FIFO
  // and simultaneous arrivals are ordered by packet index, so RoutingStats
  // is a pure function of the ordered packet list — and the order matters.
  // The interconnect seam relies on exactly this: Machine::routeCycleWinners
  // injects winners in wire order, which makes networkCycles independent of
  // the machine's thread count. If a refactor changed the tie-break (e.g.
  // to arrival order under a different scan, or last-writer-wins), the
  // pinned numbers below would shift.
  Butterfly bf(2);
  const std::vector<Packet> in_order = {{0, 2}, {0, 3}, {2, 2}, {2, 3}};
  const std::vector<Packet> swapped = {{0, 2}, {0, 3}, {2, 3}, {2, 2}};
  const auto a = bf.route(in_order);
  EXPECT_EQ(a.cycles, 4u);
  EXPECT_EQ(a.maxQueue, 3u);
  const auto b = bf.route(swapped);
  EXPECT_EQ(b.cycles, 3u);
  EXPECT_EQ(b.maxQueue, 2u);
  // Same multiset, different order, different cost — and each ordering is
  // perfectly repeatable.
  const auto a2 = bf.route(in_order);
  EXPECT_EQ(a2.cycles, a.cycles);
  EXPECT_EQ(a2.maxQueue, a.maxQueue);
}

TEST(Butterfly, IdentityPermutationIsContentionFree) {
  Butterfly bf(6);
  std::vector<Packet> pkts;
  for (std::uint32_t i = 0; i < bf.rows(); ++i) pkts.push_back({i, i});
  const auto st = bf.route(pkts);
  EXPECT_EQ(st.cycles, 6u);  // straight-through, no queueing
  EXPECT_EQ(st.maxQueue, 1u);
}

TEST(Butterfly, BitReversalCausesCongestion) {
  // Bit reversal is the classic bad permutation for oblivious bit-fixing:
  // stretch must exceed 1 noticeably.
  Butterfly bf(8);
  std::vector<Packet> pkts;
  for (std::uint32_t i = 0; i < bf.rows(); ++i) {
    std::uint32_t rev = 0;
    for (int b = 0; b < 8; ++b) rev |= ((i >> b) & 1u) << (7 - b);
    pkts.push_back({i, rev});
  }
  const auto st = bf.route(pkts);
  // With two output links per node the classic sqrt(N) middle congestion is
  // halved; stretch must still clearly exceed the contention-free 1.0.
  EXPECT_GT(st.stretch, 1.5);
}

TEST(Butterfly, RandomPermutationModestStretch) {
  Butterfly bf(8);
  util::Xoshiro256 rng(1);
  std::vector<std::uint32_t> perm(bf.rows());
  std::iota(perm.begin(), perm.end(), 0);
  for (std::size_t i = perm.size() - 1; i > 0; --i) {
    std::swap(perm[i], perm[rng.below(i + 1)]);
  }
  std::vector<Packet> pkts;
  for (std::uint32_t i = 0; i < bf.rows(); ++i) pkts.push_back({i, perm[i]});
  const auto st = bf.route(pkts);
  // Random permutations route in O(d) w.h.p. on a butterfly of this size.
  EXPECT_LT(st.stretch, 5.0);
  EXPECT_EQ(st.totalHops, bf.rows() * 8);
}

TEST(Butterfly, HotSpotSerialises) {
  // Everyone sends to row 0: the last hop is a single link, so delivery
  // takes at least #packets cycles — tree saturation.
  Butterfly bf(6);
  std::vector<Packet> pkts;
  for (std::uint32_t i = 0; i < 32; ++i) pkts.push_back({i, 0});
  const auto st = bf.route(pkts);
  // The destination is fed by two links, so 32 packets need >= 16 cycles
  // plus pipeline fill — tree saturation.
  EXPECT_GE(st.cycles, 16u);
  EXPECT_GT(st.stretch, 2.5);
}

TEST(Butterfly, DeterministicAcrossRuns) {
  Butterfly bf(7);
  util::Xoshiro256 rng(3);
  std::vector<Packet> pkts;
  for (int i = 0; i < 200; ++i) {
    pkts.push_back({static_cast<std::uint32_t>(rng.below(bf.rows())),
                    static_cast<std::uint32_t>(rng.below(bf.rows()))});
  }
  const auto a = bf.route(pkts);
  const auto b = bf.route(pkts);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.maxQueue, b.maxQueue);
}

TEST(Butterfly, RejectsBadInput) {
  EXPECT_THROW(Butterfly(0), util::CheckError);
  Butterfly bf(3);
  EXPECT_THROW(bf.route({Packet{8, 0}}), util::CheckError);
  EXPECT_THROW(bf.route({Packet{0, 8}}), util::CheckError);
}

// ---- Differential coverage against the deque reference router ----------

void expectSameStats(const RoutingStats& got, const RoutingStats& want,
                     const std::string& ctx) {
  EXPECT_EQ(got.cycles, want.cycles) << ctx;
  EXPECT_EQ(got.packets, want.packets) << ctx;
  EXPECT_EQ(got.totalHops, want.totalHops) << ctx;
  EXPECT_EQ(got.maxQueue, want.maxQueue) << ctx;
  EXPECT_EQ(got.stretch, want.stretch) << ctx;  // bit-identical, not near
}

std::uint32_t bitReverse(std::uint32_t x, int d) {
  std::uint32_t rev = 0;
  for (int b = 0; b < d; ++b) rev |= ((x >> b) & 1u) << (d - 1 - b);
  return rev;
}

enum class Shape { kUniform, kHotSpot, kBitReversal, kFoldedSource };

const char* shapeName(Shape shape) {
  switch (shape) {
    case Shape::kUniform: return "uniform";
    case Shape::kHotSpot: return "hot-spot";
    case Shape::kBitReversal: return "bit-reversal";
    case Shape::kFoldedSource: return "folded-source";
  }
  return "?";
}

// `count` packets on a 2^d-row butterfly. Sources fold like the
// interconnect's wire ids (packet i enters at row i mod 2^d) except for the
// folded-source shape, which piles most packets onto one or two input rows.
std::vector<Packet> makePackets(Shape shape, int d, std::size_t count,
                                util::Xoshiro256& rng) {
  const std::uint64_t rows = 1ULL << d;
  const auto hot = static_cast<std::uint32_t>(rng.below(rows));
  std::vector<Packet> pkts(count);
  for (std::size_t i = 0; i < count; ++i) {
    auto src = static_cast<std::uint32_t>(i % rows);
    auto dst = static_cast<std::uint32_t>(rng.below(rows));
    switch (shape) {
      case Shape::kUniform:
        src = static_cast<std::uint32_t>(rng.below(rows));
        break;
      case Shape::kHotSpot:
        dst = hot;
        break;
      case Shape::kBitReversal:
        dst = bitReverse(src, d);
        break;
      case Shape::kFoldedSource:
        src = rng.below(4) == 0 ? static_cast<std::uint32_t>(rng.below(rows))
                                : (hot ^ static_cast<std::uint32_t>(i & 1));
        break;
    }
    pkts[i] = Packet{src, dst};
  }
  return pkts;
}

TEST(Butterfly, MatchesReferenceRouterOnSeededSets) {
  // Every RoutingStats field must equal the deque router's on every packet
  // list: d = 1..10, 0 to 4*rows packets, four traffic shapes, and each
  // multiset in two orders. One instance per dimension routes every case,
  // so scratch reuse across sizes and shapes is exercised throughout.
  util::Xoshiro256 rng(17);
  for (int d = 1; d <= 10; ++d) {
    Butterfly bf(d);
    const ReferenceButterfly ref(d);
    const std::size_t rows = bf.rows();
    for (const Shape shape : {Shape::kUniform, Shape::kHotSpot,
                              Shape::kBitReversal, Shape::kFoldedSource}) {
      for (const std::size_t count :
           {std::size_t{0}, std::size_t{1}, std::size_t{2}, rows / 2 + 1,
            rows, 2 * rows + 3, 4 * rows}) {
        auto pkts = makePackets(shape, d, count, rng);
        for (int order = 0; order < 2; ++order) {
          const std::string ctx = std::string(shapeName(shape)) +
                                  " d=" + std::to_string(d) +
                                  " packets=" + std::to_string(count) +
                                  " order=" + std::to_string(order);
          expectSameStats(bf.route(pkts), ref.route(pkts), ctx);
          // Same multiset, another order.
          for (std::size_t i = pkts.size(); i > 1; --i) {
            std::swap(pkts[i - 1], pkts[rng.below(i)]);
          }
        }
      }
    }
  }
}

TEST(Butterfly, ScratchReuseMatchesReference) {
  // One instance across a large set, a rejected set and a small set: the
  // bad endpoint must throw before any scratch is touched, and each
  // accepted set must still route exactly as a fresh reference does.
  Butterfly bf(6);
  const ReferenceButterfly ref(6);
  util::Xoshiro256 rng(29);
  const auto large = makePackets(Shape::kHotSpot, 6, 4 * bf.rows(), rng);
  expectSameStats(bf.route(large), ref.route(large), "large");

  auto bad = makePackets(Shape::kUniform, 6, bf.rows(), rng);
  bad.back().destination = static_cast<std::uint32_t>(bf.rows());
  EXPECT_THROW(bf.route(bad), util::CheckError);

  const auto small = makePackets(Shape::kFoldedSource, 6, 5, rng);
  expectSameStats(bf.route(small), ref.route(small), "small");
  expectSameStats(bf.route(large), ref.route(large), "large again");
}

}  // namespace
}  // namespace dsm::net
