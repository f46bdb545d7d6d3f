// The deque butterfly router that net::Butterfly::route replaced, kept as
// its differential oracle. Test/bench-only: it lives in dsm_oracle, which
// production code never links.
//
// Same model and determinism contract as net::Butterfly (see
// dsm/net/butterfly.hpp), implemented the straightforward way: every call
// builds one std::deque per node, and each cycle forwards a node's head
// packet plus the first later packet that wants the other output link (a
// lookahead scan and a mid-deque erase), then applies all staged arrivals
// sorted by packet id. Every RoutingStats field must match net::Butterfly's
// bit for bit on every packet list.
#pragma once

#include <cstdint>
#include <vector>

#include "dsm/net/butterfly.hpp"

namespace dsm::net {

class ReferenceButterfly {
 public:
  /// 2^log_n rows; log_n >= 1.
  explicit ReferenceButterfly(int log_n);

  int dimension() const noexcept { return d_; }
  std::uint64_t rows() const noexcept { return 1ULL << d_; }

  /// Routes the batch from scratch (the network starts empty) and returns
  /// the cost. Deterministic: FIFO queues, tie-break by packet index.
  RoutingStats route(const std::vector<Packet>& packets) const;

 private:
  int d_;
};

}  // namespace dsm::net
