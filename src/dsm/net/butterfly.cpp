#include "dsm/net/butterfly.hpp"

#include <algorithm>
#include <utility>

#include "dsm/util/assert.hpp"

namespace dsm::net {

Butterfly::Butterfly(int log_n) : d_(log_n) {
  DSM_CHECK_MSG(log_n >= 1 && log_n <= 24, "butterfly dimension out of range");
}

void Butterfly::enqueue(std::uint32_t node, std::uint32_t id,
                        const std::vector<Packet>& packets,
                        RoutingStats& stats) {
  Node& n = nodes_[node];
  const int column = static_cast<int>(node >> d_);
  LinkFifo& fifo = n.link[(packets[id].destination >> (d_ - 1 - column)) & 1u];
  next_[id] = kNil;
  if (fifo.head == kNil) {
    fifo.head = id;
  } else {
    next_[fifo.tail] = id;
  }
  fifo.tail = id;
  if (n.size++ == 0) next_active_.push_back(node);
  stats.maxQueue = std::max<std::uint64_t>(stats.maxQueue, n.size);
}

RoutingStats Butterfly::route(const std::vector<Packet>& packets) {
  RoutingStats stats;
  stats.packets = packets.size();
  if (packets.empty()) return stats;

  const std::uint64_t rows = this->rows();
  for (const Packet& p : packets) {
    DSM_CHECK_MSG(p.source < rows && p.destination < rows,
                  "packet endpoint out of range");
  }
  DSM_CHECK_MSG(packets.size() < kNil, "too many packets to route");

  // Scratch is empty between calls: every FIFO drains and every arrival
  // slot is released before route returns.
  if (nodes_.empty()) nodes_.resize(static_cast<std::size_t>(d_) * rows);
  if (next_.size() < packets.size()) next_.resize(packets.size());
  next_active_.clear();

  // Inject all packets at column 0 in index order (FIFO ties resolve by id).
  for (std::uint32_t i = 0; i < packets.size(); ++i) {
    enqueue(packets[i].source, i, packets, stats);
  }

  const std::uint32_t row_mask = static_cast<std::uint32_t>(rows - 1);
  // Every cycle with a packet still queued forwards at least one, so the
  // n * d hops the batch needs bound the cycle count.
  const std::uint64_t max_cycles =
      static_cast<std::uint64_t>(packets.size()) * static_cast<unsigned>(d_);
  std::uint64_t delivered = 0;
  std::uint64_t cycle = 0;
  while (delivered < packets.size()) {
    ++cycle;
    if (cycle > max_cycles) {
      nodes_.clear();  // drop the half-routed state; the next call rebuilds
      DSM_CHECK_MSG(false, "routing failed to converge");
    }
    std::swap(active_, next_active_);
    next_active_.clear();
    arrivals_.clear();
    // Every node forwards the front of each link FIFO. Arrivals are staged
    // so a packet moves at most one column per cycle.
    for (const std::uint32_t nid : active_) {
      Node& n = nodes_[nid];
      const int c = static_cast<int>(nid >> d_);
      const std::uint32_t bit = 1u << (d_ - 1 - c);
      const std::uint32_t row = nid & row_mask;
      for (std::uint32_t l = 0; l < 2; ++l) {
        const std::uint32_t id = n.link[l].head;
        if (id == kNil) continue;
        n.link[l].head = next_[id];
        --n.size;
        ++stats.totalHops;
        if (c + 1 == d_) {
          // Arrived at the output column; rows match destinations by
          // construction of bit-fixing.
          ++delivered;
          continue;
        }
        const std::uint32_t child =
            nid + static_cast<std::uint32_t>(rows) - row +
            (l != 0 ? (row | bit) : (row & ~bit));
        Node& ch = nodes_[child];
        if (ch.arrival == kNil) {
          ch.arrival = static_cast<std::uint32_t>(arrivals_.size());
          arrivals_.push_back(Arrival{child, id, kNil});
        } else {
          arrivals_[ch.arrival].second = id;
        }
      }
      if (n.size != 0) next_active_.push_back(nid);
    }
    // Apply the staged arrivals, each node's (at most two) in packet-index
    // order. Nodes are independent, so the order across nodes is free.
    for (const Arrival& a : arrivals_) {
      nodes_[a.node].arrival = kNil;
      const std::uint32_t lo = std::min(a.first, a.second);
      const std::uint32_t hi = std::max(a.first, a.second);
      enqueue(a.node, lo, packets, stats);
      if (hi != kNil) enqueue(a.node, hi, packets, stats);
    }
  }
  stats.cycles = cycle;
  stats.stretch = static_cast<double>(cycle) / static_cast<double>(d_);
  return stats;
}

}  // namespace dsm::net
