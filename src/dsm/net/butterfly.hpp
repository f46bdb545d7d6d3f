// Butterfly-network routing — the layer the paper deliberately separates
// from the memory organization problem ("the request routing problem — to be
// dealt with when the bipartite graph is simulated by a bounded-degree
// network"). This module provides that substrate as an extension so the
// complete-graph MPC cycle counts can be translated into bounded-degree
// network time, the setting of [AHMP87, HB88, Her89, Ran91].
//
// Model: a d-dimensional butterfly with 2^d rows and d+1 columns of nodes.
// A packet entering at row s, column 0 and destined for row t crosses one
// column per hop; at column i it corrects bit (d-1-i) of its current row
// towards t (bit-fixing / destination routing — deterministic and oblivious).
// Store-and-forward with unbounded FIFO queues: per cycle every node
// forwards at most one packet along each of its two output links. Delivery
// time = max over packets of arrival cycle; congestion shows up as queueing.
#pragma once

#include <cstdint>
#include <vector>

namespace dsm::net {

/// One routing job: deliver a packet from input row `source` to output row
/// `destination`.
struct Packet {
  std::uint32_t source = 0;
  std::uint32_t destination = 0;
};

/// Outcome of routing one batch.
struct RoutingStats {
  std::uint64_t cycles = 0;       ///< cycles until the last packet arrived
  std::uint64_t packets = 0;      ///< packets routed
  std::uint64_t totalHops = 0;    ///< sum of hops actually taken (= d each)
  std::uint64_t maxQueue = 0;     ///< worst queue length observed
  double stretch = 0.0;           ///< cycles / d (1.0 = contention-free)
};

/// Synchronous store-and-forward butterfly router.
///
/// Each node keeps one FIFO per output link, threaded through a per-packet
/// successor array; a cycle forwards the front of each non-empty link FIFO.
/// That is the same rule as "forward the head packet, plus the first later
/// packet that wants the other link" on one FIFO per node. A node receives
/// at most two packets per cycle (one per parent), applied in packet-index
/// order after every node has forwarded.
///
/// Routing state lives in scratch the instance owns and reuses: the node
/// table is built on the first non-empty route and the per-packet successor
/// array grows only when a larger batch arrives, so a steady stream of cycles
/// allocates nothing. Every route leaves the scratch empty. One instance is
/// therefore not safe to route from two threads at once.
class Butterfly {
 public:
  /// 2^log_n rows; log_n >= 1.
  explicit Butterfly(int log_n);

  int dimension() const noexcept { return d_; }
  std::uint64_t rows() const noexcept { return 1ULL << d_; }

  /// Routes the batch from scratch (the network starts empty) and returns
  /// the cost. Deterministic: FIFO queues, tie-break by packet index.
  /// Endpoints are checked before any scratch is touched.
  RoutingStats route(const std::vector<Packet>& packets);

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  // Packets queued on one output link, oldest first; empty iff head == kNil.
  struct LinkFifo {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };
  // Node (column c < d, row r) lives at nodes_[c * rows + r]; the output
  // column d only counts deliveries and has no queues.
  struct Node {
    LinkFifo link[2];              // [0]: bit cleared, [1]: bit set
    std::uint32_t size = 0;        // packets queued on both links
    std::uint32_t arrival = kNil;  // this cycle's slot in arrivals_, if any
  };
  // Up to two packets reaching `node` in one cycle; `second` may be kNil.
  struct Arrival {
    std::uint32_t node;
    std::uint32_t first;
    std::uint32_t second;
  };

  // Appends packet `id` to its link FIFO at `node` and queues the node for
  // the next cycle if it was idle.
  void enqueue(std::uint32_t node, std::uint32_t id,
               const std::vector<Packet>& packets, RoutingStats& stats);

  int d_;
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> next_;         // per packet: link successor
  std::vector<std::uint32_t> active_;       // nodes forwarding this cycle
  std::vector<std::uint32_t> next_active_;  // nodes queued for the next
  std::vector<Arrival> arrivals_;           // this cycle's staged arrivals
};

}  // namespace dsm::net
