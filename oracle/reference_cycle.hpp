// The seed's five-sweep MPC cycle, kept as the differential oracle for
// mpc::Machine::step and as E16's step baseline. Test/bench-only: it lives
// in dsm_oracle, which production code never links.
//
// A ReferenceCycle drives one Machine: the machine's fault plan, failed
// flags, arbitration scratch, load counters, metrics, lifetime clock and
// interconnect (reached through the one friend declaration in
// machine.hpp). It stages writes, and on a sparse machine keeps committed
// cells, in the seed's per-module std::unordered_map tables, allocator
// traffic included, so benchmarks compare against the true pre-overhaul
// cycle. Dense committed cells live in the machine's flat array for both.
//
// Staged (and sparse) state lives apart from the machine's own tables, so
// a machine is driven either by Machine::step or by one ReferenceCycle,
// never both: every call checks that the machine's lifetime cycle count
// equals the cycles this oracle ran itself, and throws util::CheckError
// otherwise.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "dsm/mpc/machine.hpp"

namespace dsm::mpc {

class ReferenceCycle {
 public:
  /// Binds to `machine`, which must outlive the oracle.
  explicit ReferenceCycle(Machine& machine);

  /// One cycle with Machine::step's observable semantics — responses,
  /// metrics (minus the per-stage timers, which only step() populates),
  /// fault handling and interconnect pricing — as the seed ran it: serial
  /// validate, then parallel arbitrate, access, peak-read and reset sweeps
  /// over pre-cleared responses.
  void step(const std::vector<Request>& requests,
            std::vector<Response>& responses);

  /// Machine::peek / poke / hasStagedEntry over this oracle's tables.
  Cell peek(std::uint64_t module, std::uint64_t slot) const;
  void poke(std::uint64_t module, std::uint64_t slot, Cell cell);
  bool hasStagedEntry(std::uint64_t module, std::uint64_t slot) const;

 private:
  using Table = std::unordered_map<std::uint64_t, Cell>;

  void checkInSync() const;
  Cell& cellRef(std::uint64_t module, std::uint64_t slot);
  bool dropsGrant(std::uint64_t module) const;

  Machine& machine_;
  std::vector<Table> staged_;
  std::vector<Table> sparse_;  // committed cells when the machine is sparse
  std::uint64_t cycles_run_ = 0;
};

}  // namespace dsm::mpc
