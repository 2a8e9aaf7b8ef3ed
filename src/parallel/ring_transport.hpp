// Ring-mailbox transport: the paper's §3.3 communication scheme.
//
// PPEs are wired into a fixed topology (ring by default; mesh and clique
// for the paper's comparison runs) of mutex-protected mailboxes. Work is
// seeded by the paper's interleaved hand-out, then redistributed by
// periodic communication rounds with exponentially shrinking periods
// T = v/2, v/4, ..., down to the paper's floor of 2 expansions:
//
//  * neighbourhood election — the PPE holding the locally best f expands
//    that state and scatters the children round-robin over the
//    neighbourhood;
//  * load sharing — OPEN sizes are rebalanced toward the neighbourhood
//    average, donating entries biased away from the donor's best.
//
// Duplicate detection is PPE-local only (the paper rejects a distributed
// CLOSED list as unscalable on the Paragon's interconnect), so the same
// state reached on two PPEs is expanded on both — the re-expansion cost
// the work-stealing transport's sharded table eliminates (DESIGN.md §4).
//
// Quiescence: a PPE that runs dry advertises idle and blocks briefly on
// its mailbox; the search is done when every PPE is idle and no message
// is in flight. A receiver marks itself busy *before* acknowledging a
// message, and the detector re-reads the idle flags after the in-flight
// counter, so the "all idle, nothing in flight" observation is stable.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "parallel/mailbox.hpp"
#include "parallel/transport.hpp"

namespace optsched::par {

class RingTransport final : public Transport {
 public:
  /// The floor of the communication period, in expansions (paper §3.3).
  static constexpr std::uint32_t kMinPeriod = 2;

  RingTransport(std::uint32_t num_ppes, MailboxNetwork::Topology topology,
                std::uint32_t num_nodes, std::atomic<bool>& done);

  TransportMode mode() const override { return TransportMode::kRing; }
  std::unique_ptr<PpeLink> connect(std::uint32_t ppe) override;
  std::uint32_t seed_owner(std::size_t rank,
                           const util::Key128&) const override {
    return interleave_owner(rank, num_ppes());
  }
  void collect(ParallelStats& out) const override;

 private:
  friend class RingLink;

  MailboxNetwork net_;
  std::uint32_t num_nodes_;  ///< v, for the shrinking period schedule

  std::atomic<std::uint64_t> messages_sent_{0};
  std::atomic<std::uint64_t> states_transferred_{0};
  std::atomic<std::uint64_t> comm_rounds_{0};
};

}  // namespace optsched::par
