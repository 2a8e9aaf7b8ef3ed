// Parallel A* / Aε* scheduling over pluggable transports.
//
// PPEs (physical processing elements — here, worker threads) each run a
// local best-first search over a private OPEN list and arena; how work is
// seeded, redistributed, and deduplicated is the selected transport's
// business (parallel/transport.hpp):
//
//  * mode = ring (the paper's §3.3 scheme, the default): static
//    interleaved seed partition over a fixed topology, periodic
//    neighbour communication with periods shrinking T = v/2, v/4, ...
//    down to 2 expansions (election + OPEN-size rebalancing), and
//    PPE-local duplicate detection only — the paper rejects a
//    distributed CLOSED list as unscalable, so cross-PPE duplicates are
//    re-expanded.
//  * mode = ws (work stealing + hash-sharded duplicate detection):
//    signature-hash seed partition, per-PPE donation deques with batched
//    steal of the victim's best-f suffix (8 states a batch), and one
//    global transposition table sharded by signature (4x PPEs shards) so
//    duplicate detection is exact across PPEs while lock contention
//    stays per-shard.
//
// Termination: the paper stops as soon as any PPE finds a goal. With
// per-PPE OPEN lists that first goal need not be optimal, so we use the
// sound rule instead — a goal becomes the shared incumbent, PPEs prune
// against it, and the search stops when every PPE is dominated
// (min local f >= incumbent, or >= incumbent/(1+eps) for Aε*) and the
// transport is quiescent (no message in flight / no parked donation).
#pragma once

#include "core/astar.hpp"
#include "parallel/mailbox.hpp"
#include "parallel/transport.hpp"

namespace optsched::par {

struct ParallelConfig {
  std::uint32_t num_ppes = 4;
  TransportMode mode = TransportMode::kRing;
  MailboxNetwork::Topology topology = MailboxNetwork::Topology::kRing;
  core::SearchConfig search{};

  /// Warm-start seed (SolveSession re-solve): the shared incumbent starts
  /// from min(static upper bound, seed_upper_bound). The parallel engine
  /// reuses no arena states — per-PPE arenas from a previous run cannot be
  /// re-partitioned soundly — but a tight seeded bound prunes generation
  /// on every PPE from the first expansion. `seed_schedule` backs the
  /// bound: when no PPE finds a goal below it, that schedule (borrowed;
  /// must outlive the call, built against *this* instance) is returned.
  double seed_upper_bound = std::numeric_limits<double>::infinity();
  const sched::Schedule* seed_schedule = nullptr;
};

struct ParallelResult {
  core::SearchResult result;
  ParallelStats par_stats;  ///< transport counters (parallel/transport.hpp)
};

ParallelResult parallel_astar_schedule(const core::SearchProblem& problem,
                                       const ParallelConfig& config = {});

ParallelResult parallel_astar_schedule(const dag::TaskGraph& graph,
                                       const machine::Machine& machine,
                                       const ParallelConfig& config = {});

}  // namespace optsched::par
