// Distributed HDA* over worker processes (mode=dist).
//
// The in-process transports (ring, ws) share one address space: PPEs pass
// arena indices and atomics. This harness runs the same HDA* idea across
// *processes* on one host: a coordinator spawns N workers, each owning the
// states whose abstract key maps to its rank (AbstractOwner in
// dist_protocol.hpp: the key hashes only the processors of every third
// node in priority order, so most children keep their parent's owner),
// and every generated state is either kept locally (owner == self) or
// serialized as its assignment sequence and shipped to its owner through
// the coordinator over AF_UNIX socketpairs (dist_protocol.hpp describes
// the frames: binary batch/status/bound, JSON for the rest).
//
// Topology is a star on purpose: with every batch relayed through the
// coordinator, one process observes every send and Mattern-style
// termination detection degenerates to bookkeeping (DistTermination) —
// no rings of control waves, no resends. The cost is one extra hop per
// batch, which the single-host AF_UNIX latency makes irrelevant next to
// expansion work.
//
// Worker processes are re-executions of the *current binary*
// (/proc/self/exe): the coordinator passes the socket fd and rank in the
// OPTSCHED_DIST_WORKER environment variable, and a constructor hook in
// dist_transport.cpp intercepts startup before main() runs — so the CLI,
// the test binaries and the bench drivers can all act as workers without
// any per-binary wiring.
//
// Only exact search is supported (epsilon == 0): the
// FOCAL selection rule is frontier-global and does not survive
// hash-partitioning the frontier. parallel_astar_schedule enforces this
// before dispatching here. See DESIGN.md §10.
#pragma once

#include "parallel/parallel_astar.hpp"

namespace optsched::par {

/// Run the distributed search: spawn config.num_ppes worker processes,
/// coordinate until quiescence (or a budget/cancellation/memory stop),
/// and assemble the same ParallelResult shape the in-process engine
/// returns. Throws util::Error when a worker dies mid-search (killed,
/// crashed, or speaking a different wire version) — never hangs on a
/// vanished worker.
ParallelResult dist_astar_schedule(const core::SearchProblem& problem,
                                   const ParallelConfig& config);

/// The result both parallel engines return: the incumbent's assignment
/// sequence replayed into a schedule — or, when no goal beat the initial
/// bound, the warm-start seed or the upper-bound schedule behind it —
/// with the proof of how the search stopped. `stop` is the limit that
/// ended it (returned unproved), or kOptimal when the search reached its
/// termination rule. Defined in parallel_astar.cpp.
ParallelResult assemble_result(
    const core::SearchProblem& problem, const ParallelConfig& config,
    const std::vector<std::pair<dag::NodeId, machine::ProcId>>& incumbent,
    core::Termination stop);

}  // namespace optsched::par
