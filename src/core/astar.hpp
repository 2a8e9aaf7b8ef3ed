// Serial A* and Aε* scheduling (paper §3.1, §3.2, §3.4).
//
// The search explores partial schedules best-first on f = g + h, with g the
// partial schedule length and h the configured admissible heuristic. With
// all pruning enabled this is the paper's "A*" column; PruneConfig::none()
// gives its "A* full" column; SearchConfig::epsilon > 0 gives the Aε*
// FOCAL variant with a (1+epsilon)-optimality guarantee.
//
// The search is *anytime*: it starts from the linear-time upper-bound
// heuristic's schedule as incumbent, so even when an expansion or time
// limit aborts the search a valid schedule (never worse than that
// heuristic's) is returned with proved_optimal = false.
#pragma once

#include <limits>
#include <memory>
#include <optional>

#include "core/config.hpp"
#include "core/expansion.hpp"
#include "core/problem.hpp"
#include "sched/schedule.hpp"

namespace optsched::core {

/// One search's counters: the expansion counters it inherits from
/// ExpandStats plus the frontier, memory and timing figures.
struct SearchStats : ExpandStats {
  std::size_t max_open_size = 0;
  /// Search-state memory: arena + CLOSED + OPEN for best-first engines,
  /// the bounded DFS working set for IDA*, summed across PPEs for the
  /// parallel engine. 0 means the producing engine does not track memory.
  std::size_t peak_memory_bytes = 0;
  /// The state arena's hot/cold split (core/state.hpp): hot is the
  /// search loop's resident working set, cold holds signatures + finish
  /// times touched only at generation/dedup/transfer time.
  std::size_t arena_hot_bytes = 0;
  std::size_t arena_cold_bytes = 0;
  /// OPEN list actually used: "bucket", "heap", "focal" (Aε* FOCAL set),
  /// or "" for engines without an OPEN list (IDA*, heuristics).
  const char* queue_kind = "";
  /// Why the bucket queue was not used when kAuto asked for it
  /// ("" when it was, or when kHeap chose the heap explicitly).
  const char* queue_fallback = "";
  /// Widest f-key span the bucket queue ever held (0 on the heap path);
  /// max across PPEs for the parallel engine.
  std::uint64_t bucket_peak = 0;
  double elapsed_seconds = 0.0;

  /// The counter table (util/counters.hpp), in report order. The context
  /// loads (loads_full vs loads_incremental, ExpansionContext::move_to)
  /// and assignments_replayed give the per-expansion replay cost the
  /// delta path amortizes (assignments_replayed / expanded ≈ mean replay
  /// length).
  template <class F, class... S>
  static void visit(F&& f, S&... s) {
    using util::Counter;
    using enum util::Merge;
    using enum util::CounterClass;
    f(Counter{"queue_kind", kNone, kSemantic}, s.queue_kind...);
    f(Counter{"fallback_reason", kNone, kSemantic}, s.queue_fallback...);
    ExpandStats::visit(f, s...);
    f(Counter{"max_open_size", kMax, kEffort}, s.max_open_size...);
    f(Counter{"peak_memory_bytes", kMemory, kEffort}, s.peak_memory_bytes...);
    f(Counter{"arena_hot_bytes", kMemory, kEffort}, s.arena_hot_bytes...);
    f(Counter{"arena_cold_bytes", kMemory, kEffort}, s.arena_cold_bytes...);
    f(Counter{"bucket_peak", kMax, kRun}, s.bucket_peak...);
    f(Counter{"elapsed_seconds", kMax, kRun}, s.elapsed_seconds...);
  }
};

struct SearchResult {
  sched::Schedule schedule;   ///< always a valid complete schedule
  double makespan = 0.0;
  bool proved_optimal = false;
  /// Guaranteed makespan <= bound_factor * optimal (1.0 when optimal).
  double bound_factor = 1.0;
  Termination reason = Termination::kOptimal;
  SearchStats stats;
};

/// Cross-solve warm-start state (the SolveSession re-solve path). The
/// caller moves the previous solve's arena in together with the delta's
/// invalidation summary; the search compacts it to the clean subset —
/// every state whose whole parent chain avoids dirty nodes; parents
/// precede children in the arena, so one forward pass with index
/// remapping suffices — re-derives h for the retained states under the
/// new instance, pre-populates CLOSED with their signatures (sound
/// because a signature collision implies an identical assignment
/// multiset, hence identical g), and starts from
/// min(static U, seed_upper_bound) as the incumbent.
///
/// Retained states re-enter OPEN *except* skippable closed states: when
/// the delta changed only costs (`cost_only`), a state that the previous
/// run fully expanded with no upper-bound-pruned child and with no
/// `guard_nodes` member ready re-expands to exactly the child set already
/// sitting in the arena — untouched-node costs, the duplicate-detection
/// outcome (an equal-signature first copy has the same clean assignment
/// multiset, so it was retained too), and the equivalence/isomorphism
/// pruning decisions are all unchanged outside the guard set — so it
/// stays closed and is never re-expanded. This is where a warm re-solve
/// skips search work. Guard readiness is what keeps the recorded
/// expansion replayable: any child invalidated by the delta has a dirty
/// (guarded) node, which is by construction ready at the parent.
///
/// When the repaired seed schedule already matches the root's admissible
/// lower bound the solve returns proved-optimal with zero expansions
/// (instant proof). After the run the (final) arena and per-state
/// expansion record are moved back out for the next resolve.
struct WarmStart {
  /// expansion_flags bits.
  static constexpr std::uint8_t kExpanded = 1;     ///< successors were built
  static constexpr std::uint8_t kBoundPruned = 2;  ///< a child was discarded
                                                   ///< by upper-bound pruning

  StateArena arena;               ///< in: previous arena; out: final arena
  /// Per-arena-index expansion record, parallel to `arena` (moved in and
  /// out with it). kExpanded is only trusted if it has stayed valid
  /// through every compaction since it was set: seeding clears the flags
  /// of every state it pushes back onto OPEN, so a flag survives only
  /// along skip chains, whose children provably remain in the arena.
  std::vector<std::uint8_t> expansion_flags;
  /// Prune bound in force when the state was expanded (parallel to
  /// `arena`, meaningful where kBoundPruned is set). For a cost
  /// non-decreasing delta a bound-pruned expansion is still skippable
  /// when this recorded bound covers the new run's initial bound: every
  /// heuristic is a max of critical-path/load lower bounds and therefore
  /// monotone non-decreasing in task and comm costs, so a child with
  /// f_old >= recorded has f_new >= f_old >= the new bound — it would be
  /// pruned again.
  std::vector<double> expansion_bounds;
  std::vector<bool> dirty_nodes;  ///< per NodeId of the new graph
  /// Nodes whose readiness at a retained state vetoes the closed-state
  /// skip: the dirty nodes plus the delta's endpoints (equivalence
  /// classes of other nodes are unaffected by edits incident to these).
  std::vector<bool> guard_nodes;
  /// The delta changed task or comm costs only — precedence and machine
  /// are untouched — enabling the closed-state skip described above.
  bool cost_only = false;
  /// The delta did not decrease any cost (new value >= old): admissible h
  /// values can only grow, unlocking the recorded-bound skip relaxation
  /// documented on expansion_bounds.
  bool cost_nondecrease = false;
  bool instance_replaced = false; ///< machine changed: retain nothing
  double seed_upper_bound = std::numeric_limits<double>::infinity();
  /// Repaired incumbent, built against the *new* instance (borrowed; must
  /// outlive the call). May be null (first solve of a session).
  const sched::Schedule* seed_schedule = nullptr;

  // Outputs:
  std::uint64_t states_retained = 0;  ///< clean states reused
  std::uint64_t states_skipped = 0;   ///< retained states never re-expanded
  bool warm_used = false;   ///< any reuse happened (states, bound, or proof)
  bool instant_proof = false;  ///< seed matched the root lower bound
};

/// Run the search on a prepared problem (reusable across configs/threads).
SearchResult astar_schedule(const SearchProblem& problem,
                            const SearchConfig& config = {});

/// Warm-started run: `warm` (may be null = cold) is consumed and refilled
/// as described on WarmStart. Results bit-agree with a cold solve of the
/// same instance for exact configurations (epsilon 0).
SearchResult astar_schedule(const SearchProblem& problem,
                            const SearchConfig& config, WarmStart* warm);

/// Convenience overload: builds the SearchProblem internally.
SearchResult astar_schedule(const dag::TaskGraph& graph,
                            const machine::Machine& machine,
                            const SearchConfig& config = {},
                            CommMode comm = CommMode::kUnitDistance);

}  // namespace optsched::core
