// IDA* — iterative-deepening A* for optimal scheduling in O(v) memory.
//
// The paper singles out memory as the limiting resource of best-first
// search ("a huge memory requirement to store the search states is also
// another common problem"). IDA* trades re-expansion for memory: repeated
// depth-first probes with an increasing f threshold, keeping only the
// current assignment stack. The same pruning rules (processor isomorphism,
// node equivalence, upper bound) apply per probe; there is no CLOSED set,
// so transposition duplicates are re-explored — the classic trade-off.
#pragma once

#include "core/astar.hpp"

namespace optsched::core {

/// Optimal schedule via IDA*. Honors config.prune, config.h,
/// config.max_expansions (counted across probes), config.time_budget_ms,
/// and config.controls (cancellation + progress); epsilon must be 0 —
/// anything else throws util::Error (the unified API rejects such
/// requests up front, see api/registry.hpp).
SearchResult ida_star_schedule(const SearchProblem& problem,
                               const SearchConfig& config = {});

SearchResult ida_star_schedule(const dag::TaskGraph& graph,
                               const machine::Machine& machine,
                               const SearchConfig& config = {},
                               CommMode comm = CommMode::kUnitDistance);

}  // namespace optsched::core
