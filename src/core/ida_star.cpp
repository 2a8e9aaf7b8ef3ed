// Iterative-deepening A*, expressed on the shared search kernel.
//
// Each threshold iteration is a depth-first probe: the kernel runs with a
// LIFO frontier, so the pop order reproduces the classic recursive
// formulation exactly (children are pushed in reverse priority order, best
// on top). Two properties keep the memory footprint the O(v)-ish working
// set that is IDA*'s whole point:
//
//   * Backtrack reclaim: arena indices are append-only and the frontier is
//     LIFO, so when an entry is popped, every arena index above the highest
//     index still on the stack is dead — the arena is truncated to that
//     watermark (tracked O(1) via a prefix-maxima stack).
//   * Delta replay: consecutive DFS pops are parent/child or near siblings,
//     so ExpansionContext::move_to rewinds/replays one or two assignments
//     per step — the same work the recursive apply/undo formulation did.
//
// Thresholds grow by the minimal overshoot, so the first goal found within
// the current threshold is optimal. DFS probes do not deduplicate
// (duplicate detection is forced off: a CLOSED set would reintroduce the
// O(states) memory IDA* exists to avoid).
#include "core/ida_star.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/search_kernel.hpp"
#include "util/timer.hpp"

namespace optsched::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct IdaPolicy {
  IdaPolicy(const SearchProblem& p, Expander& e, StateArena& a,
            util::FlatSet128& dummy)
      : problem(p), expander(e), arena(a), no_dedup(dummy) {}

  const SearchProblem& problem;
  Expander& expander;
  StateArena& arena;
  util::FlatSet128& no_dedup;  ///< never inserted into (dedup forced off)

  double threshold = 0.0;
  double next_threshold = kInf;
  double incumbent = kInf;  ///< heuristic upper bound (progress reporting)

  std::vector<StateIndex> stack;
  std::vector<StateIndex> stack_max;  ///< prefix maxima of `stack`
  std::vector<StateIndex> batch;      ///< scratch: one expansion's children

  bool found = false;
  std::vector<std::pair<NodeId, ProcId>> goal_assignments;
  double goal_len = kInf;
  std::size_t peak_memory = 0;
  std::size_t peak_hot = 0;
  std::size_t peak_cold = 0;

  void push(StateIndex idx) {
    stack_max.push_back(stack_max.empty()
                            ? idx
                            : std::max(stack_max.back(), idx));
    stack.push_back(idx);
  }

  /// Reset for the next threshold iteration (expansion stats persist).
  void begin_iteration(double new_threshold) {
    threshold = new_threshold;
    next_threshold = kInf;
    stack.clear();
    stack_max.clear();
    arena.clear();
    expander.invalidate_context();
    push(arena.add_root());
  }

  bool keep_searching() const { return !found; }

  bool pop(StateIndex& out) {
    if (stack.empty()) return false;
    out = stack.back();
    stack.pop_back();
    stack_max.pop_back();
    // Backtrack reclaim: with a LIFO frontier every arena index above the
    // highest one still referenced is an exhausted subtree.
    const StateIndex watermark =
        std::max(out, stack_max.empty() ? 0 : stack_max.back());
    if (static_cast<std::size_t>(watermark) + 1 < arena.size()) {
      arena.truncate(watermark + 1);
      expander.invalidate_context_from(watermark + 1);
    }
    return true;
  }

  bool on_empty() { return false; }  // iteration exhausted

  StepAction classify(StateIndex idx) {
    return arena.hot(idx).depth() == problem.num_nodes() ? StepAction::kGoal
                                                         : StepAction::kExpand;
  }

  void on_goal(StateIndex idx) {
    // First goal within the threshold: optimal (thresholds grow by the
    // minimal overshoot, so nothing cheaper was skipped).
    found = true;
    goal_len = arena.hot(idx).g;
    goal_assignments.clear();
    for (StateIndex i = idx; i != kNoParent; i = arena.hot(i).parent) {
      if (arena.hot(i).is_root()) break;
      goal_assignments.emplace_back(arena.hot(i).node(),
                                    arena.hot(i).proc());
    }
    std::reverse(goal_assignments.begin(), goal_assignments.end());
  }

  void expand(StateIndex idx) {
    batch.clear();
    expander.expand(arena, no_dedup, idx, problem.upper_bound(),
                    [&](StateIndex k, const State& child) {
                      const double f = child.f();
                      if (f > threshold + 1e-9) {
                        next_threshold = std::min(next_threshold, f);
                        return;  // truncated; reclaimed at the next pop
                      }
                      batch.push_back(k);
                    });
    // Children arrive best-priority-first; push reversed so the best pops
    // first — identical depth-first order to the recursive formulation.
    for (auto it = batch.rbegin(); it != batch.rend(); ++it) push(*it);
  }

  void after_expand() {
    const std::size_t stack_bytes =
        (stack.capacity() + stack_max.capacity() + batch.capacity()) *
        sizeof(StateIndex);
    peak_hot = std::max(peak_hot, arena.hot_memory_bytes());
    peak_cold = std::max(peak_cold, arena.cold_memory_bytes());
    peak_memory =
        std::max(peak_memory, arena.memory_bytes() + stack_bytes);
  }

  std::uint64_t expanded_count() const { return expander.stats().expanded; }

  /// The memory cap is never binding for IDA* (documented contract): the
  /// working set is bounded by the DFS path, not by states visited.
  std::size_t memory_now() const { return 0; }

  void maybe_progress(KernelGuard& guard) {
    // The current threshold is the tightest known lower bound on the
    // optimum (every f below it was exhausted in earlier probes); the
    // incumbent is the heuristic upper bound until a goal ends the search.
    guard.maybe_progress(expanded_count(), threshold, incumbent);
  }
};

}  // namespace

SearchResult ida_star_schedule(const SearchProblem& problem,
                               const SearchConfig& config) {
  OPTSCHED_REQUIRE(config.epsilon == 0.0,
                   "invalid argument: IDA* is exact-only and does not "
                   "support epsilon > 0 (use A* with epsilon, engine 'aeps')");
  StateArena::require_packable(problem.num_nodes(), problem.num_procs());

  // DFS probes do not deduplicate: a CLOSED set would reintroduce the
  // O(states) memory IDA* avoids (and the recursive formulation never had
  // one). Everything else follows the caller's pruning config.
  SearchConfig probe_config = config;
  probe_config.prune.duplicate_detection = false;

  util::Timer timer;
  Expander expander(problem, probe_config);
  StateArena arena;
  util::FlatSet128 no_dedup(16);
  IdaPolicy policy(problem, expander, arena, no_dedup);
  policy.incumbent = problem.upper_bound();
  KernelGuard guard(config.controls,
                    {config.max_expansions, config.time_budget_ms,
                     /*memory: never binding*/ 0},
                    timer);

  // Initial threshold: f of the empty schedule.
  const double initial_threshold = [&] {
    const auto v = problem.num_nodes();
    std::vector<double> finish(v, 0.0);
    std::vector<ProcId> proc_of(v, machine::kInvalidProc);
    std::vector<double> scratch(2 * std::size_t{v}, 0.0);
    const ScheduleView empty{finish.data(), proc_of.data(), 0.0,
                             dag::kInvalidNode, 0};
    return evaluate_h(config.h, problem, empty, scratch.data());
  }();

  std::optional<Termination> aborted;
  double threshold = initial_threshold;
  while (!policy.found && !aborted) {
    policy.begin_iteration(threshold);
    aborted = run_search_loop(guard, policy);
    if (!policy.found && !aborted) {
      if (!std::isfinite(policy.next_threshold)) break;  // space exhausted
      threshold = policy.next_threshold;
    }
  }

  sched::Schedule schedule(problem.graph(), problem.machine(), problem.comm());
  if (policy.found) {
    for (const auto& [n, p] : policy.goal_assignments) schedule.append(n, p);
  } else {
    schedule = problem.upper_bound_schedule();
  }
  sched::validate(schedule);

  SearchResult result{std::move(schedule), 0.0, !aborted, 1.0,
                      aborted ? *aborted : Termination::kOptimal,
                      {}};
  util::merge_counters<ExpandStats>(result.stats, expander.stats());
  result.makespan = result.schedule.makespan();
  result.stats.elapsed_seconds = timer.seconds();
  result.stats.peak_memory_bytes = policy.peak_memory;
  result.stats.arena_hot_bytes = policy.peak_hot;
  result.stats.arena_cold_bytes = policy.peak_cold;
  return result;
}

SearchResult ida_star_schedule(const dag::TaskGraph& graph,
                               const machine::Machine& machine,
                               const SearchConfig& config, CommMode comm) {
  const SearchProblem problem(graph, machine, comm);
  return ida_star_schedule(problem, config);
}

}  // namespace optsched::core
