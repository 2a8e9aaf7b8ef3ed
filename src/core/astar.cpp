#include "core/astar.hpp"

#include <algorithm>
#include <limits>

#include "core/closed_set.hpp"
#include "core/frontier.hpp"
#include "core/search_kernel.hpp"
#include "util/timer.hpp"

namespace optsched::core {

namespace {

/// Bookkeeping of one serial solve: arena, CLOSED, incumbent, warm record.
struct SearchDriver {
  explicit SearchDriver(const SearchProblem& p, const SearchConfig& c,
                        WarmStart* w = nullptr)
      : problem(p),
        config(c),
        expander(p, c),
        seen(arena, 1 << 12),
        incumbent_len(p.upper_bound()),
        warm(w),
        guard(c.controls,
              {c.max_expansions, c.time_budget_ms, c.max_memory_bytes},
              timer) {
    if (warm && warm->seed_upper_bound < incumbent_len) {
      incumbent_len = warm->seed_upper_bound;
      seed_schedule = warm->seed_schedule;
    }
  }

  const SearchProblem& problem;
  SearchConfig config;
  Expander expander;
  StateArena arena;
  ClosedSet seen;  ///< CLOSED: indices into `arena`
  double incumbent_len;                  ///< best complete schedule known
  std::optional<StateIndex> incumbent;   ///< goal state achieving it (if any)
  /// Warm-start repaired incumbent (only when it beats the static U): the
  /// fallback schedule when the search proves nothing in the arena beats it.
  const sched::Schedule* seed_schedule = nullptr;
  WarmStart* warm = nullptr;           ///< null = cold solve
  std::vector<std::uint8_t> flags;     ///< per-arena expansion record (warm)
  std::vector<double> bounds;          ///< prune bound at expansion (warm)
  util::Timer timer;
  KernelGuard guard;

  bool is_goal_depth(std::uint32_t depth) const {
    return depth == problem.num_nodes();
  }

  double prune_bound() const {
    return core::prune_bound(config.prune, problem.upper_bound(),
                             incumbent_len);
  }

  /// Expand through the Expander, keeping the warm-start expansion record
  /// current: which states were expanded, and whether any child was
  /// discarded by upper-bound pruning (that decision compared an f and a
  /// bound specific to this instance, so such an expansion cannot be
  /// trusted to replay from the arena and a future resolve re-expands it).
  template <typename Emit>
  void expand_state(StateIndex idx, Emit&& emit) {
    if (!warm) {
      expander.expand(arena, seen, idx, prune_bound(), emit);
      return;
    }
    const std::uint64_t pruned_before = expander.stats().pruned_upper_bound;
    const double bound = prune_bound();
    expander.expand(arena, seen, idx, bound, emit);
    flags.resize(arena.size(), 0);
    bounds.resize(arena.size(), 0.0);
    flags[idx] = WarmStart::kExpanded;
    bounds[idx] = bound;
    if (expander.stats().pruned_upper_bound != pruned_before)
      flags[idx] |= WarmStart::kBoundPruned;
  }

  /// Record a goal state if it beats the incumbent.
  void offer_goal(StateIndex idx) {
    const HotState& s = arena.hot(idx);
    OPTSCHED_ASSERT(is_goal_depth(s.depth()));
    if (s.g < incumbent_len) {
      incumbent_len = s.g;
      incumbent = idx;
    } else if (!incumbent) {
      // Equal to the heuristic bound: prefer the search's schedule so the
      // caller sees a goal found by A* (matters only for reporting).
      if (s.g <= incumbent_len) incumbent = idx;
    }
  }

  /// `open` is null when no search ran (a warm instant proof).
  SearchResult finish(Termination reason, bool proved, double bound_factor,
                      std::size_t max_open, const Frontier* open) {
    SearchResult result{
        incumbent ? reconstruct_schedule(problem, arena, *incumbent)
        : seed_schedule
            ? sched::Schedule(*seed_schedule)
            : sched::Schedule(problem.upper_bound_schedule()),
        0.0, proved, bound_factor, reason, {}};
    result.makespan = result.schedule.makespan();
    util::merge_counters<ExpandStats>(result.stats, expander.stats());
    result.stats.max_open_size = max_open;
    result.stats.peak_memory_bytes = arena.memory_bytes() +
                                     seen.memory_bytes() +
                                     (open ? open->memory_bytes() : 0);
    result.stats.arena_hot_bytes = arena.hot_memory_bytes();
    result.stats.arena_cold_bytes = arena.cold_memory_bytes();
    if (open) {
      result.stats.queue_kind = open->queue_kind();
      result.stats.queue_fallback = open->queue_fallback();
      result.stats.bucket_peak = open->peak_span();
    }
    result.stats.elapsed_seconds = timer.seconds();
    sched::validate(result.schedule);
    return result;
  }
};

// ---- A* and Aε* ----------------------------------------------------------
//
// One best-first policy. At epsilon 0 the frontier pops the minimum
// (f, -g, index): A*. At epsilon > 0 it pops by the FOCAL rule
// (core/frontier.hpp), the smallest h within f <= (1 + eps) * fmin: Aε*,
// whose result costs at most (1+eps) * optimal (Theorem 2). Either way the
// search stops once the incumbent dominates the frontier minimum fmin, a
// lower bound on every schedule not yet examined (core::dominated).
struct AStarPolicy {
  explicit AStarPolicy(SearchDriver& driver)
      : d(driver),
        open(driver.problem, driver.config),
        eps(driver.config.epsilon) {}

  SearchDriver& d;
  Frontier open;
  double eps;
  /// Frontier minimum when the last entry was popped; +inf once the
  /// frontier is exhausted, where nothing is left to beat the incumbent.
  double fmin_at_pop = 0.0;
  std::size_t max_open = 1;
  bool goal_popped = false;

  bool keep_searching() const { return !goal_popped; }

  bool pop(StateIndex& out) {
    if (open.empty()) {
      fmin_at_pop = std::numeric_limits<double>::infinity();
      return false;
    }
    out = open.pop(&fmin_at_pop).index;
    return true;
  }

  bool on_empty() { return false; }  // serial: an empty frontier ends it

  StepAction classify(StateIndex idx) {
    // Tested after the limit poll, so a limit that trips on this step wins
    // over the proof. Paper-fidelity mode keeps the f == U frontier alive
    // so the goal is popped explicitly, as in the Figure 3 trace.
    if (dominated(fmin_at_pop, d.incumbent_len, eps,
                  d.config.prune.strict_upper_bound))
      return StepAction::kStop;
    if (d.is_goal_depth(d.arena.hot(idx).depth())) return StepAction::kGoal;
    return StepAction::kExpand;
  }

  void on_goal(StateIndex idx) {
    // A goal within the FOCAL bound of fmin beats the incumbent (it was
    // not dominated), so it becomes the incumbent; at epsilon 0 its f is
    // fmin itself and it is optimal.
    d.offer_goal(idx);
    goal_popped = true;
  }

  void expand(StateIndex idx) {
    d.expand_state(idx, [&](StateIndex k, const State& child) {
      if (d.config.incumbent_updates && d.is_goal_depth(child.depth)) {
        d.offer_goal(k);
        return;  // complete: nothing to expand
      }
      open.push({child.f(), child.g, child.h, k});
    });
  }

  void after_expand() { max_open = std::max(max_open, open.size()); }

  std::uint64_t expanded_count() const { return d.expander.stats().expanded; }

  std::size_t memory_now() const {
    return d.arena.memory_bytes() + d.seen.memory_bytes() +
           open.memory_bytes();
  }

  void maybe_progress(KernelGuard& guard) {
    guard.maybe_progress(expanded_count(), fmin_at_pop, d.incumbent_len);
  }
};

/// Seed OPEN + CLOSED from the arena. Cold start: a fresh root. Warm
/// start: CLOSED is pre-populated with the retained states (sound:
/// equal signatures imply an identical assignment multiset, hence equal
/// g), h is re-derived against the new instance, and retained states go
/// back onto OPEN — except skippable closed states (see WarmStart): for a
/// cost-only delta, a state the previous run fully expanded with no
/// bound-pruned child and no guard node ready re-expands to exactly the
/// children already in the arena, so it stays closed. That skip is where
/// a warm re-solve saves search work. Every state pushed back onto OPEN
/// has its expansion flags cleared: it is an OPEN member again, and if
/// this run ends without expanding it a stale kExpanded would otherwise
/// claim arena children that later compactions may have dropped.
void seed_frontier(SearchDriver& d, Frontier& open) {
  if (d.arena.size() == 0) d.arena.add_root();
  if (d.warm) {
    d.flags.resize(d.arena.size(), 0);
    d.bounds.resize(d.arena.size(), 0.0);
  }
  const bool warm_arena = d.warm && d.arena.size() > 1;
  const bool allow_skip =
      warm_arena && d.warm->cost_only &&
      d.warm->guard_nodes.size() == d.problem.num_nodes();
  const double initial_prune = d.prune_bound();
  std::uint64_t skipped = 0;
  for (StateIndex i = 0; i < d.arena.size(); ++i) {
    d.seen.insert(d.arena.sig(i), i);
    double h = 0.0;  // the root goes on OPEN with f = 0
    if (warm_arena) {
      // Positions the expansion context on i (the guard test below reads
      // its ready list) and re-derives h against the new instance.
      const double state_h = d.expander.state_h(d.arena, i);
      if (i > 0) h = state_h;
    }
    const std::uint8_t fl = d.warm ? d.flags[i] : 0;
    const bool replayable =
        (fl & WarmStart::kExpanded) &&
        (!(fl & WarmStart::kBoundPruned) ||
         (d.warm && d.warm->cost_nondecrease && d.bounds[i] >= initial_prune));
    if (allow_skip && replayable) {
      bool guard_ready = false;
      for (const dag::NodeId n : d.expander.context().ready())
        if (d.warm->guard_nodes[n]) {
          guard_ready = true;
          break;
        }
      if (!guard_ready) {
        ++skipped;
        continue;
      }
    }
    if (d.warm) d.flags[i] = 0;
    // Mirror generation-time upper-bound pruning for re-seeded states: a
    // retained state at or above the incumbent cannot lead to anything
    // better (admissible h), so it stays closed (its signature is already
    // in `seen`) without entering OPEN. The root is always pushed.
    const HotState& s = d.arena.hot(i);
    const double f = s.g + h;
    if (warm_arena && i > 0 && d.config.prune.upper_bound &&
        !d.is_goal_depth(s.depth()) &&
        dominated(f, initial_prune, 0.0, d.config.prune.strict_upper_bound))
      continue;
    open.push({f, s.g, h, i});
  }
  if (d.warm) d.warm->states_skipped = skipped;
}

SearchResult run_astar(SearchDriver& d) {
  AStarPolicy p(d);
  seed_frontier(d, p.open);

  const double bound_factor = 1.0 + p.eps;
  if (const auto hit = run_search_loop(d.guard, p))
    return d.finish(*hit, false, bound_factor, p.max_open, &p.open);

  // A popped goal, a dominated frontier or an exhausted one: the incumbent
  // is within (1+eps) of fmin, and optimal when it matches fmin itself —
  // always so at epsilon 0.
  const bool exact = dominated(p.fmin_at_pop, d.incumbent_len, 0.0, false);
  return d.finish(exact ? Termination::kOptimal : Termination::kBoundedOptimal,
                  true, exact ? 1.0 : bound_factor, p.max_open, &p.open);
}

/// Move the previous arena in and compact it to the clean subset: a state
/// survives iff its own assigned node is clean and its parent survived —
/// i.e. its whole chain avoids dirty nodes (parents precede children in
/// the arena, so one forward pass with index remapping suffices). A
/// surviving chain's stored g and signature replay bit-identically under
/// the new instance (every context move asserts the signature); h is not
/// stored, and frontier seeding derives it against the new instance.
/// The previous run's expansion record rides along under the same
/// remapping. Returns the retained count (0 = nothing reusable; the
/// caller starts from a cold root).
std::size_t retain_clean(SearchDriver& d, WarmStart& warm) {
  StateArena old = std::move(warm.arena);
  std::vector<std::uint8_t> old_flags = std::move(warm.expansion_flags);
  std::vector<double> old_bounds = std::move(warm.expansion_bounds);
  d.expander.invalidate_context();  // the context may point at old indices
  if (warm.instance_replaced || old.size() == 0 || !old.hot(0).is_root() ||
      warm.dirty_nodes.size() != d.problem.num_nodes())
    return 0;
  old_flags.resize(old.size(), 0);
  old_bounds.resize(old.size(), 0.0);
  std::vector<StateIndex> remap(old.size(), kNoParent);
  for (StateIndex i = 0; i < old.size(); ++i) {
    const HotState& hs = old.hot(i);
    State s;
    if (hs.is_root()) {
      s = root_state();
    } else {
      const dag::NodeId n = hs.node();
      if (n == dag::kInvalidNode || warm.dirty_nodes[n]) continue;
      if (hs.parent == kNoParent || remap[hs.parent] == kNoParent) continue;
      s.sig = old.sig(i);
      s.g = hs.g;
      s.parent = remap[hs.parent];
      s.node = n;
      s.proc = hs.proc();
      s.depth = hs.depth();
    }
    remap[i] = d.arena.add(s);
    d.flags.push_back(old_flags[i]);
    d.bounds.push_back(old_bounds[i]);
  }
  return d.arena.size();
}

}  // namespace

SearchResult astar_schedule(const SearchProblem& problem,
                            const SearchConfig& config) {
  return astar_schedule(problem, config, nullptr);
}

SearchResult astar_schedule(const SearchProblem& problem,
                            const SearchConfig& config, WarmStart* warm) {
  OPTSCHED_REQUIRE(config.epsilon >= 0.0, "epsilon must be >= 0");
  StateArena::require_packable(problem.num_nodes(), problem.num_procs());
  SearchDriver driver(problem, config, warm);
  std::size_t retained = 0;
  if (warm) {
    warm->states_retained = 0;
    warm->states_skipped = 0;
    warm->instant_proof = false;
    retained = retain_clean(driver, *warm);
    warm->states_retained = retained;

    // Instant proof: the effective incumbent (the repaired seed, or the
    // static U when that is at least as good) already matches the root's
    // admissible lower bound (unweighted h of the empty schedule), so no
    // complete schedule can beat it — return it proved-optimal with zero
    // expansions. A cold solve of the same instance reaches the same
    // makespan (it is the optimum), so bit-agreement is preserved. The
    // expansion record is wiped: no seeding pass ran, so nothing verified
    // that recorded expansions still have their children in the arena.
    {
      if (driver.arena.size() == 0) driver.arena.add_root();
      const double root_lb = driver.expander.state_h(driver.arena, 0);
      if (dominated(root_lb, driver.incumbent_len, 0.0, false)) {
        warm->instant_proof = true;
        warm->warm_used = retained > 0 || driver.seed_schedule != nullptr;
        SearchResult result = driver.finish(Termination::kOptimal, true, 1.0,
                                            /*max_open=*/0, nullptr);
        warm->arena = std::move(driver.arena);
        warm->expansion_flags.assign(warm->arena.size(), 0);
        warm->expansion_bounds.assign(warm->arena.size(), 0.0);
        return result;
      }
    }
    warm->warm_used = retained > 0 || driver.seed_schedule != nullptr;
  }
  SearchResult result = run_astar(driver);
  if (warm) {
    driver.flags.resize(driver.arena.size(), 0);
    driver.bounds.resize(driver.arena.size(), 0.0);
    warm->arena = std::move(driver.arena);
    warm->expansion_flags = std::move(driver.flags);
    warm->expansion_bounds = std::move(driver.bounds);
  }
  return result;
}

SearchResult astar_schedule(const dag::TaskGraph& graph,
                            const machine::Machine& machine,
                            const SearchConfig& config, CommMode comm) {
  const SearchProblem problem(graph, machine, comm);
  return astar_schedule(problem, config);
}

}  // namespace optsched::core
