// Shared best-first search kernel.
//
// Every state-space engine in the library runs the same loop: pop a
// frontier entry, filter stale/dominated entries, recognize goals, bring
// the expansion context to the popped state (delta replay), expand, and —
// interleaved with all of that — honor cancellation, expansion/time/memory
// budgets, and progress callbacks. This header centralizes that loop so
// the cross-cutting handling lives in exactly one place:
//
//   KernelGuard       cancellation + expansion/time/memory limits + the
//                     progress-callback throttle, polled once per step.
//   run_search_loop   the pop -> filter -> goal -> expand skeleton,
//                     parameterized by an engine Policy.
//   dominated         the incumbent rule every engine proves optimality
//                     with, and prune_bound, the generation prune's bound.
//   SharedIncumbent   the incumbent shared across search threads: lock-free
//                     bound reads on the hot path, exact value + winning
//                     payload behind a mutex (parallel engines).
//
// A Policy supplies the frontier discipline and the engine-specific
// decisions (duck-typed; see the engines for examples):
//
//   bool keep_searching();            // pre-pop termination (goal
//                                     //   found, shared done flag)
//   bool pop(StateIndex& out);        // next frontier entry; false = empty
//   bool on_empty();                  // empty frontier: true = retry the
//                                     //   loop (parallel idle/steal dance),
//                                     //   false = exhausted
//   StepAction classify(StateIndex);  // stale-filter / incumbent-prune /
//                                     //   dominance stop / goal recognition
//   void on_goal(StateIndex);         // record or publish the incumbent
//   void expand(StateIndex);          // move_to + successor generation
//   void after_expand();              // frontier bookkeeping, comm rounds
//   std::uint64_t expanded_count();   // for the expansion limit
//   std::size_t memory_now();         // for the memory cap
//   void maybe_progress(KernelGuard&);// progress emission (engines with a
//                                     //   shared reporter override gating)
//
// The loop runs serially; the parallel algorithm instantiates one kernel
// per PPE thread over thread-local state, which is what makes the single
// shared implementation safe.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <utility>

#include "core/config.hpp"
#include "core/state.hpp"
#include "util/timer.hpp"

namespace optsched::core {

/// The incumbent rule, the one test every engine uses to prove a schedule
/// (bounded-)optimal: can nothing with admissible lower bound `f` beat the
/// `incumbent` by more than the (1+eps) guarantee allows? Plain form:
/// incumbent <= (1+eps)·f. Paper-fidelity mode (`strict`, exact search
/// only) keeps the f == incumbent frontier alive: f > incumbent. The
/// tolerance absorbs rounding in sums of task and comm costs; it lives here
/// and nowhere else.
inline bool dominated(double f, double incumbent, double eps, bool strict) {
  constexpr double tol = 1e-9;
  if (strict && eps == 0.0) return f > incumbent + tol;
  return incumbent <= (1.0 + eps) * f + tol;
}

/// Upper-bound pruning threshold for generated states: the live incumbent,
/// or in paper-fidelity mode the static upper bound U (§3.2's f > U).
inline double prune_bound(const PruneConfig& prune, double static_bound,
                          double incumbent) {
  return prune.strict_upper_bound ? static_bound : incumbent;
}

/// Cross-thread incumbent shared by the parallel engines: the bound is a
/// lock-free atomic for the hot paths (upper-bound pruning, frontier
/// domination tests), while the exact value and the winning payload (the
/// goal's assignment sequence) stay behind a mutex. Offers only ever
/// improve the incumbent, so concurrent goal discoveries keep the best.
template <typename Payload>
class SharedIncumbent {
 public:
  explicit SharedIncumbent(double initial) : bound_(initial), exact_(initial) {}

  /// Hot-path read of the current bound.
  double bound() const { return bound_.load(std::memory_order_acquire); }

  /// Register a complete solution; returns true when it improved the
  /// incumbent (and consumed the payload).
  bool offer(double value, Payload&& payload) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (dominated(value, exact_, 0.0, false)) return false;
    exact_ = value;
    payload_ = std::move(payload);
    bound_.store(value, std::memory_order_release);
    return true;
  }

  /// Exact value + payload copy (post-run result assembly).
  std::pair<double, Payload> snapshot() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return {exact_, payload_};
  }

 private:
  std::atomic<double> bound_;
  mutable std::mutex mu_;
  double exact_;     ///< guarded by mu_
  Payload payload_;  ///< ditto
};

/// What the policy wants done with a popped frontier entry.
enum class StepAction : std::uint8_t {
  kExpand,  ///< generate successors
  kSkip,    ///< stale or dominated entry: drop it and continue
  kGoal,    ///< complete schedule popped: hand it to the policy
  kStop,    ///< terminate the search loop (policy-level termination)
};

/// Uniform resource guard: cooperative cancellation, expansion/time/memory
/// limits, and the progress throttle. One instance per search thread; the
/// timer is borrowed so engines report elapsed time from the same clock
/// the deadline is enforced against.
class KernelGuard {
 public:
  struct Limits {
    std::uint64_t max_expansions = 0;   ///< 0 = unlimited
    double time_budget_ms = 0.0;        ///< <= 0 = unlimited
    std::size_t max_memory_bytes = 0;   ///< 0 = unlimited
  };

  KernelGuard(const SearchControls& controls, Limits limits,
              const util::Timer& timer, std::uint32_t poll_period = 1)
      : controls_(&controls),
        limits_(limits),
        timer_(&timer),
        poll_period_(poll_period ? poll_period : 1),
        gate_(controls) {}

  /// Per-step limit poll. Checks fire on every poll_period-th call (the
  /// first call always checks, so a pre-cancelled token stops the search
  /// before any expansion); period 1 — the serial default — polls every
  /// step, the parallel PPEs use a coarser period.
  std::optional<Termination> check(std::uint64_t expanded,
                                   std::size_t memory_now) {
    if (step_++ % poll_period_ != 0) return std::nullopt;
    if (controls_->cancel.cancelled()) return Termination::kCancelled;
    if (limits_.max_expansions && expanded >= limits_.max_expansions)
      return Termination::kExpansionLimit;
    if (limits_.time_budget_ms > 0 &&
        timer_->millis() >= limits_.time_budget_ms)
      return Termination::kTimeLimit;
    if (limits_.max_memory_bytes && memory_now >= limits_.max_memory_bytes)
      return Termination::kMemoryLimit;
    return std::nullopt;
  }

  /// Throttled progress emission for engines that report from their own
  /// thread (the parallel engine serializes through its shared reporter
  /// instead and ignores this gate).
  void maybe_progress(std::uint64_t expanded, double lower_bound,
                      double incumbent) {
    if (!gate_.open(expanded)) return;
    controls_->progress({expanded, lower_bound, incumbent, timer_->seconds()});
  }

  double seconds() const { return timer_->seconds(); }

 private:
  const SearchControls* controls_;
  Limits limits_;
  const util::Timer* timer_;
  std::uint32_t poll_period_;
  std::uint64_t step_ = 0;
  ProgressGate gate_;
};

/// The shared engine loop. Returns the limit that aborted the search, or
/// nullopt when the policy terminated it (goal, dominated or exhausted
/// frontier, StepAction::kStop) — the policy records which.
template <typename Policy>
std::optional<Termination> run_search_loop(KernelGuard& guard, Policy& p) {
  while (p.keep_searching()) {
    StateIndex idx;
    if (!p.pop(idx)) {
      if (p.on_empty()) continue;
      break;
    }
    if (const auto hit = guard.check(p.expanded_count(), p.memory_now()))
      return hit;
    p.maybe_progress(guard);
    switch (p.classify(idx)) {
      case StepAction::kSkip:
        break;
      case StepAction::kGoal:
        p.on_goal(idx);
        break;
      case StepAction::kStop:
        return std::nullopt;
      case StepAction::kExpand:
        p.expand(idx);
        p.after_expand();
        break;
    }
  }
  return std::nullopt;
}

}  // namespace optsched::core
