#include "core/key_scale.hpp"

#include <algorithm>
#include <cmath>

#include "core/bucket_queue.hpp"
#include "core/problem.hpp"

namespace optsched::core {

namespace {

/// Smallest k with v * 2^k integral, or kMaxShift + 1 when none is found
/// within the budget (repeating binary fractions like 1/3, or values finer
/// than the maximum grid).
constexpr int kMaxShift = 20;

int required_shift(double v) {
  double s = v;
  for (int k = 0; k <= kMaxShift; ++k) {
    if (s == std::floor(s) && std::fabs(s) < 9.0e15) return k;
    s *= 2.0;  // exact: power-of-two scaling never rounds in range
  }
  return kMaxShift + 1;
}

}  // namespace

KeyScale derive_key_scale(const SearchProblem& problem) {
  const auto& graph = problem.graph();
  const auto& machine = problem.machine();
  const std::uint32_t v = problem.num_nodes();
  const std::uint32_t p = problem.num_procs();

  KeyScale ks;
  int shift = 0;
  double slowest_serial = 0.0;  // sum of worst-case exec times
  double comm_total = 0.0;      // sum of worst-case comm delays

  // Exec-time atoms w(n)/speed(q), plus the static-level/heuristic atoms
  // sl(n) * sl_scale and w(n) * sl_scale (core/heuristics.cpp).
  const double sl_scale = problem.sl_scale();
  for (NodeId n = 0; n < v; ++n) {
    double worst = 0.0;
    for (ProcId q = 0; q < p; ++q) {
      const double exec = machine.exec_time(graph.weight(n), q);
      shift = std::max(shift, required_shift(exec));
      worst = std::max(worst, exec);
    }
    slowest_serial += worst;
    shift = std::max(
        shift, required_shift(problem.levels().static_level[n] * sl_scale));
    shift = std::max(shift, required_shift(graph.weight(n) * sl_scale));
  }

  // Comm atoms: every edge cost times every hop distance the topology can
  // produce (unit mode multiplies by 1; hop mode by an integer, which
  // cannot need a finer grid than the cost itself — but the product is
  // what enters g, so check it directly against the largest distance).
  std::uint32_t max_hops = 1;
  if (problem.comm() == machine::CommMode::kHopScaled) {
    for (ProcId a = 0; a < p; ++a)
      for (ProcId b = 0; b < p; ++b)
        max_hops = std::max(max_hops, machine.hop_distance(a, b));
  }
  for (NodeId n = 0; n < v; ++n) {
    for (const auto& [child, cost] : graph.children(n)) {
      (void)child;
      double worst_delay = 0.0;
      for (std::uint32_t d = 1; d <= max_hops; ++d) {
        const double delay = cost * static_cast<double>(d);
        shift = std::max(shift, required_shift(delay));
        worst_delay = std::max(worst_delay, delay);
      }
      comm_total += worst_delay;
    }
  }

  ks.pruned_f_bound = problem.upper_bound();
  ks.loose_f_bound = slowest_serial + comm_total + problem.upper_bound();

  if (shift > kMaxShift) {
    ks.exact = false;
    ks.reason = "granularity";  // some cost is off every binary grid
    return ks;
  }
  ks.exact = true;
  ks.shift = shift;
  ks.scale = std::ldexp(1.0, shift);
  // The f bounds are sums/maxes of atoms and must land on the grid too;
  // if they do not (overflow-scale instances), report instead of asserting
  // later at push time.
  if (!ks.on_grid(ks.pruned_f_bound)) {
    ks.exact = false;
    ks.reason = "bound-off-grid";
  }
  return ks;
}

QueueChoice choose_queue(const SearchProblem& problem,
                         const SearchConfig& config) {
  QueueChoice choice;
  if (config.queue == QueueSelect::kHeap) return choice;
  if (config.epsilon > 0.0) {
    choice.fallback = "focal";
    return choice;
  }
  const KeyScale& ks = problem.key_scale();
  if (!ks.exact) {
    choice.fallback = ks.reason;
    return choice;
  }
  if (config.h == HFunction::kComposite) {
    // h_load's workload bound W/(p * max_speed) can surface as an exact f
    // (f = g + (bound - g) = bound); it divides by p, so it needs its own
    // grid check — computed exactly as h_load computes it.
    const double w = problem.graph().total_work() * problem.sl_scale();
    const double bound = w / static_cast<double>(problem.num_procs());
    if (!ks.on_grid(bound)) {
      choice.fallback = "granularity";
      return choice;
    }
  }
  choice.max_f =
      config.prune.upper_bound ? ks.pruned_f_bound : ks.loose_f_bound;
  if (!BucketQueue::admissible(ks, choice.max_f)) {
    choice.fallback = ks.on_grid(choice.max_f) ? "span" : "bound-off-grid";
    return choice;
  }
  choice.use_bucket = true;
  return choice;
}

}  // namespace optsched::core
