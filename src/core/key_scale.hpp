// Fixed-point key scale for the bucketed OPEN list (core/bucket_queue.hpp).
//
// The bucket queue indexes its buckets by integer f keys, but f and g are
// doubles: heterogeneous processor speeds yield exec times like 56.25, and
// hop-scaled communication multiplies edge costs by integer distances. The
// queue is only sound if every f the search can ever produce is *exactly*
// an integer multiple of a per-instance grid step 2^-shift.
//
// Soundness argument (DESIGN.md §"Hot-path engineering"): every g and h the
// engines compute is built from a finite atom set by +, max and monotone
// selection only —
//   * exec times  w(n) / speed(p)            for every (node, processor)
//   * comm terms  c(e) * hop_distance(p, q)  (or c(e) in unit mode)
//   * scaled static levels  sl(n) * sl_scale and  w(n) * sl_scale
// max of on-grid values is on-grid trivially; the sum of two doubles that
// are integer multiples of 2^-shift is the same integer multiple of
// 2^-shift the real sum is, *exactly*, as long as the magnitudes stay far
// below 2^53 * 2^-shift (no rounding can occur on a representable result).
// So checking the atoms once at problem-build time certifies every key the
// search derives from them. A power-of-two step is essential: multiplying
// by 2^shift is exact, so the on-grid test itself cannot misfire, and
// values like 1/3 (speed 3) are correctly rejected — their stored doubles
// are not on any coarse binary grid.
//
// When any atom needs a finer grid than 2^-kMaxShift the instance is
// reported non-representable and engines fall back to the heap
// (kAuto never selects the bucket queue on such instances).
#pragma once

#include <cmath>
#include <cstdint>

namespace optsched::core {

class SearchProblem;

struct KeyScale {
  /// Every cost atom of the instance is an integer multiple of 2^-shift.
  bool exact = false;
  int shift = 0;
  double scale = 1.0;  ///< 2^shift, cached
  /// Conservative upper bound on any f value the search can produce with
  /// upper-bound pruning enabled: the instance's heuristic makespan U.
  double pruned_f_bound = 0.0;
  /// Ditto with pruning disabled: serial execution of everything on the
  /// slowest processor plus every communication delay — loose but finite.
  double loose_f_bound = 0.0;
  /// Human-readable reason when !exact ("" otherwise).
  const char* reason = "";

  /// Integer key of an on-grid value (exact: v * 2^shift has no fraction).
  std::int64_t key_of(double v) const {
    return static_cast<std::int64_t>(v * scale);
  }

  /// Is `v` exactly representable on this grid? v * 2^shift is computed
  /// exactly (power-of-two scaling), so the integrality test is precise.
  bool on_grid(double v) const {
    const double s = v * scale;
    return s == std::floor(s) && std::fabs(s) < 9.0e15;
  }
};

/// Derive the instance's grid at problem-build time (see file comment).
/// Cost: O(v * p + e) — trivial next to building the levels/upper bound.
KeyScale derive_key_scale(const SearchProblem& problem);

}  // namespace optsched::core
