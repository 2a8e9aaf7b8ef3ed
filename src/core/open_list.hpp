// OPEN list: 4-ary min-heap keyed on (f, -g) with lazy deletion.
//
// The heap stores (f, g, state index) triples; staleness (states already
// expanded, or superseded by the incumbent bound) is filtered at pop time
// by the caller. A 4-ary layout halves tree depth versus binary and keeps
// sift-down children on one cache line — this heap and the CLOSED set are
// the two hottest data structures in the search (see bench_micro).
//
// Tie-breaking on larger g prefers deeper states among equal-f candidates,
// which reaches goal states sooner without affecting optimality. The final
// tie-break on smaller state index makes the order a *strict total* order,
// so the heap and the bucket queue (core/bucket_queue.hpp) produce
// identical pop sequences — the property the bucket-vs-heap differential
// suite pins down.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/state.hpp"
#include "util/assert.hpp"

namespace optsched::core {

struct OpenEntry {
  double f;
  double g;
  StateIndex index;
};

class OpenList {
 public:
  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }

  void push(const OpenEntry& e) {
    heap_.push_back(e);
    sift_up(heap_.size() - 1);
  }

  void reserve(std::size_t n) { heap_.reserve(n); }

  /// Insert a batch of entries with one O(n) Floyd heapify instead of n
  /// sift-ups — for transferred/stolen state batches, where the batch is
  /// usually a sizable fraction of the frontier. Small batches into a big
  /// heap fall back to per-entry sift-up, which is cheaper there.
  void push_batch(const std::vector<OpenEntry>& batch) {
    if (batch.empty()) return;
    if (batch.size() < heap_.size() / 4) {
      for (const OpenEntry& e : batch) push(e);
      return;
    }
    heap_.insert(heap_.end(), batch.begin(), batch.end());
    for (std::size_t i = heap_.size(); i-- > 0;) sift_down(i);
  }

  const OpenEntry& top() const {
    OPTSCHED_ASSERT(!heap_.empty());
    return heap_[0];
  }

  OpenEntry pop() {
    OPTSCHED_ASSERT(!heap_.empty());
    const OpenEntry result = heap_[0];
    heap_[0] = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
    return result;
  }

  void clear() noexcept { heap_.clear(); }

  /// Remove every entry with f >= bound (incumbent pruning after a goal or
  /// a tightened upper bound). Rebuilds the heap in O(n).
  void prune_at_least(double bound) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < heap_.size(); ++i)
      if (heap_[i].f < bound) heap_[kept++] = heap_[i];
    heap_.resize(kept);
    for (std::size_t i = heap_.size(); i-- > 0;) sift_down(i);
  }

  /// Extract up to `count` entries for the parallel algorithm's load
  /// sharing, the worst ones, worst first, and never from inside the
  /// donor's near-best slack band (donation_threshold): handing away a
  /// second-best frontier state would stall the donor. Entries are removed
  /// from this heap.
  ///
  /// `live_bound` is the *current* incumbent bound at extraction time:
  /// the donation band is computed against the frontier as pruned by that
  /// bound, so a bound that tightened after the donor last pruned cannot
  /// leak dead states (f >= live_bound) into the donation — they are
  /// dropped here exactly as prune_at_least would drop them. Pass
  /// +infinity (the default) when no bound applies (weighted/bounded
  /// searches, which never prune at the incumbent).
  std::vector<OpenEntry> extract_surplus(
      std::size_t count,
      double live_bound = std::numeric_limits<double>::infinity());

  /// States with f below this stay home during load sharing: the donor's
  /// best f plus a ~0.1% relative slack band. Shared with BucketQueue so
  /// both queues donate from the same region of the frontier.
  static double donation_threshold(double best_f) {
    return best_f + std::max(1.0, std::fabs(best_f)) * (1.0 / 1024.0);
  }

  std::size_t memory_bytes() const noexcept {
    return heap_.capacity() * sizeof(OpenEntry);
  }

 private:
  static bool before(const OpenEntry& a, const OpenEntry& b) noexcept {
    if (a.f != b.f) return a.f < b.f;
    if (a.g != b.g) return a.g > b.g;
    return a.index < b.index;
  }

  void sift_up(std::size_t i) {
    const OpenEntry e = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!before(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  void sift_down(std::size_t i) {
    const OpenEntry e = heap_[i];
    const std::size_t n = heap_.size();
    while (true) {
      const std::size_t first_child = (i << 2) + 1;
      if (first_child >= n) break;
      std::size_t best = first_child;
      const std::size_t last_child = std::min(first_child + 4, n);
      for (std::size_t c = first_child + 1; c < last_child; ++c)
        if (before(heap_[c], heap_[best])) best = c;
      if (!before(heap_[best], e)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = e;
  }

  std::vector<OpenEntry> heap_;
};

inline std::vector<OpenEntry> OpenList::extract_surplus(std::size_t count,
                                                        double live_bound) {
  std::vector<OpenEntry> result;
  if (live_bound < std::numeric_limits<double>::infinity())
    prune_at_least(live_bound);
  if (heap_.size() <= 1 || count == 0) return result;
  // The back of a 4-ary heap array is *not* among the worst entries — it
  // can hold the donor's second-best state. Donate only from outside the
  // slack band around the current best f, worst states first.
  const double threshold = donation_threshold(heap_[0].f);
  std::vector<OpenEntry> eligible;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    if (heap_[i].f >= threshold)
      eligible.push_back(heap_[i]);
    else
      heap_[kept++] = heap_[i];  // the top always stays: threshold > top f
  }
  heap_.resize(kept);
  const auto worse = [](const OpenEntry& a, const OpenEntry& b) {
    return before(b, a);
  };
  if (eligible.size() > count) {
    std::nth_element(eligible.begin(),
                     eligible.begin() + static_cast<std::ptrdiff_t>(count),
                     eligible.end(), worse);
    heap_.insert(heap_.end(),
                 eligible.begin() + static_cast<std::ptrdiff_t>(count),
                 eligible.end());
    eligible.resize(count);
  }
  std::sort(eligible.begin(), eligible.end(), worse);
  result = std::move(eligible);
  for (std::size_t i = heap_.size(); i-- > 0;) sift_down(i);
  return result;
}

}  // namespace optsched::core
