// The OPEN list of every best-first search worker: serial A*/Aε*, the
// in-process PPEs (ring, ws) and the dist worker.
//
// One frontier holds one of three structures, fixed at construction from
// core::choose_queue's verdict and epsilon:
//
//   heap    OpenList, the 4-ary heap on (f, -g, index) — the reference
//   bucket  BucketQueue, same pop order, O(1) push (exact key scale only)
//   focal   an ordered set on (f, -g, index) popped by the FOCAL rule
//
// Dispatch is a plain branch per call. The heap and the bucket queue are
// pop-for-pop identical, including extract_surplus and extract_best; the
// differential test in tests/core/test_bucket_queue.cpp drives both
// through one Frontier op sequence.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <vector>

#include "core/bucket_queue.hpp"
#include "core/open_list.hpp"
#include "core/problem.hpp"
#include "util/assert.hpp"

namespace optsched::core {

class Frontier {
 public:
  /// One frontier entry. f lives here and in no arena record: whatever
  /// leaves the frontier (pops, extract_surplus, extract_best) carries it
  /// out. Only the FOCAL rule reads h; the caller passes the h it
  /// computed, not f - g, so the rule sees the exact value. The heap and
  /// the bucket queue do not store h, and hand out f - g in its place.
  struct Entry {
    double f, g, h;
    StateIndex index;

    friend bool operator==(const Entry&, const Entry&) = default;
  };

  /// FOCAL selection scans at most this many members of the
  /// f <= (1+eps)*fmin prefix (see pop()).
  static constexpr int kFocalScanCap = 64;

  /// `choice` must come from choose_queue for the same key scale and
  /// epsilon (a bucket verdict needs epsilon == 0).
  Frontier(const KeyScale& ks, const QueueChoice& choice, double epsilon)
      : eps_(epsilon), fallback_(choice.fallback) {
    if (eps_ > 0.0) {
      kind_ = Kind::kFocal;
    } else if (choice.use_bucket) {
      kind_ = Kind::kBucket;
      bucket_.emplace(ks, choice.max_f);
    }
  }

  Frontier(const SearchProblem& problem, const SearchConfig& config)
      : Frontier(problem.key_scale(), choose_queue(problem, config),
                 config.epsilon) {}

  bool empty() const noexcept { return size() == 0; }

  std::size_t size() const noexcept {
    switch (kind_) {
      case Kind::kBucket: return bucket_->size();
      case Kind::kHeap: return heap_.size();
      default: return focal_.size();
    }
  }

  /// Smallest f on the frontier; +inf when empty.
  double min_f() const {
    if (empty()) return std::numeric_limits<double>::infinity();
    switch (kind_) {
      case Kind::kBucket: return bucket_->top().f;
      case Kind::kHeap: return heap_.top().f;
      default: return focal_.begin()->f;
    }
  }

  void push(const Entry& e) {
    switch (kind_) {
      case Kind::kBucket: bucket_->push({e.f, e.g, e.index}); break;
      case Kind::kHeap: heap_.push({e.f, e.g, e.index}); break;
      default:
        focal_.insert(e);
        focal_peak_ = std::max(focal_peak_, focal_.size());
    }
  }

  /// Insert a batch; the heap takes it with one O(n) heapify
  /// (OpenList::push_batch) — for transferred and stolen batches.
  void push_batch(const std::vector<Entry>& batch) {
    if (kind_ != Kind::kHeap) {
      for (const Entry& e : batch) push(e);
      return;
    }
    std::vector<OpenEntry> entries;
    entries.reserve(batch.size());
    for (const Entry& e : batch) entries.push_back({e.f, e.g, e.index});
    heap_.push_batch(entries);
  }

  /// Remove the next state to expand. A*: the minimum (f, -g, index).
  /// Aε*: the FOCAL rule — among members with f <= (1+eps)*fmin, the
  /// smallest h, ties on larger g, then set order. Any FOCAL member keeps
  /// the (1+eps) guarantee (Pearl & Kim: the secondary rule is free), so
  /// the scan stops after kFocalScanCap members to keep selection O(1)
  /// amortized; beyond the cap the smallest-f member is as good as any.
  /// `min_f`, when given, receives the frontier minimum before the pop —
  /// for the heap and the bucket queue the popped f itself.
  OpenEntry pop(double* min_f = nullptr) {
    const Entry e = take(min_f);
    return {e.f, e.g, e.index};
  }

  void clear() {
    if (bucket_) bucket_->clear();
    heap_.clear();
    focal_.clear();
  }

  /// Remove up to `count` entries, worst first, for load sharing. The heap
  /// and the bucket queue keep the donor's near-best slack band and first
  /// drop every entry at or above `live_bound`, the incumbent bound at
  /// extraction time (OpenList::extract_surplus). FOCAL donates its worst
  /// members and always keeps one.
  std::vector<Entry> extract_surplus(
      std::size_t count,
      double live_bound = std::numeric_limits<double>::infinity()) {
    std::vector<Entry> out;
    if (kind_ == Kind::kFocal) {
      while (out.size() < count && focal_.size() > 1) {
        out.push_back(*std::prev(focal_.end()));
        focal_.erase(std::prev(focal_.end()));
      }
      return out;
    }
    const std::vector<OpenEntry> taken =
        bucket_ ? bucket_->extract_surplus(count, live_bound)
                : heap_.extract_surplus(count, live_bound);
    for (const OpenEntry& e : taken) out.push_back(with_h(e));
    return out;
  }

  /// Remove up to `count` entries in pop order (work-stealing donations).
  std::vector<Entry> extract_best(std::size_t count) {
    std::vector<Entry> out;
    while (out.size() < count && !empty()) out.push_back(take());
    return out;
  }

  /// Entry storage, O(1): heap capacity, the bucket queue's running sum,
  /// or a node estimate for the FOCAL set at its peak entry count. Like
  /// the other two it never falls, so its end-of-search value is the peak.
  std::size_t memory_bytes() const noexcept {
    return (bucket_ ? bucket_->memory_bytes() : 0) + heap_.memory_bytes() +
           focal_peak_ * kFocalNodeBytes;
  }

  /// memory_bytes() recounted from scratch — tests check the sum with it.
  std::size_t recount_memory_bytes() const noexcept {
    return (bucket_ ? bucket_->recount_memory_bytes() : 0) +
           heap_.memory_bytes() + focal_peak_ * kFocalNodeBytes;
  }

  /// Widest live bucket-key span observed (0 for the heap and FOCAL).
  std::uint64_t peak_span() const noexcept {
    return bucket_ ? bucket_->peak_span() : 0;
  }

  /// The structure in use ("heap", "bucket" or "focal"), and why the
  /// bucket queue was not chosen ("" when it was, or for kHeap).
  const char* queue_kind() const noexcept {
    switch (kind_) {
      case Kind::kBucket: return "bucket";
      case Kind::kHeap: return "heap";
      default: return "focal";
    }
  }
  const char* queue_fallback() const noexcept { return fallback_; }

 private:
  enum class Kind : std::uint8_t { kHeap, kBucket, kFocal };

  /// Estimated bytes of one FOCAL set node (entry plus tree links).
  static constexpr std::size_t kFocalNodeBytes = sizeof(Entry) * 3;

  /// A heap or bucket entry as a frontier entry; h is recovered as f - g.
  static Entry with_h(const OpenEntry& e) noexcept {
    return {e.f, e.g, e.f - e.g, e.index};
  }

  /// pop() with the whole entry: FOCAL members keep the h they were
  /// pushed with.
  Entry take(double* min_f = nullptr) {
    if (kind_ != Kind::kFocal) {
      const OpenEntry out =
          kind_ == Kind::kBucket ? bucket_->pop() : heap_.pop();
      if (min_f) *min_f = out.f;
      return with_h(out);
    }
    OPTSCHED_ASSERT(!focal_.empty());
    if (min_f) *min_f = focal_.begin()->f;
    const double bound = (1.0 + eps_) * focal_.begin()->f + 1e-12;
    auto chosen = focal_.begin();
    int scanned = 0;
    for (auto it = focal_.begin(); it != focal_.end() && it->f <= bound &&
                                   scanned < kFocalScanCap;
         ++it, ++scanned) {
      if (it->h < chosen->h || (it->h == chosen->h && it->g > chosen->g))
        chosen = it;
    }
    const Entry out = *chosen;
    focal_.erase(chosen);
    return out;
  }

  /// FOCAL set order: (f asc, g desc, index asc), OpenList's order.
  struct FocalOrder {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.f != b.f) return a.f < b.f;
      if (a.g != b.g) return a.g > b.g;
      return a.index < b.index;
    }
  };

  Kind kind_ = Kind::kHeap;
  double eps_;
  const char* fallback_;
  std::optional<BucketQueue> bucket_;
  OpenList heap_;
  std::set<Entry, FocalOrder> focal_;
  std::size_t focal_peak_ = 0;  ///< most FOCAL entries ever held at once
};

}  // namespace optsched::core
