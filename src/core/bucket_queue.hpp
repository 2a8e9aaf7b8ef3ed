// Bucketed OPEN list: an array of f-keyed buckets with a monotone cursor.
//
// A* pops are (weakly) f-monotone, so a calendar of buckets indexed by the
// fixed-point f key (core/key_scale.hpp) replaces the 4-ary heap's
// O(log n) sift chains with O(1) pushes and an amortized-O(1) cursor walk
// on pop: the cursor only rescans a bucket range when an inconsistent
// heuristic pushes below it, and `prune_at_least`/`extract_surplus` drop
// or drain whole buckets from the top instead of rebuilding a heap.
//
// Pop order is *identical* to OpenList's: both order on
// (f asc, g desc, index asc). f equality is exact inside a bucket — keys
// are exact by construction — and the (g desc, index asc) tie-break is a
// strict total order (indices are unique), so given the same push
// sequence both structures produce the same pop sequence; the randomized
// bucket-vs-heap differential suite asserts exactly that. Entries inside
// a bucket form a binary max-heap on (g, -index), so per-bucket cost is
// O(log bucket) — logarithmic in the f-plateau size, not the frontier.
//
// An entry is 8 bytes: the bucket is f's key, and g is stored as its own
// 32-bit key on the same grid. g is a max of finish times, built from the
// instance's cost atoms like f, so it is on the grid too (push asserts
// it); g <= f < the bucket span keeps its key far below 2^32. Keys sort
// exactly as the doubles do, and key * 2^-shift rebuilds g bit for bit.
//
// Construction requires an exact KeyScale and a bucket span within
// kMaxBuckets; `admissible()` reports why an instance/config cannot use
// the bucket queue so `QueueSelect::kAuto` can fall back to the heap.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string_view>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/key_scale.hpp"
#include "core/open_list.hpp"
#include "core/state.hpp"
#include "util/assert.hpp"

namespace optsched::core {

class SearchProblem;

class BucketQueue {
 public:
  /// Hard cap on the bucket array (vector headers alone cost ~24 bytes per
  /// bucket; 2^18 keys the span of any sane exact-search instance).
  static constexpr std::int64_t kMaxBuckets = std::int64_t{1} << 18;

  /// Can this (scale, max f) pair be bucketed at all? `max_f` must bound
  /// every f the run can push (U with upper-bound pruning, the loose
  /// serial bound without it).
  static bool admissible(const KeyScale& ks, double max_f) {
    return ks.exact && ks.on_grid(max_f) &&
           ks.key_of(max_f) + 2 <= kMaxBuckets;
  }

  BucketQueue(const KeyScale& ks, double max_f) : scale_(ks) {
    OPTSCHED_ASSERT(admissible(ks, max_f));
    buckets_.resize(static_cast<std::size_t>(scale_.key_of(max_f)) + 2);
    inv_scale_ = 1.0 / scale_.scale;
  }

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  void push(const OpenEntry& e) {
    const std::int64_t key = key_for(e.f);
    const std::uint32_t g_key = g_key_for(e.g);
    Bucket& b = buckets_[static_cast<std::size_t>(key)];
    const std::size_t cap = b.capacity();
    b.push_back({g_key, e.index});
    entry_capacity_.entries += b.capacity() - cap;
    std::push_heap(b.begin(), b.end(), deeper_last);
    if (key < cursor_) cursor_ = key;
    ++size_;
    if (size_ == 1) {
      // Push into an empty queue (fresh, cleared, or drained by pops):
      // every bucket is empty, so the watermarks re-anchor to this key —
      // keeping peak_span a live-span high-water mark, not an all-time
      // key-range one.
      lo_key_ = hi_key_ = key;
    } else {
      lo_key_ = std::min(lo_key_, key);
      hi_key_ = std::max(hi_key_, key);
    }
    peak_span_ = std::max(peak_span_,
                          static_cast<std::uint64_t>(hi_key_ - lo_key_ + 1));
  }

  /// O(batch): per-entry push is already O(log plateau), no heapify pass
  /// to amortize (cf. OpenList::push_batch).
  void push_batch(const std::vector<OpenEntry>& batch) {
    for (const OpenEntry& e : batch) push(e);
  }

  const OpenEntry& top() const {
    OPTSCHED_ASSERT(!empty());
    const std::int64_t key = settle_cursor();
    const Entry& e = buckets_[static_cast<std::size_t>(key)].front();
    top_scratch_ = {value_of(key), value_of(e.g_key), e.index};
    return top_scratch_;
  }

  OpenEntry pop() {
    OPTSCHED_ASSERT(!empty());
    cursor_ = settle_cursor();
    Bucket& b = buckets_[static_cast<std::size_t>(cursor_)];
    std::pop_heap(b.begin(), b.end(), deeper_last);
    const Entry e = b.back();
    b.pop_back();
    --size_;
    return {value_of(cursor_), value_of(e.g_key), e.index};
  }

  void clear() noexcept {
    for (std::int64_t k = lo_key_; k <= hi_key_ && size_ > 0; ++k) {
      size_ -= buckets_[static_cast<std::size_t>(k)].size();
      buckets_[static_cast<std::size_t>(k)].clear();
    }
    OPTSCHED_ASSERT(size_ == 0);
    cursor_ = 0;
    lo_key_ = 0;
    hi_key_ = -1;
  }

  /// Remove every entry with f >= bound — O(buckets dropped), no rebuild.
  void prune_at_least(double bound) {
    if (empty()) return;
    const std::int64_t cut = std::min(
        static_cast<std::int64_t>(buckets_.size()), cut_key(bound));
    for (std::int64_t k = std::max(cut, lo_key_); k <= hi_key_; ++k) {
      size_ -= buckets_[static_cast<std::size_t>(k)].size();
      buckets_[static_cast<std::size_t>(k)].clear();
    }
    hi_key_ = std::min(hi_key_, cut - 1);
  }

  /// Drain up to `count` entries from the *worst* end for load sharing,
  /// worst first, never touching the best bucket (donating near-best
  /// states would stall the donor — the same slack-band rule as OpenList,
  /// and the same entries in the same order).
  ///
  /// `live_bound` is the incumbent bound at extraction time (see
  /// OpenList::extract_surplus): buckets at or above it are dead and are
  /// pruned here rather than donated, so a bound that tightened since the
  /// donor's last prune cannot ship dead states.
  std::vector<OpenEntry> extract_surplus(
      std::size_t count,
      double live_bound = std::numeric_limits<double>::infinity()) {
    std::vector<OpenEntry> out;
    if (live_bound < std::numeric_limits<double>::infinity())
      prune_at_least(live_bound);
    if (size_ <= 1 || count == 0) return out;
    const std::int64_t best = settle_cursor();
    const std::int64_t guard = cut_key(donation_threshold(value_of(best)));
    for (std::int64_t k = hi_key_; k >= guard && out.size() < count; --k) {
      Bucket& b = buckets_[static_cast<std::size_t>(k)];
      // Ascending deeper_last order is worst first within the bucket.
      const auto take = static_cast<std::ptrdiff_t>(
          std::min(b.size(), count - out.size()));
      std::partial_sort(b.begin(), b.begin() + take, b.end(), deeper_last);
      for (auto it = b.begin(); it != b.begin() + take; ++it)
        out.push_back({value_of(k), value_of(it->g_key), it->index});
      b.erase(b.begin(), b.begin() + take);
      std::make_heap(b.begin(), b.end(), deeper_last);
      size_ -= static_cast<std::size_t>(take);
    }
    return out;
  }

  /// Bucket array plus every bucket's entry capacity. O(1): bucket
  /// capacities only grow, and only in push(), which keeps the running sum.
  std::size_t memory_bytes() const noexcept {
    return buckets_.capacity() * sizeof(Bucket) +
           entry_capacity_.entries * sizeof(Entry);
  }

  /// memory_bytes() recounted from scratch, O(buckets) — tests check the
  /// running sum against it.
  std::size_t recount_memory_bytes() const noexcept {
    std::size_t bytes = buckets_.capacity() * sizeof(Bucket);
    for (const Bucket& b : buckets_) bytes += b.capacity() * sizeof(Entry);
    return bytes;
  }

  /// Widest occupied key span observed (buckets between the lowest and
  /// highest live f keys) — the structure's resident-width counter.
  std::uint64_t peak_span() const noexcept { return peak_span_; }

  /// The slack band protecting a donor's near-best frontier: states within
  /// ~0.1% of the best f are never donated (shared with OpenList).
  static double donation_threshold(double best_f) {
    return best_f + std::max(1.0, std::fabs(best_f)) * (1.0 / 1024.0);
  }

 private:
  /// g as a grid key (see the file comment), and the state.
  struct Entry {
    std::uint32_t g_key;
    StateIndex index;
  };
  static_assert(sizeof(Entry) == 8, "bucket entries must stay 8 bytes");
  using Bucket = std::vector<Entry>;

  /// Sum of the buckets' capacities, in entries. A move zeroes the source,
  /// as it empties the source's bucket array.
  struct CapacitySum {
    std::size_t entries = 0;
    CapacitySum() = default;
    CapacitySum(CapacitySum&& o) noexcept
        : entries(std::exchange(o.entries, 0)) {}
    CapacitySum& operator=(CapacitySum&& o) noexcept {
      entries = std::exchange(o.entries, 0);
      return *this;
    }
  };

  /// Max-heap order on (g, -index): pop_heap yields the deepest entry,
  /// ties by smallest index — OpenList::before's exact tie-break.
  static bool deeper_last(const Entry& a, const Entry& b) noexcept {
    if (a.g_key != b.g_key) return a.g_key < b.g_key;
    return a.index > b.index;
  }

  std::int64_t key_for(double f) const {
    OPTSCHED_ASSERT(scale_.on_grid(f));
    const auto key = scale_.key_of(f);
    OPTSCHED_ASSERT(key >= 0 &&
                    key < static_cast<std::int64_t>(buckets_.size()));
    return key;
  }

  /// g's grid key: on the grid, non-negative and below 2^32.
  std::uint32_t g_key_for(double g) const {
    OPTSCHED_ASSERT(scale_.on_grid(g));
    const auto key = scale_.key_of(g);
    OPTSCHED_ASSERT(key >= 0 &&
                    key <= std::numeric_limits<std::uint32_t>::max());
    return static_cast<std::uint32_t>(key);
  }

  /// First key whose bucket holds entries with f >= bound (for pruning:
  /// an on-grid bound maps exactly; an off-grid one conservatively up).
  std::int64_t cut_key(double bound) const {
    const double scaled = bound * scale_.scale;
    const auto floor_key = static_cast<std::int64_t>(std::floor(scaled));
    const std::int64_t k = scaled == std::floor(scaled) ? floor_key
                                                        : floor_key + 1;
    return std::clamp<std::int64_t>(k, 0,
                                    static_cast<std::int64_t>(buckets_.size()));
  }

  /// The on-grid value of a key (a bucket's f, or an entry's g): exact,
  /// as key * 2^-shift does not round.
  double value_of(std::int64_t key) const { return key * inv_scale_; }

  /// First non-empty bucket at or after the cursor (the cursor may trail
  /// after pops empty a bucket, or lead after a below-cursor push).
  std::int64_t settle_cursor() const {
    std::int64_t k = std::max(cursor_, lo_key_);
    while (buckets_[static_cast<std::size_t>(k)].empty()) {
      ++k;
      OPTSCHED_ASSERT(k <= hi_key_);
    }
    return k;
  }

  KeyScale scale_;
  double inv_scale_ = 1.0;
  std::vector<Bucket> buckets_;
  CapacitySum entry_capacity_;
  std::int64_t cursor_ = 0;
  std::int64_t lo_key_ = 0;   ///< lowest key ever occupied
  std::int64_t hi_key_ = -1;  ///< highest key ever occupied
  std::size_t size_ = 0;
  std::uint64_t peak_span_ = 0;
  mutable OpenEntry top_scratch_{};
};

/// Outcome of OPEN-list selection for one (instance, config) pair.
struct QueueChoice {
  bool use_bucket = false;
  /// Why the bucket queue was rejected; "" when chosen, or when kHeap
  /// picked the heap explicitly (no fallback happened).
  const char* fallback = "";
  double max_f = 0.0;  ///< f bound the bucket array is sized for
};

/// Decide heap vs bucket for a best-first engine. Bucket requires: an
/// exact fixed-point key scale for the instance, epsilon == 0 (FOCAL uses
/// its own set; that reason is reported first), a finite f bound whose
/// key span fits kMaxBuckets, and — for kComposite — the W/(p *
/// max_speed) workload atom on the grid. kHeap skips the checks
/// entirely.
QueueChoice choose_queue(const SearchProblem& problem,
                         const SearchConfig& config);

/// The static label equal to `text` in the closed set SearchStats's
/// queue_kind and queue_fallback hold (Frontier::queue_kind,
/// choose_queue, KeyScale::reason), or nullptr.
inline const char* find_queue_label(std::string_view text) {
  for (const char* label : {"", "bucket", "heap", "focal", "granularity",
                            "bound-off-grid", "span"})
    if (text == label) return label;
  return nullptr;
}

}  // namespace optsched::core
