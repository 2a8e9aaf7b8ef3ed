#include "core/bucket_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "core/frontier.hpp"
#include "core/open_list.hpp"
#include "core/problem.hpp"
#include "dag/graph.hpp"
#include "machine/machine.hpp"
#include "util/rng.hpp"

namespace optsched::core {
namespace {

using machine::Machine;

KeyScale grid(int shift) {
  KeyScale ks;
  ks.exact = true;
  ks.shift = shift;
  ks.scale = std::ldexp(1.0, shift);
  return ks;
}

TEST(BucketQueue, PopsInFOrder) {
  BucketQueue q(grid(0), 100.0);
  q.push({3.0, 0.0, 1});
  q.push({1.0, 0.0, 2});
  q.push({2.0, 0.0, 3});
  EXPECT_EQ(q.pop().index, 2u);
  EXPECT_EQ(q.pop().index, 3u);
  EXPECT_EQ(q.pop().index, 1u);
  EXPECT_TRUE(q.empty());
}

TEST(BucketQueue, TiesPreferLargerGThenSmallerIndex) {
  BucketQueue q(grid(0), 100.0);
  q.push({5.0, 1.0, 1});
  q.push({5.0, 4.0, 2});
  q.push({5.0, 4.0, 7});
  q.push({5.0, 2.0, 3});
  EXPECT_EQ(q.pop().index, 2u);  // deepest first, ties by smallest index
  EXPECT_EQ(q.pop().index, 7u);
  EXPECT_EQ(q.pop().index, 3u);
  EXPECT_EQ(q.pop().index, 1u);
}

TEST(BucketQueue, FractionalGridKeysAreExact) {
  // shift 2: grid step 0.25 — the f values of a speeds={1,2,4} machine.
  BucketQueue q(grid(2), 16.0);
  q.push({1.25, 0.0, 0});
  q.push({1.0, 0.0, 1});
  q.push({1.5, 0.0, 2});
  EXPECT_DOUBLE_EQ(q.top().f, 1.0);
  EXPECT_EQ(q.pop().index, 1u);
  EXPECT_DOUBLE_EQ(q.pop().f, 1.25);
  EXPECT_DOUBLE_EQ(q.pop().f, 1.5);
}

/// The load-bearing property: same push sequence => same pop sequence as
/// the 4-ary heap, bit for bit, including both tie-break levels.
TEST(BucketQueue, PopSequenceMatchesOpenListExactly) {
  util::Rng rng(17);
  OpenList heap;
  BucketQueue bucket(grid(1), 512.0);
  for (int i = 0; i < 5000; ++i) {
    const OpenEntry e{static_cast<double>(rng.uniform_u64(0, 1000)) / 2.0,
                      static_cast<double>(rng.uniform_u64(0, 8)),
                      static_cast<StateIndex>(i)};
    heap.push(e);
    bucket.push(e);
  }
  ASSERT_EQ(heap.size(), bucket.size());
  while (!heap.empty()) {
    const OpenEntry a = heap.pop();
    const OpenEntry b = bucket.pop();
    ASSERT_EQ(a.index, b.index);
    ASSERT_EQ(a.f, b.f);
    ASSERT_EQ(a.g, b.g);
  }
  EXPECT_TRUE(bucket.empty());
}

/// Interleaved pushes and pops, including pushes below the cursor after
/// pops advanced it (the inconsistent-heuristic path).
TEST(BucketQueue, InterleavedPushPopMatchesOpenList) {
  util::Rng rng(99);
  OpenList heap;
  BucketQueue bucket(grid(0), 1000.0);
  StateIndex next = 0;
  for (int i = 0; i < 20000; ++i) {
    if (heap.empty() || rng.chance(0.6)) {
      const OpenEntry e{static_cast<double>(rng.uniform_u64(0, 1000)),
                        static_cast<double>(rng.uniform_u64(0, 50)), next++};
      heap.push(e);
      bucket.push(e);
    } else {
      const OpenEntry a = heap.pop();
      const OpenEntry b = bucket.pop();
      ASSERT_EQ(a.index, b.index);
      ASSERT_EQ(a.f, b.f);
    }
  }
}

TEST(BucketQueue, PushBatchEquivalentToSerialPushes) {
  util::Rng rng(31);
  BucketQueue batched(grid(0), 600.0), serial(grid(0), 600.0);
  std::vector<OpenEntry> batch;
  for (int i = 0; i < 200; ++i) {
    const OpenEntry e{static_cast<double>(rng.uniform_u64(0, 500)), 0.0,
                      static_cast<StateIndex>(i)};
    serial.push(e);
    batch.push_back(e);
  }
  batched.push_batch(batch);
  ASSERT_EQ(batched.size(), serial.size());
  while (!serial.empty()) EXPECT_EQ(batched.pop().index, serial.pop().index);
}

TEST(BucketQueue, PruneAtLeastDropsWholeBuckets) {
  BucketQueue q(grid(0), 200.0);
  for (int i = 0; i < 100; ++i)
    q.push({static_cast<double>(i), 0.0, static_cast<StateIndex>(i)});
  q.prune_at_least(50.0);
  EXPECT_EQ(q.size(), 50u);
  double last = -1;
  while (!q.empty()) {
    const double f = q.pop().f;
    EXPECT_GE(f, last);
    EXPECT_LT(f, 50.0);
    last = f;
  }
}

TEST(BucketQueue, PruneWithOffGridBoundRoundsUp) {
  BucketQueue q(grid(0), 20.0);
  q.push({3.0, 0.0, 0});
  q.push({4.0, 0.0, 1});
  // 3.5 is off the integer grid; everything at f >= 3.5 means f >= 4.
  q.prune_at_least(3.5);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_DOUBLE_EQ(q.pop().f, 3.0);
}

TEST(BucketQueue, ExtractSurplusDrainsWorstFirst) {
  BucketQueue q(grid(0), 200.0);
  q.push({1.0, 0.0, 0});
  q.push({100.0, 0.0, 1});
  q.push({2.0, 0.0, 2});
  q.push({50.0, 0.0, 3});
  const auto out = q.extract_surplus(2);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0].f, 100.0);
  EXPECT_DOUBLE_EQ(out[1].f, 50.0);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_DOUBLE_EQ(q.top().f, 1.0);
}

TEST(BucketQueue, ExtractSurplusProtectsNearBestBand) {
  // Everything within ~0.1% of the best f is never donated.
  BucketQueue q(grid(2), 4096.0);
  const double best = 1024.0;
  q.push({best, 0.0, 0});
  q.push({best + 0.25, 0.0, 1});  // inside the slack band
  q.push({best + 128.0, 0.0, 2});
  const auto out = q.extract_surplus(8);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].index, 2u);
  EXPECT_EQ(q.size(), 2u);
}

/// Regression (stale donation band): same contract as
/// OpenList::extract_surplus — the live incumbent bound prunes dead
/// buckets before the donation band is computed, so a tightened bound
/// cannot leak dead states into a donation.
TEST(BucketQueue, ExtractSurplusHonorsLiveBound) {
  BucketQueue q(grid(0), 200.0);
  q.push({1.0, 0.0, 0});
  q.push({10.0, 0.0, 1});
  q.push({30.0, 0.0, 2});  // dead under the tightened bound
  q.push({40.0, 0.0, 3});  // dead under the tightened bound
  const auto out = q.extract_surplus(4, 25.0);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].f, 10.0);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_DOUBLE_EQ(q.top().f, 1.0);
}

TEST(BucketQueue, ExtractSurplusAllNearBestDonatesNothing) {
  BucketQueue q(grid(0), 100.0);
  for (int i = 0; i < 5; ++i)
    q.push({5.0, static_cast<double>(i), static_cast<StateIndex>(i)});
  EXPECT_TRUE(q.extract_surplus(3).empty());
  EXPECT_EQ(q.size(), 5u);
}

TEST(BucketQueue, PeakSpanTracksWidestOccupiedRange) {
  BucketQueue q(grid(0), 1000.0);
  q.push({10.0, 0.0, 0});
  EXPECT_EQ(q.peak_span(), 1u);
  q.push({14.0, 0.0, 1});
  EXPECT_EQ(q.peak_span(), 5u);  // keys 10..14 inclusive
  q.pop();
  q.pop();
  q.push({500.0, 0.0, 2});  // span resets low, peak stays latched
  EXPECT_EQ(q.peak_span(), 5u);
}

TEST(BucketQueue, ClearResets) {
  BucketQueue q(grid(0), 100.0);
  q.push({7.0, 0.0, 0});
  q.push({3.0, 0.0, 1});
  q.clear();
  EXPECT_TRUE(q.empty());
  q.push({5.0, 0.0, 2});
  EXPECT_EQ(q.pop().index, 2u);
}

/// memory_bytes() is a running sum; after every kind of mutation it must
/// equal a from-scratch recount, on both sides of a move. The same op
/// sequence drives a core::Frontier in heap mode and one in bucket mode:
/// every output must match, extract_surplus and extract_best included.
TEST(BucketQueue, MemoryBytesMatchesRecount) {
  util::Rng rng(4242);
  BucketQueue q(grid(1), 400.0);
  Frontier heap(grid(1), QueueChoice{}, 0.0);
  Frontier bucket(grid(1), QueueChoice{true, "", 400.0}, 0.0);
  EXPECT_STREQ(heap.queue_kind(), "heap");
  EXPECT_STREQ(bucket.queue_kind(), "bucket");
  const std::size_t empty_bytes = q.memory_bytes();
  EXPECT_EQ(empty_bytes, q.recount_memory_bytes());
  StateIndex next = 0;
  const auto random_entry = [&] {
    return OpenEntry{static_cast<double>(rng.uniform_u64(0, 800)) / 2.0,
                     static_cast<double>(rng.uniform_u64(0, 20)), next++};
  };
  const auto push_both = [&](const OpenEntry& e) {
    heap.push({e.f, e.g, 0.0, e.index});
    bucket.push({e.f, e.g, 0.0, e.index});
  };
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t op = rng.uniform_u64(0, 99);
    if (op < 60 || q.empty() || heap.empty()) {
      const OpenEntry e = random_entry();
      q.push(e);
      push_both(e);
    } else if (op < 90) {
      q.pop();
      const OpenEntry a = heap.pop();
      const OpenEntry b = bucket.pop();
      ASSERT_EQ(a.index, b.index) << "step " << i;
      ASSERT_EQ(a.f, b.f);
      ASSERT_EQ(a.g, b.g);
    } else if (op < 94) {
      const double bound =
          static_cast<double>(rng.uniform_u64(100, 800)) / 2.0;
      q.prune_at_least(bound);
      const std::size_t count = rng.uniform_u64(1, 64);
      ASSERT_EQ(heap.extract_surplus(count, bound),
                bucket.extract_surplus(count, bound))
          << "step " << i;
    } else if (op < 97) {
      const std::size_t count = rng.uniform_u64(1, 64);
      q.extract_surplus(count);
      ASSERT_EQ(heap.extract_surplus(count), bucket.extract_surplus(count))
          << "step " << i;
      ASSERT_EQ(heap.extract_best(count / 8), bucket.extract_best(count / 8))
          << "step " << i;
    } else if (op < 98) {
      q.clear();
      heap.clear();
      bucket.clear();
    } else if (op < 99) {
      std::vector<Frontier::Entry> batch;
      for (std::uint64_t n = rng.uniform_u64(1, 40); n > 0; --n) {
        const OpenEntry e = random_entry();
        batch.push_back({e.f, e.g, 0.0, e.index});
      }
      heap.push_batch(batch);
      bucket.push_batch(batch);
      BucketQueue moved(std::move(q));
      ASSERT_EQ(q.memory_bytes(), q.recount_memory_bytes());
      EXPECT_EQ(q.memory_bytes(), 0u);
      q = std::move(moved);
      ASSERT_EQ(moved.memory_bytes(), moved.recount_memory_bytes());
    } else {
      BucketQueue other(grid(1), 400.0);
      other.push(random_entry());
      q = std::move(other);  // drops q's buckets, takes other's
      ASSERT_EQ(other.memory_bytes(), other.recount_memory_bytes());
    }
    ASSERT_EQ(q.memory_bytes(), q.recount_memory_bytes()) << "step " << i;
    ASSERT_EQ(heap.size(), bucket.size()) << "step " << i;
    ASSERT_EQ(heap.min_f(), bucket.min_f()) << "step " << i;
    ASSERT_EQ(heap.memory_bytes(), heap.recount_memory_bytes());
    ASSERT_EQ(bucket.memory_bytes(), bucket.recount_memory_bytes());
  }
  EXPECT_GT(q.memory_bytes(), empty_bytes);  // bucket storage is counted
  EXPECT_GT(bucket.peak_span(), 0u);
}

/// FOCAL storage is counted at its peak, like the heap's capacity and the
/// bucket queue's running sum: popping never lowers memory_bytes(), so the
/// end-of-search value a solve reports is the peak.
TEST(BucketQueue, FocalMemoryBytesNeverFalls) {
  Frontier focal(grid(1), QueueChoice{}, 0.2);
  ASSERT_STREQ(focal.queue_kind(), "focal");
  constexpr int kN = 100;
  for (int i = 0; i < kN; ++i) {
    const double f = static_cast<double>(i % 17);
    focal.push({f, f / 2, f / 2, static_cast<StateIndex>(i)});
    ASSERT_EQ(focal.memory_bytes(), focal.recount_memory_bytes());
  }
  const std::size_t peak = focal.memory_bytes();
  EXPECT_GT(peak, 0u);
  for (int i = 0; i < kN - 1; ++i) {
    focal.pop();
    ASSERT_EQ(focal.memory_bytes(), peak) << "pop " << i;
    ASSERT_EQ(focal.memory_bytes(), focal.recount_memory_bytes());
  }
  focal.clear();
  EXPECT_EQ(focal.memory_bytes(), peak);
}

/// The FOCAL rule, restated over a sorted vector: among the first
/// Frontier::kFocalScanCap entries in (f, -g, index) order with
/// f <= (1+eps)*fmin + 1e-12, the smallest h, ties on larger g, then the
/// earlier entry.
Frontier::Entry focal_reference_pop(std::vector<Frontier::Entry>& open,
                                    double eps) {
  std::sort(open.begin(), open.end(),
            [](const Frontier::Entry& a, const Frontier::Entry& b) {
              if (a.f != b.f) return a.f < b.f;
              if (a.g != b.g) return a.g > b.g;
              return a.index < b.index;
            });
  const double bound = (1.0 + eps) * open.front().f + 1e-12;
  std::size_t chosen = 0;
  for (std::size_t i = 0; i < open.size() && open[i].f <= bound &&
                          i < static_cast<std::size_t>(Frontier::kFocalScanCap);
       ++i) {
    if (open[i].h < open[chosen].h ||
        (open[i].h == open[chosen].h && open[i].g > open[chosen].g))
      chosen = i;
  }
  const Frontier::Entry out = open[chosen];
  open.erase(open.begin() + static_cast<std::ptrdiff_t>(chosen));
  return out;
}

TEST(Frontier, FocalPopSequenceFollowsTheRule) {
  util::Rng rng(2024);
  const double eps = 0.2;
  Frontier focal(grid(0), QueueChoice{false, "focal", 0.0}, eps);
  EXPECT_STREQ(focal.queue_kind(), "focal");
  EXPECT_STREQ(focal.queue_fallback(), "focal");
  std::vector<Frontier::Entry> reference;
  // Coarse f, g and h values: wide FOCAL prefixes (past the scan cap),
  // and ties on f, on h and on both.
  for (StateIndex i = 0; i < 600; ++i) {
    const double g = static_cast<double>(rng.uniform_u64(0, 10));
    const double h = static_cast<double>(rng.uniform_u64(0, 12));
    const Frontier::Entry e{g + h + 40.0, g, h + 40.0, i};
    focal.push(e);
    reference.push_back(e);
  }
  while (!reference.empty()) {
    const double fmin = focal.min_f();
    const Frontier::Entry want = focal_reference_pop(reference, eps);
    const OpenEntry got = focal.pop();
    ASSERT_EQ(got.index, want.index) << reference.size() << " left";
    ASSERT_EQ(got.f, want.f);
    ASSERT_LE(got.f, (1.0 + eps) * fmin + 1e-12);
  }
  EXPECT_TRUE(focal.empty());
  EXPECT_EQ(focal.min_f(), std::numeric_limits<double>::infinity());
}

/// A state's f lives only in its frontier entry, so whatever leaves the
/// frontier for another PPE must carry it: the entries extract_surplus
/// and extract_best return hold the f and g pushed for their index, the
/// FOCAL set's the h as well, and the heap's and the bucket queue's h is
/// f - g.
TEST(Frontier, ExtractedEntriesCarryThePushedValues) {
  Frontier heap(grid(1), QueueChoice{}, 0.0);
  Frontier bucket(grid(1), QueueChoice{true, "", 400.0}, 0.0);
  Frontier focal(grid(1), QueueChoice{}, 0.2);
  util::Rng rng(31);
  std::vector<Frontier::Entry> pushed;
  for (StateIndex i = 0; i < 300; ++i) {
    const double g = static_cast<double>(rng.uniform_u64(0, 200)) / 2.0;
    const double h = static_cast<double>(rng.uniform_u64(0, 200)) / 2.0 + 0.25;
    // f stays on the bucket queue's 0.5 grid; h is off it, so h != f - g.
    pushed.push_back({g + h + 0.25, g, h, i});
  }
  for (Frontier* fr : {&heap, &bucket, &focal}) {
    for (const Frontier::Entry& e : pushed) fr->push(e);
    const bool keeps_h = fr == &focal;
    std::size_t seen = 0;
    const auto check = [&](const std::vector<Frontier::Entry>& out) {
      for (const Frontier::Entry& e : out) {
        const Frontier::Entry& want = pushed.at(e.index);
        EXPECT_EQ(e.f, want.f) << fr->queue_kind() << " index " << e.index;
        EXPECT_EQ(e.g, want.g) << fr->queue_kind() << " index " << e.index;
        EXPECT_EQ(e.h, keeps_h ? want.h : e.f - e.g)
            << fr->queue_kind() << " index " << e.index;
        ++seen;
      }
    };
    const auto surplus = fr->extract_surplus(40);
    EXPECT_FALSE(surplus.empty()) << fr->queue_kind();
    check(surplus);
    const auto best = fr->extract_best(25);
    EXPECT_EQ(best.size(), 25u) << fr->queue_kind();
    check(best);
    EXPECT_EQ(fr->size() + seen, pushed.size()) << fr->queue_kind();
  }
}

TEST(BucketQueue, AdmissibleRejectsBadScalesAndSpans) {
  KeyScale bad;
  bad.exact = false;
  EXPECT_FALSE(BucketQueue::admissible(bad, 10.0));

  const KeyScale unit = grid(0);
  EXPECT_TRUE(BucketQueue::admissible(unit, 100.0));
  EXPECT_FALSE(BucketQueue::admissible(unit, 100.5));  // off-grid bound
  // Span past kMaxBuckets.
  EXPECT_FALSE(BucketQueue::admissible(
      unit, static_cast<double>(BucketQueue::kMaxBuckets)));
  // A fine grid shrinks the representable span accordingly.
  EXPECT_FALSE(BucketQueue::admissible(grid(20), 1024.0));
  EXPECT_TRUE(BucketQueue::admissible(grid(10), 255.0));
}

// ---- key-scale derivation over real problems -----------------------------

dag::TaskGraph chain_graph(std::vector<double> weights, double comm) {
  dag::TaskGraph g;
  dag::NodeId prev = dag::kInvalidNode;
  for (const double w : weights) {
    const dag::NodeId n = g.add_node(w);
    if (prev != dag::kInvalidNode) g.add_edge(prev, n, comm);
    prev = n;
  }
  g.finalize();
  return g;
}

TEST(KeyScale, IntegerInstanceLandsOnCoarseGrid) {
  const SearchProblem problem(chain_graph({3.0, 5.0, 2.0}, 4.0),
                              Machine::fully_connected(2));
  const KeyScale& ks = problem.key_scale();
  EXPECT_TRUE(ks.exact);
  EXPECT_DOUBLE_EQ(ks.pruned_f_bound, problem.upper_bound());
  EXPECT_TRUE(ks.on_grid(problem.upper_bound()));
  EXPECT_GE(ks.loose_f_bound, ks.pruned_f_bound);
}

TEST(KeyScale, PowerOfTwoSpeedsStayExact) {
  const SearchProblem problem(chain_graph({3.0, 5.0, 2.0}, 4.0),
                              Machine::fully_connected(3, {1.0, 2.0, 4.0}));
  const KeyScale& ks = problem.key_scale();
  EXPECT_TRUE(ks.exact);
  EXPECT_GE(ks.shift, 2);        // 2/4 = 0.5, 5/4 = 1.25 need 2^-2
  EXPECT_TRUE(ks.on_grid(1.25));
  EXPECT_FALSE(ks.on_grid(1.0 / 3.0));
}

/// g travels as a grid key: on a fine grid (shift >= 2, exec times like
/// 56.25) every g must pop back bit-identical, in the heap's order.
TEST(BucketQueue, FineGridGPopsBackBitIdentical) {
  const dag::TaskGraph g = chain_graph({225.0, 45.0, 9.0, 3.0}, 5.0);
  const Machine m = Machine::fully_connected(3, {1.0, 2.0, 4.0});
  const SearchProblem problem(g, m);
  const KeyScale& ks = problem.key_scale();
  ASSERT_TRUE(ks.exact);
  ASSERT_GE(ks.shift, 2);
  // The instance's exec times (225/4 = 56.25, 9/4 = 2.25, 3/4 = 0.75 ...):
  // sums of them are on its grid, as every g and h a search builds is.
  std::vector<double> atoms;
  for (dag::NodeId n = 0; n < g.num_nodes(); ++n)
    for (machine::ProcId q = 0; q < m.num_procs(); ++q)
      atoms.push_back(m.exec_time(g.weight(n), q));
  const double max_atom = *std::max_element(atoms.begin(), atoms.end());
  util::Rng rng(2718);
  const auto on_grid_sum = [&](std::uint64_t terms) {
    double v = 0.0;
    for (; terms > 0; --terms)
      v += atoms[rng.uniform_u64(0, atoms.size() - 1)];
    return v;
  };

  OpenList heap;
  BucketQueue bucket(ks, 8 * max_atom);
  for (int i = 0; i < 5000; ++i) {
    const double gv = on_grid_sum(rng.uniform_u64(0, 4));
    const OpenEntry e{gv + on_grid_sum(rng.uniform_u64(0, 4)), gv,
                      static_cast<StateIndex>(i)};
    heap.push(e);
    bucket.push(e);
  }
  while (!heap.empty()) {
    const OpenEntry want = heap.pop();
    const OpenEntry got = bucket.pop();
    ASSERT_EQ(got.index, want.index);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.f),
              std::bit_cast<std::uint64_t>(want.f));
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.g),
              std::bit_cast<std::uint64_t>(want.g));
  }
  EXPECT_TRUE(bucket.empty());
}

TEST(BucketQueueDeathTest, OffGridGAbortsAtPush) {
  BucketQueue q(grid(2), 100.0);
  q.push({4.0, 0.25, 0});  // on the 2^-2 grid
  EXPECT_DEATH(q.push({4.0, 0.125, 1}), "assertion failed");
  EXPECT_DEATH(q.push({4.0, 1.0 / 3.0, 1}), "assertion failed");
  EXPECT_DEATH(q.push({4.0, -1.0, 1}), "assertion failed");
}

TEST(KeyScale, SpeedThreeIsNotRepresentable) {
  // 1/3 repeats in binary: no power-of-two grid holds it.
  const SearchProblem problem(chain_graph({3.0, 5.0, 2.0}, 4.0),
                              Machine::fully_connected(2, {1.0, 3.0}));
  const KeyScale& ks = problem.key_scale();
  EXPECT_FALSE(ks.exact);
  EXPECT_STREQ(ks.reason, "granularity");
}

// ---- queue selection -----------------------------------------------------

TEST(ChooseQueue, AutoSelectsBucketOnRepresentableInstances) {
  const SearchProblem problem(chain_graph({3.0, 5.0, 2.0}, 4.0),
                              Machine::fully_connected(2));
  SearchConfig config;
  const QueueChoice choice = choose_queue(problem, config);
  EXPECT_TRUE(choice.use_bucket);
  EXPECT_STREQ(choice.fallback, "");
  EXPECT_DOUBLE_EQ(choice.max_f, problem.upper_bound());
}

TEST(ChooseQueue, AutoNeverSelectsBucketWhenScaleCheckFails) {
  const SearchProblem problem(chain_graph({3.0, 5.0, 2.0}, 4.0),
                              Machine::fully_connected(2, {1.0, 3.0}));
  SearchConfig config;
  const QueueChoice choice = choose_queue(problem, config);
  EXPECT_FALSE(choice.use_bucket);
  EXPECT_STREQ(choice.fallback, "granularity");
}

TEST(ChooseQueue, ExplicitHeapIsNotAFallback) {
  const SearchProblem problem(chain_graph({3.0, 5.0, 2.0}, 4.0),
                              Machine::fully_connected(2));
  SearchConfig config;
  config.queue = QueueSelect::kHeap;
  const QueueChoice choice = choose_queue(problem, config);
  EXPECT_FALSE(choice.use_bucket);
  EXPECT_STREQ(choice.fallback, "");
}

TEST(ChooseQueue, FocalSearchFallsBack) {
  const SearchProblem problem(chain_graph({3.0, 5.0, 2.0}, 4.0),
                              Machine::fully_connected(2));
  SearchConfig focal;
  focal.epsilon = 0.2;
  EXPECT_STREQ(choose_queue(problem, focal).fallback, "focal");
}

TEST(ChooseQueue, LooseBoundUsedWithoutUpperBoundPruning) {
  const SearchProblem problem(chain_graph({3.0, 5.0, 2.0}, 4.0),
                              Machine::fully_connected(2));
  SearchConfig config;
  config.prune = PruneConfig::none();
  const QueueChoice choice = choose_queue(problem, config);
  if (choice.use_bucket) {
    EXPECT_DOUBLE_EQ(choice.max_f, problem.key_scale().loose_f_bound);
  }
}

}  // namespace
}  // namespace optsched::core
