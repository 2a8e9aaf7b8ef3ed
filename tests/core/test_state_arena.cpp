#include "core/state.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <utility>

namespace optsched::core {
namespace {

constexpr std::size_t kRecordBytes = sizeof(HotState) + sizeof(ColdState);

/// A record whose every field is derived from `i`, so a read-back can tell
/// which add it came from.
State make_state(std::uint32_t i) {
  State s;
  s.sig = {0x9e3779b97f4a7c15ull * (i + 1), i};
  s.g = 1.0 + i;
  s.h = 0.25 * (i % 7);
  s.parent = i == 0 ? kNoParent : i - 1;
  s.node = i % kMaxArenaNodes;
  s.proc = i % kMaxArenaProcs;
  s.depth = i % 4096;
  return s;
}

void expect_round_trip(const StateArena& arena, std::uint32_t i) {
  const State s = make_state(i);
  const HotState& h = arena.hot(i);
  EXPECT_EQ(h.g, s.g) << "index " << i;
  EXPECT_EQ(h.parent, s.parent) << "index " << i;
  EXPECT_EQ(h.node(), s.node) << "index " << i;
  EXPECT_EQ(h.proc(), s.proc) << "index " << i;
  EXPECT_EQ(h.depth(), s.depth) << "index " << i;
  EXPECT_EQ(arena.sig(i), s.sig) << "index " << i;
}

/// Bytes of the segments an arena must hold to store `n` states: segment
/// k holds 1024 << k, and segments are added only when the last is full.
std::size_t segment_bytes_for(std::size_t n) {
  std::size_t bytes = 0;
  for (std::size_t k = 0, held = 0; held < n; ++k) {
    held += StateArena::kFirstSegment << k;
    bytes += (StateArena::kFirstSegment << k) * kRecordBytes;
  }
  return bytes;
}

TEST(StateArena, EmptyArenaAllocatesNothing) {
  const StateArena arena;
  EXPECT_EQ(arena.size(), 0u);
  EXPECT_EQ(arena.memory_bytes(), 0u);
}

TEST(StateArena, AddressesAreStableAcrossGrowth) {
  StateArena arena;
  arena.add(make_state(0));
  const HotState* hot0 = &arena.hot(0);
  const util::Key128* sig0 = &arena.sig(0);
  for (std::uint32_t i = 1; i < 1'000'000; ++i) arena.add(make_state(i));
  EXPECT_EQ(&arena.hot(0), hot0);
  EXPECT_EQ(&arena.sig(0), sig0);
  expect_round_trip(arena, 0);
}

TEST(StateArena, FieldsRoundTripAtEverySegmentBoundary) {
  StateArena arena;
  constexpr std::uint32_t kStates = 300'000;
  for (std::uint32_t i = 0; i < kStates; ++i) arena.add(make_state(i));
  // Segment k spans [1024 * (2^k - 1), 1024 * (2^(k+1) - 1)): check both
  // sides of every boundary (1023 | 1024, 3071 | 3072, ...).
  for (std::size_t first = 0, k = 0; first < kStates; ++k) {
    if (first > 0) expect_round_trip(arena, first - 1);
    expect_round_trip(arena, first);
    first += StateArena::kFirstSegment << k;
  }
  expect_round_trip(arena, kStates - 1);
}

TEST(StateArena, TruncateThenAddReusesIndices) {
  StateArena arena;
  for (std::uint32_t i = 0; i < 5000; ++i) arena.add(make_state(i));
  const std::size_t bytes = arena.memory_bytes();

  // Cut inside segment 1 (IDA*'s backtrack, dist's shipped children), then
  // append again: indices restart at the cut, contents below it survive.
  arena.truncate(2000);
  EXPECT_EQ(arena.size(), 2000u);
  EXPECT_EQ(arena.memory_bytes(), bytes);  // segments stay allocated
  for (std::uint32_t i = 0; i < 2000; i += 97) expect_round_trip(arena, i);
  expect_round_trip(arena, 1999);

  State fresh = make_state(2000);
  fresh.g = -7.0;
  EXPECT_EQ(arena.add(fresh), 2000u);
  EXPECT_EQ(arena.hot(2000).g, -7.0);
  for (std::uint32_t i = 2001; i < 6000; ++i)
    EXPECT_EQ(arena.add(make_state(i)), i);
  expect_round_trip(arena, 1999);
  expect_round_trip(arena, 5999);

  // A cut at or above the size is a no-op.
  arena.truncate(arena.size() + 10);
  EXPECT_EQ(arena.size(), 6000u);
}

TEST(StateArena, MovedFromArenaIsEmpty) {
  StateArena a;
  for (std::uint32_t i = 0; i < 5000; ++i) a.add(make_state(i));
  const std::size_t bytes = a.memory_bytes();

  StateArena b = std::move(a);
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(a.memory_bytes(), 0u);
  EXPECT_EQ(b.size(), 5000u);
  EXPECT_EQ(b.memory_bytes(), bytes);
  expect_round_trip(b, 4999);

  // Move-assignment releases the target's own segments and empties the
  // source; the emptied source is usable again.
  StateArena c;
  c.add(make_state(0));
  c = std::move(b);
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.memory_bytes(), 0u);
  EXPECT_EQ(c.size(), 5000u);
  expect_round_trip(c, 3072);
  EXPECT_EQ(b.add(make_state(0)), 0u);
  expect_round_trip(b, 0);
}

TEST(StateArena, MemoryBytesIsTheSummedSegmentBytes) {
  StateArena arena;
  for (std::uint32_t i = 0; i < 200'000; ++i) {
    arena.add(make_state(i));
    const std::size_t n = arena.size();
    if (n % 997 == 0 || n % 1024 <= 1 || (n + 1) % 1024 == 0) {
      ASSERT_EQ(arena.memory_bytes(), segment_bytes_for(n)) << "size " << n;
      ASSERT_EQ(arena.hot_memory_bytes() * sizeof(ColdState),
                arena.cold_memory_bytes() * sizeof(HotState));
    }
  }
  arena.clear();
  EXPECT_EQ(arena.size(), 0u);
  EXPECT_EQ(arena.memory_bytes(), segment_bytes_for(200'000));
}

TEST(StateArena, SmallArenaHoldsOneSegmentPerRecordKind) {
  StateArena arena;
  arena.add(make_state(0));
  EXPECT_EQ(arena.hot_memory_bytes(),
            StateArena::kFirstSegment * sizeof(HotState));
  EXPECT_EQ(arena.cold_memory_bytes(),
            StateArena::kFirstSegment * sizeof(ColdState));
  for (std::uint32_t i = 1; i < 1024; ++i) arena.add(make_state(i));
  EXPECT_EQ(arena.memory_bytes(), StateArena::kFirstSegment * kRecordBytes);
  arena.add(make_state(1024));  // the 1025th state opens segment 1
  EXPECT_EQ(arena.memory_bytes(),
            3 * StateArena::kFirstSegment * kRecordBytes);
}

TEST(StateArenaDeathTest, ReadPastTheSizeAborts) {
  StateArena arena;
  for (std::uint32_t i = 0; i < 10; ++i) arena.add(make_state(i));
  arena.truncate(5);
  EXPECT_DEATH((void)arena.hot(5), "assertion failed");
  EXPECT_DEATH((void)arena.sig(7), "assertion failed");
}

}  // namespace
}  // namespace optsched::core
