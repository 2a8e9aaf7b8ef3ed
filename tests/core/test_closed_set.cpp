#include "core/closed_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace optsched::core {
namespace {

/// Key number `i` of a seeded sequence (never the zero sentinel).
util::Key128 key_of(std::uint64_t seed, std::uint64_t i) {
  const std::uint64_t lo = util::splitmix64(seed ^ (i * 0x9e3779b97f4a7c15ULL));
  return {lo, util::splitmix64(lo) | 1};
}

/// The expander's order: probe with the index the state would get, then
/// append it to the arena only when it was fresh.
bool insert_and_add(StateArena& arena, ClosedSet& set,
                    const util::Key128& key) {
  if (!set.insert(key, static_cast<StateIndex>(arena.size()))) return false;
  State s;
  s.sig = key;
  arena.add(s);
  return true;
}

TEST(ClosedSet, TagTwinsBothInsertAndEachReinsertIsRejected) {
  // Seeded birthday search for two keys with the same 32-bit tag and the
  // same home slot in a 16-slot table: value = tag << 4 | home, packed
  // with the key number in the low 20 bits.
  constexpr std::uint64_t kSeed = 22;
  constexpr std::uint64_t kKeys = std::uint64_t{1} << 20;
  std::vector<std::uint64_t> packed(kKeys);
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    const std::uint64_t h = util::key_hash(key_of(kSeed, i));
    packed[i] = ((h >> 32) << 4 | (h & 15)) << 20 | i;
  }
  std::sort(packed.begin(), packed.end());
  const auto twin = std::adjacent_find(
      packed.begin(), packed.end(),
      [](std::uint64_t a, std::uint64_t b) { return a >> 20 == b >> 20; });
  ASSERT_NE(twin, packed.end()) << "no tag twins among the seeded keys";
  const util::Key128 a = key_of(kSeed, twin[0] & (kKeys - 1));
  const util::Key128 b = key_of(kSeed, twin[1] & (kKeys - 1));
  ASSERT_FALSE(a == b);
  ASSERT_EQ(util::key_hash(a) >> 32, util::key_hash(b) >> 32);

  StateArena arena;
  ClosedSet set(arena, 1);
  ASSERT_EQ(set.memory_bytes(), 16 * sizeof(std::uint64_t));
  EXPECT_TRUE(insert_and_add(arena, set, a));
  EXPECT_FALSE(set.contains(b));  // tag matches, the arena check does not
  EXPECT_TRUE(insert_and_add(arena, set, b));
  EXPECT_FALSE(insert_and_add(arena, set, a));
  EXPECT_FALSE(insert_and_add(arena, set, b));
  EXPECT_TRUE(set.contains(a));
  EXPECT_TRUE(set.contains(b));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(arena.size(), 2u);
}

TEST(ClosedSet, EveryKeyStaysFoundAcrossEveryDoubling) {
  constexpr std::uint64_t kSeed = 7;
  constexpr std::size_t kEntries = std::size_t{1} << 20;
  StateArena arena;
  ClosedSet set(arena);
  std::size_t slots = 32;  // 16 expected entries at load <= 0.7
  ASSERT_EQ(set.memory_bytes(), slots * 8);
  int doublings = 0;
  for (std::size_t n = 0; n < kEntries; ++n) {
    const std::size_t before = set.memory_bytes();
    if ((n + 1) * 10 >= slots * 7) slots *= 2;  // the documented growth rule
    ASSERT_TRUE(insert_and_add(arena, set, key_of(kSeed, n))) << n;
    ASSERT_EQ(set.memory_bytes(), slots * 8) << "after " << n + 1;
    if (set.memory_bytes() != before) {
      ++doublings;  // this insert rebuilt the table: every key is found
      for (std::size_t i = 0; i <= n; ++i)
        ASSERT_TRUE(set.contains(key_of(kSeed, i))) << i << " of " << n;
    }
  }
  EXPECT_EQ(slots, std::size_t{1} << 21);
  EXPECT_EQ(doublings, 16);  // 32 -> 2^21 slots
  EXPECT_EQ(set.size(), kEntries);
  for (std::uint64_t i = 0; i < 1000; ++i)
    EXPECT_FALSE(set.contains(key_of(kSeed + 1, i)));
}

TEST(ClosedSet, WarmReseedByExplicitIndexMatchesColdBuild) {
  constexpr std::uint64_t kSeed = 3;
  StateArena arena;
  ClosedSet cold(arena);
  // Every fifth key repeats an earlier one: the duplicate is dropped and
  // never enters the arena, as in the expander.
  for (std::uint64_t i = 0; i < 5000; ++i) {
    const bool repeat = i % 5 == 4;
    EXPECT_EQ(insert_and_add(arena, cold, key_of(kSeed, repeat ? i - 1 : i)),
              !repeat);
  }
  ASSERT_EQ(arena.size(), 4000u);

  ClosedSet warm(arena);
  for (StateIndex i = 0; i < arena.size(); ++i)
    EXPECT_TRUE(warm.insert(arena.sig(i), i)) << i;
  EXPECT_EQ(warm.size(), cold.size());
  EXPECT_EQ(warm.memory_bytes(), cold.memory_bytes());

  // Both go on identically from the re-seed.
  for (std::uint64_t i = 0; i < 20000; ++i) {
    const util::Key128 k = key_of(kSeed, i);
    const auto next = static_cast<StateIndex>(arena.size());
    const bool fresh = cold.insert(k, next);
    ASSERT_EQ(warm.insert(k, next), fresh) << i;
    if (fresh) {
      State s;
      s.sig = k;
      arena.add(s);
    }
  }
  EXPECT_EQ(warm.size(), cold.size());
  EXPECT_EQ(warm.memory_bytes(), cold.memory_bytes());
  for (std::uint64_t i = 0; i < 25000; ++i) {
    const util::Key128 k = key_of(i < 20000 ? kSeed : kSeed + 1, i);
    EXPECT_EQ(warm.contains(k), cold.contains(k)) << i;
    EXPECT_EQ(cold.contains(k), i < 20000) << i;
  }
}

TEST(ClosedSetDeathTest, ZeroKeyAborts) {
  StateArena arena;
  ClosedSet set(arena);
  EXPECT_DEATH(set.insert(util::Key128{0, 0}, 0), "assertion failed");
}

}  // namespace
}  // namespace optsched::core
