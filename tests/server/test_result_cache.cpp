// ResultCache — LRU semantics under a byte budget: hits refresh recency,
// inserts evict from the cold end, resident bytes never exceed the
// budget, and a zero budget degrades to a lookup counter.
#include "server/result_cache.hpp"

#include <gtest/gtest.h>

#include <string>

namespace optsched::server {
namespace {

SolveOutcome outcome_for(const std::string& spec) {
  SolveOutcome outcome;
  outcome.spec = spec;
  outcome.engine_spec = "astar";
  outcome.engine = "astar";
  outcome.makespan = 10.0;
  outcome.proved_optimal = true;
  outcome.termination = "optimal";
  outcome.schedule = {{0, 0, 0.0, 5.0}, {1, 0, 5.0, 10.0}};
  return outcome;
}

std::string key_for(const std::string& spec) {
  return ResultCache::key(spec, "astar");
}

/// Budget sized to hold exactly `n` of our uniform test entries.
std::size_t budget_for(int n) {
  const std::string spec = "spec-0";
  return static_cast<std::size_t>(n) *
         ResultCache::entry_bytes(key_for(spec), outcome_for(spec));
}

TEST(ResultCache, MissThenHitReturnsStoredOutcomeVerbatim) {
  ResultCache cache(1 << 20);
  const SolveOutcome outcome = outcome_for("spec-a");
  EXPECT_FALSE(cache.lookup(key_for("spec-a")).has_value());
  cache.insert(key_for("spec-a"), outcome);
  const auto hit = cache.lookup(key_for("spec-a"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, outcome);  // defaulted ==: every field, exact doubles

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(ResultCache, EvictsLeastRecentlyUsedUnderByteBudget) {
  // Room for exactly two entries (uniform sizes): inserting a third
  // evicts the coldest.
  ResultCache cache(budget_for(2));
  cache.insert(key_for("spec-0"), outcome_for("spec-0"));
  cache.insert(key_for("spec-1"), outcome_for("spec-1"));
  cache.insert(key_for("spec-2"), outcome_for("spec-2"));  // evicts spec-0

  EXPECT_FALSE(cache.lookup(key_for("spec-0")).has_value());
  EXPECT_TRUE(cache.lookup(key_for("spec-1")).has_value());
  EXPECT_TRUE(cache.lookup(key_for("spec-2")).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_LE(cache.stats().bytes, budget_for(2));
}

TEST(ResultCache, LookupRefreshesRecency) {
  ResultCache cache(budget_for(2));
  cache.insert(key_for("spec-0"), outcome_for("spec-0"));
  cache.insert(key_for("spec-1"), outcome_for("spec-1"));
  // Touch spec-0 so spec-1 becomes the eviction victim.
  EXPECT_TRUE(cache.lookup(key_for("spec-0")).has_value());
  cache.insert(key_for("spec-2"), outcome_for("spec-2"));

  EXPECT_TRUE(cache.lookup(key_for("spec-0")).has_value());
  EXPECT_FALSE(cache.lookup(key_for("spec-1")).has_value());
  EXPECT_TRUE(cache.lookup(key_for("spec-2")).has_value());
}

TEST(ResultCache, DuplicateInsertRefreshesInPlace) {
  ResultCache cache(budget_for(2));
  cache.insert(key_for("spec-0"), outcome_for("spec-0"));
  cache.insert(key_for("spec-0"), outcome_for("spec-0"));
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.insertions, 1u);  // refresh, not a second entry
  EXPECT_EQ(stats.bytes,
            ResultCache::entry_bytes(key_for("spec-0"),
                                     outcome_for("spec-0")));
}

TEST(ResultCache, ResidentKeyKeepsItsFirstOutcome) {
  // Two solves of one key (concurrent misses, say) may differ in their
  // run class; every hit must replay the first one stored.
  ResultCache cache(1 << 20);
  const std::string key = key_for("spec-0");
  SolveOutcome first = outcome_for("spec-0");
  first.stats.search.elapsed_seconds = 0.25;
  SolveOutcome second = outcome_for("spec-0");
  second.stats.search.elapsed_seconds = 0.5;
  second.engine = "a-longer-engine-name";  // a different entry size, too
  cache.insert(key, first);
  const CacheStats before = cache.stats();
  cache.insert(key, second);
  const CacheStats after = cache.stats();
  EXPECT_EQ(after.bytes, before.bytes);
  EXPECT_EQ(after.insertions, before.insertions);
  EXPECT_EQ(after.entries, 1u);
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, first);
}

TEST(ResultCache, ReinsertRefreshesRecency) {
  // Room for two entries: re-inserting spec-0 makes spec-1 the coldest.
  ResultCache cache(budget_for(2));
  cache.insert(key_for("spec-0"), outcome_for("spec-0"));
  cache.insert(key_for("spec-1"), outcome_for("spec-1"));
  cache.insert(key_for("spec-0"), outcome_for("spec-0"));
  cache.insert(key_for("spec-2"), outcome_for("spec-2"));  // evicts spec-1
  EXPECT_TRUE(cache.lookup(key_for("spec-0")).has_value());
  EXPECT_FALSE(cache.lookup(key_for("spec-1")).has_value());
}

TEST(ResultCache, EntryLargerThanWholeBudgetIsRefused) {
  ResultCache cache(16);  // smaller than any real entry
  cache.insert(key_for("spec-0"), outcome_for("spec-0"));
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
  EXPECT_FALSE(cache.lookup(key_for("spec-0")).has_value());
}

TEST(ResultCache, ZeroBudgetDisablesStorageButCountsLookups) {
  ResultCache cache(0);
  cache.insert(key_for("spec-0"), outcome_for("spec-0"));
  EXPECT_FALSE(cache.lookup(key_for("spec-0")).has_value());
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.lookups, 1u);
  EXPECT_EQ(stats.byte_budget, 0u);
}

TEST(ResultCache, KeySeparatorKeepsHalvesApart) {
  // spec "a\nb" + engine "c" must not collide with spec "a" + engine
  // "b\nc" — the '\n' separator is safe because canonical spec lines and
  // engine specs are single-line by construction; this documents the
  // assumption.
  EXPECT_NE(ResultCache::key("a", "b"), ResultCache::key("a b", ""));
  EXPECT_EQ(ResultCache::key("a", "b"), "a\nb");
}

TEST(ResultCache, ManyInsertionsStayWithinBudget) {
  ResultCache cache(budget_for(3));
  for (int i = 0; i < 100; ++i) {
    const std::string spec = "spec-" + std::to_string(i);
    cache.insert(key_for(spec), outcome_for(spec));
    EXPECT_LE(cache.stats().bytes, budget_for(3));
  }
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 100u);
  EXPECT_EQ(stats.evictions, 100u - stats.entries);
  // The most recent entries survive.
  EXPECT_TRUE(cache.lookup(key_for("spec-99")).has_value());
  EXPECT_FALSE(cache.lookup(key_for("spec-0")).has_value());
}

}  // namespace
}  // namespace optsched::server
