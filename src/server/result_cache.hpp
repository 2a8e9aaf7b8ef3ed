// Sound LRU result cache for the solver daemon.
//
// Key: `canonical scenario spec line + '\n' + canonical engine spec`.
// PR 4's ScenarioSpec canonical serialization rematerializes
// bit-identical instances and api::canonical_engine_spec normalizes the
// engine configuration, so equal keys denote bit-identical solves — a
// hit can return the stored SolveOutcome verbatim and still bit-agree
// with a fresh search (the soundness argument is spelled out in
// DESIGN.md §7; the daemon additionally only inserts *deterministic*
// outcomes, see daemon.cpp's cacheable()).
//
// Eviction is strict LRU under a byte budget: each entry is charged its
// key, placement vector, and string payloads; inserting evicts from the
// cold end until the new entry fits, and an entry larger than the whole
// budget is refused outright — resident bytes never exceed the budget.
// All operations are serialized by one mutex (lookups copy out under
// the lock; the daemon's hot path is the search, not the cache).
#pragma once

#include <cstddef>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "server/protocol.hpp"

namespace optsched::server {

class ResultCache {
 public:
  /// budget_bytes == 0 disables caching entirely (every lookup misses,
  /// every insert is dropped) but still counts lookups.
  explicit ResultCache(std::size_t budget_bytes)
      : budget_bytes_(budget_bytes) {}

  /// Compose the cache key from already-canonicalized halves.
  static std::string key(const std::string& canonical_spec,
                         const std::string& canonical_engine_spec) {
    return canonical_spec + '\n' + canonical_engine_spec;
  }

  /// Accounted size of one entry (key, strings, stats, placements).
  static std::size_t entry_bytes(const std::string& key,
                                 const SolveOutcome& outcome);

  /// Copy out the entry and mark it most-recently-used; nullopt on miss.
  std::optional<SolveOutcome> lookup(const std::string& key);

  /// Insert an entry, evicting least-recently-used entries until the
  /// budget holds. No-op when the entry alone exceeds the budget. A key
  /// already resident keeps its stored outcome and only becomes the most
  /// recently used.
  void insert(const std::string& key, const SolveOutcome& outcome);

  CacheStats stats() const;

 private:
  struct Entry {
    std::string key;
    SolveOutcome outcome;
    std::size_t bytes = 0;
  };

  void evict_until_fits(std::size_t incoming_bytes);  // mu_ held

  const std::size_t budget_bytes_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  ///< front = most recent, back = eviction victim
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  std::size_t bytes_ = 0;
  std::uint64_t lookups_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t insertions_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace optsched::server
