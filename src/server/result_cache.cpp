#include "server/result_cache.hpp"

namespace optsched::server {

std::size_t ResultCache::entry_bytes(const std::string& key,
                                     const SolveOutcome& outcome) {
  return sizeof(Entry) + key.size() + outcome.spec.size() +
         outcome.engine_spec.size() + outcome.engine.size() +
         outcome.termination.size() + outcome.stats.parallel_mode.size() +
         outcome.stats.expanded_per_ppe.size() * sizeof(std::uint64_t) +
         outcome.schedule.size() * sizeof(WirePlacement) +
         // the index entry stores the key a second time
         key.size() + sizeof(void*);
}

std::optional<SolveOutcome> ResultCache::lookup(const std::string& key) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++lookups_;
  const auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);  // move to MRU, iterators stay
  return it->second->outcome;
}

void ResultCache::insert(const std::string& key,
                         const SolveOutcome& outcome) {
  const std::size_t bytes = entry_bytes(key, outcome);
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // Resident: keep the first outcome stored under the key, so every hit
    // replays one cold solve. A later insert of the key (a concurrent miss
    // that finished second, a no_cache reference solve) only refreshes
    // recency.
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (bytes > budget_bytes_) return;  // would never fit; refuse
  evict_until_fits(bytes);
  lru_.push_front(Entry{key, outcome, bytes});
  index_.emplace(key, lru_.begin());
  bytes_ += bytes;
  ++insertions_;
}

void ResultCache::evict_until_fits(std::size_t incoming_bytes) {
  while (!lru_.empty() && bytes_ + incoming_bytes > budget_bytes_) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    ++evictions_;
  }
}

CacheStats ResultCache::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  CacheStats out;
  out.lookups = lookups_;
  out.hits = hits_;
  out.insertions = insertions_;
  out.evictions = evictions_;
  out.entries = lru_.size();
  out.bytes = bytes_;
  out.byte_budget = budget_bytes_;
  return out;
}

}  // namespace optsched::server
