// Open-addressing hash set of 128-bit keys.
//
// The parallel transports' SEEN sets (ring's PPE-local set, ws's sharded
// table, the dist worker and the wire send filter) store one 128-bit
// signature per key: their keys are not one arena's states, so they cannot
// use core::ClosedSet, the serial engines' CLOSED, which stores arena
// indices instead. std::unordered_set's node allocations dominate at
// millions of inserts, so this is a flat power-of-two table with linear
// probing and a max load factor of 0.7. Zero (0,0) is reserved as the
// empty sentinel; real signatures are never (0,0) by construction
// (core/signature.hpp mixes in a nonzero salt).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace optsched::util {

struct Key128 {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend bool operator==(const Key128& a, const Key128& b) noexcept {
    return a.lo == b.lo && a.hi == b.hi;
  }
  bool is_zero() const noexcept { return lo == 0 && hi == 0; }
};

/// Probe hash of a key: FlatSet128's home slot, and core::ClosedSet's home
/// slot (low bits) and tag (top 32 bits).
inline std::uint64_t key_hash(const Key128& key) noexcept {
  return splitmix64(key.lo ^ (key.hi * 0x9ddfea08eb382d69ULL));
}

class FlatSet128 {
 public:
  explicit FlatSet128(std::size_t expected = 16) { rehash(capacity_for(expected)); }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Insert key; returns true if newly inserted, false if already present.
  /// Keys equal to the zero sentinel are rejected via assertion.
  bool insert(const Key128& key) {
    OPTSCHED_ASSERT(!key.is_zero());
    if ((size_ + 1) * 10 >= slots_.size() * 7) rehash(slots_.size() * 2);
    std::size_t i = index_of(key);
    while (true) {
      Key128& slot = slots_[i];
      if (slot.is_zero()) {
        slot = key;
        ++size_;
        return true;
      }
      if (slot == key) return false;
      i = (i + 1) & mask_;
    }
  }

  bool contains(const Key128& key) const noexcept {
    std::size_t i = index_of(key);
    while (true) {
      const Key128& slot = slots_[i];
      if (slot.is_zero()) return false;
      if (slot == key) return true;
      i = (i + 1) & mask_;
    }
  }

  /// Start loading `key`'s home slot into cache ahead of an insert() or
  /// contains() of the same key. A hint only: contents never change, and a
  /// rehash in between just makes the hint useless.
  void prefetch(const Key128& key) const noexcept {
    __builtin_prefetch(&slots_[index_of(key)]);
  }

  void clear() {
    for (auto& s : slots_) s = Key128{};
    size_ = 0;
  }

  /// Approximate heap footprint in bytes (for memory reporting).
  std::size_t memory_bytes() const noexcept {
    return slots_.size() * sizeof(Key128);
  }

 private:
  static std::size_t capacity_for(std::size_t expected) {
    std::size_t cap = 16;
    while (cap * 7 < expected * 10) cap <<= 1;
    return cap;
  }

  std::size_t index_of(const Key128& key) const noexcept {
    return static_cast<std::size_t>(key_hash(key)) & mask_;
  }

  void rehash(std::size_t new_cap) {
    std::vector<Key128> old = std::move(slots_);
    slots_.assign(new_cap, Key128{});
    mask_ = new_cap - 1;
    size_ = 0;
    for (const auto& k : old)
      if (!k.is_zero()) insert(k);
  }

  std::vector<Key128> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace optsched::util
