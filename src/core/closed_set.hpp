// CLOSED for an engine whose seen-set holds exactly its own arena's states.
//
// Every state the serial engines (A*, Aε*, warm resolve, Chen & Yu) put in
// CLOSED is also in their arena, whose cold record already holds the
// 128-bit signature. So a slot stores an arena index, not a second copy of
// the signature: one uint64 holding the index + 1 in its low 32 bits (0 =
// empty) and the top 32 bits of util::key_hash in its high 32 as a tag. A
// probe compares tags and confirms a tag match with `arena.sig(index) ==
// key`, so dedup stays exact on the full 128 bits; a mismatched tag costs
// no arena read.
//
// The table is a power of two with linear probing and a max load factor of
// 0.7, as FlatSet128. It grows by freeing the old table first and then
// re-inserting arena states [0, end) from their signatures, so no two
// tables are ever live. That re-insertion is why the set must hold exactly
// a prefix of its arena: every insert names the index of the state it
// stands for — one already in the arena, or the one the caller appends next
// (index == arena.size()) before probing again. The set reads the arena
// through a reference, so the arena must outlive it: the engines hold both
// as members, the arena declared first.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/state.hpp"
#include "util/assert.hpp"
#include "util/flat_set.hpp"

namespace optsched::core {

class ClosedSet {
 public:
  explicit ClosedSet(const StateArena& arena, std::size_t expected = 16)
      : arena_(arena) {
    std::size_t cap = 16;
    while (cap * 7 < expected * 10) cap <<= 1;
    reset_table(cap);
  }

  std::size_t size() const noexcept { return size_; }

  /// Insert `key`, the signature of arena state `index`; returns true if
  /// newly inserted, false if an equal signature is already present.
  bool insert(const util::Key128& key, StateIndex index) {
    OPTSCHED_ASSERT(!key.is_zero());
    OPTSCHED_ASSERT(index <= arena_.size() && index != kNoParent);
    if ((size_ + 1) * 10 >= slots_.size() * 7) grow();
    if (!place(key, index)) return false;
    end_ = std::max(end_, std::size_t{index} + 1);
    return true;
  }

  bool contains(const util::Key128& key) const {
    const std::uint64_t h = util::key_hash(key);
    for (std::size_t i = h & mask_;; i = (i + 1) & mask_) {
      const std::uint64_t slot = slots_[i];
      if (slot == 0) return false;
      if (holds(slot, h, key)) return true;
    }
  }

  /// Start loading `key`'s home slot into cache ahead of an insert() of the
  /// same key (a hint only; a growth in between makes it useless).
  void prefetch(const util::Key128& key) const noexcept {
    __builtin_prefetch(&slots_[util::key_hash(key) & mask_]);
  }

  /// Exact heap footprint: 8 bytes per slot.
  std::size_t memory_bytes() const noexcept {
    return slots_.size() * sizeof(std::uint64_t);
  }

 private:
  static constexpr std::uint64_t kTagMask = 0xffffffff00000000ULL;

  /// Does `slot` hold `key` (of hash `h`)? Tags first, then the arena.
  bool holds(std::uint64_t slot, std::uint64_t h,
             const util::Key128& key) const {
    return ((slot ^ h) & kTagMask) == 0 &&
           arena_.sig(static_cast<StateIndex>(slot - 1)) == key;
  }

  /// Probe for `key`; if absent, store `index` in the first empty slot.
  bool place(const util::Key128& key, StateIndex index) {
    const std::uint64_t h = util::key_hash(key);
    for (std::size_t i = h & mask_;; i = (i + 1) & mask_) {
      const std::uint64_t slot = slots_[i];
      if (slot == 0) {
        slots_[i] = (h & kTagMask) | (std::uint64_t{index} + 1);
        ++size_;
        return true;
      }
      if (holds(slot, h, key)) return false;
    }
  }

  /// Double the table: free the old one, then re-insert every arena state
  /// the set holds from its stored signature.
  void grow() {
    const std::size_t held = size_;
    OPTSCHED_ASSERT(end_ <= arena_.size());
    reset_table(slots_.size() * 2);
    for (std::size_t i = 0; i < end_; ++i) {
      const auto idx = static_cast<StateIndex>(i);
      place(arena_.sig(idx), idx);
    }
    OPTSCHED_ASSERT(size_ == held);
  }

  void reset_table(std::size_t cap) {
    slots_ = std::vector<std::uint64_t>();  // release before allocating
    slots_.resize(cap);
    mask_ = cap - 1;
    size_ = 0;
  }

  const StateArena& arena_;
  std::vector<std::uint64_t> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  std::size_t end_ = 0;  ///< one past the highest index inserted
};

}  // namespace optsched::core
