// Work-stealing transport with hash-sharded duplicate detection.
//
// The modern alternative to the paper's ring scheme (HDA*-flavoured,
// adapted to shared memory):
//
//  * Global duplicate detection. Every generated state probes one shared
//    transposition table of 128-bit signatures, hash-sharded into striped
//    open-addressed sets: the signature routes the state to its owning
//    shard, so the probe takes one per-shard mutex and contention scales
//    with the shard count, not the PPE count. A state reached on two PPEs
//    is expanded once — the cross-PPE re-expansions the ring's PPE-local
//    SEEN sets cannot prevent are filtered here. (shard_hits counts every
//    duplicate the table sees, same-PPE ones included: there is no
//    separate local set in this mode.)
//
//  * Work-stealing frontier. Each PPE keeps its OPEN private and
//    publishes a window of its best states into its own donation deque —
//    serialized, self-contained messages ordered worst-to-best so the
//    best-f block is the deque's suffix. A starving PPE first reclaims
//    its own deque (by arena index — no replay), then sweeps victims
//    round-robin and steals the best-f suffix as one batch, replaying it
//    into its local arena with a single batched frontier push. Owners
//    only top the deque up when it has been drained below one batch and
//    their private frontier is comfortably larger, so in steady state no
//    serialization happens at all.
//
// Quiescence: the search is done when every PPE is idle and every
// donation deque is empty. A thief marks itself busy *before* removing a
// batch, and the detector re-reads the idle flags after the deque sizes
// (same double-read discipline as the ring's in-flight counter), so the
// observation is stable.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "parallel/transport.hpp"
#include "util/assert.hpp"

namespace optsched::par {

/// The global transposition table: 128-bit signatures hash-sharded into
/// striped open-addressed sets. Thread-safe; one mutex per shard.
class ShardedSignatureTable {
 public:
  /// `shards` is rounded up to a power of two (>= 1).
  explicit ShardedSignatureTable(std::uint32_t shards,
                                 std::size_t expected_per_shard = 1 << 8) {
    std::uint32_t cap = 1;
    while (cap < shards) cap <<= 1;
    shards_ = std::vector<Shard>(cap);
    mask_ = cap - 1;
    for (auto& s : shards_) {
      s.set = util::FlatSet128(expected_per_shard);
      s.bytes.store(s.set.memory_bytes(), std::memory_order_relaxed);
    }
  }

  std::uint32_t num_shards() const noexcept {
    return static_cast<std::uint32_t>(shards_.size());
  }

  /// Footprint of a table with `shards` shards *before* any insertion: the
  /// fixed allocation the constructor performs eagerly. The per-PPE memory
  /// budget is polled during the search, after this table already exists —
  /// so a caller enforcing a budget must check this value up front and
  /// refuse configurations whose fixed allocation alone exceeds it,
  /// instead of clamping the shard count to an arbitrary cap.
  static std::size_t estimate_bytes(std::uint32_t shards,
                                    std::size_t expected_per_shard = 1 << 8) {
    std::uint32_t cap = 1;
    while (cap < shards) cap <<= 1;
    return static_cast<std::size_t>(cap) *
           (sizeof(Shard) +
            util::FlatSet128(expected_per_shard).memory_bytes());
  }

  /// Owning shard of a signature — a pure function of the signature, so
  /// every PPE routes the same state to the same shard. The mix differs
  /// from both FlatSet128's probe hash and hash_owner's PPE hash, so
  /// shard choice, intra-shard probing, and seed ownership stay
  /// decorrelated.
  std::uint32_t shard_of(const util::Key128& sig) const noexcept {
    return static_cast<std::uint32_t>(
        util::splitmix64(sig.lo ^ (sig.hi * 0xff51afd7ed558ccdULL)) & mask_);
  }

  /// Insert; returns true if newly inserted (the state is globally new).
  bool insert(const util::Key128& sig) {
    Shard& s = shards_[shard_of(sig)];
    const std::lock_guard<std::mutex> lock(s.mu);
    const bool fresh = s.set.insert(sig);
    if (fresh) s.bytes.store(s.set.memory_bytes(), std::memory_order_relaxed);
    return fresh;
  }

  bool contains(const util::Key128& sig) const {
    const Shard& s = shards_[shard_of(sig)];
    const std::lock_guard<std::mutex> lock(s.mu);
    return s.set.contains(sig);
  }

  std::size_t size() const {
    std::size_t n = 0;
    for (const auto& s : shards_) {
      const std::lock_guard<std::mutex> lock(s.mu);
      n += s.set.size();
    }
    return n;
  }

  /// Lock-free approximate footprint (for the memory-cap poll).
  std::size_t memory_bytes() const noexcept {
    std::size_t n = 0;
    for (const auto& s : shards_)
      n += s.bytes.load(std::memory_order_relaxed);
    return n;
  }

 private:
  struct alignas(64) Shard {
    mutable std::mutex mu;
    util::FlatSet128 set;
    std::atomic<std::size_t> bytes{0};  ///< mirrors set.memory_bytes()
  };

  std::vector<Shard> shards_;
  std::uint64_t mask_ = 0;
};

/// One serialized state parked for stealing. The owner keeps its
/// frontier entry (entry.f == msg.f) so reclaiming its own deque needs no
/// replay.
struct Donation {
  StateMsg msg;
  PpeHost::Entry entry;
};

/// One PPE's public work window. `items` is kept sorted by f descending,
/// so the best-f block is the suffix: thieves and the reclaiming owner
/// both take from the back.
struct alignas(64) DonationDeque {
  std::mutex mu;
  std::vector<Donation> items;       ///< guarded by mu
  std::atomic<std::size_t> size{0};  ///< mirrors items.size() (quiescence)
  std::atomic<std::size_t> bytes{0};  ///< approximate footprint
};

/// Shard count of the dedup table for `num_ppes` PPEs: 4x PPEs (the table
/// rounds it up to a power of two), at most 4096. The table allocates
/// eagerly, before any memory budget is polled, so the engine checks its
/// estimate_bytes against the budget up front.
inline std::uint32_t ws_shard_count(std::uint32_t num_ppes) {
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(4 * std::uint64_t{num_ppes}, 4096));
}

class WsTransport final : public Transport {
 public:
  /// Donation and steal batch size, in states.
  static constexpr std::uint32_t kStealBatch = 8;

  /// make_transport passes kStealBatch and ws_shard_count(num_ppes).
  WsTransport(std::uint32_t num_ppes, std::uint32_t steal_batch,
              std::uint32_t shards, std::atomic<bool>& done);

  TransportMode mode() const override { return TransportMode::kWorkStealing; }
  std::unique_ptr<PpeLink> connect(std::uint32_t ppe) override;
  std::uint32_t seed_owner(std::size_t,
                           const util::Key128& sig) const override {
    return hash_owner(sig, num_ppes());
  }
  void collect(ParallelStats& out) const override;

 private:
  friend class WsLink;

  bool all_deques_empty() const {
    for (const auto& dq : deques_)
      if (dq.size.load(std::memory_order_acquire) != 0) return false;
    return true;
  }

  ShardedSignatureTable table_;
  std::vector<DonationDeque> deques_;
  std::uint32_t steal_batch_;

  std::atomic<std::uint64_t> steal_attempts_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> states_stolen_{0};
  std::atomic<std::uint64_t> donations_{0};
  std::atomic<std::uint64_t> shard_hits_{0};
};

}  // namespace optsched::par
