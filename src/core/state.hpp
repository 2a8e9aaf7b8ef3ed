// Search states and the structure-of-arrays state arena.
//
// A state is one assignment step: "schedule `node` on `proc`", chained to
// its parent state. The full partial schedule a state denotes is recovered
// by replaying the parent chain (incrementally — see core/expansion.hpp),
// so a state stays small regardless of graph size. The paper identifies
// memory as the binding resource for A*; this layout keeps millions of
// states resident.
//
// The arena splits each state into a *hot* and a *cold* record:
//
//   HotState (16 bytes)   g, parent link, packed node/proc/depth — the
//                         fields the replay path reads for every state
//                         it touches.
//   ColdState (16 bytes)  the 128-bit duplicate-detection signature — read
//                         when a state is generated (signature extension),
//                         deduplicated, transferred between PPEs, or loaded
//                         (the replay check).
//
// A state costs 32 bytes. Neither f nor h is stored: f = g + h is fixed at
// generation time and travels in the state's frontier entry (and in a
// transferred state's message), which is the only place the search reads
// it. Finish times are not stored either: the context replay recomputes
// them, and the signature it extends along the way must equal the stored
// one (core/expansion.hpp), which checks every replayed finish time at
// once. Consecutive frontier pops touch only the hot array, and the cold
// array stays out of cache until the next generation burst or context
// move. `State` remains as the generation-time value type;
// `StateArena::add` splits it.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>

#include "dag/graph.hpp"
#include "core/signature.hpp"
#include "machine/machine.hpp"
#include "util/assert.hpp"
#include "util/flat_set.hpp"

namespace optsched::core {

using StateIndex = std::uint32_t;
inline constexpr StateIndex kNoParent = static_cast<StateIndex>(-1);

/// Packed-field capacity of the hot record (12/8/12 bits for
/// node/proc/depth, top code reserved as the root sentinel). Far beyond
/// what any exact state-space search can enumerate; engines validate their
/// problem against these before building an arena.
inline constexpr std::uint32_t kMaxArenaNodes = (1u << 12) - 2;  // 4094
inline constexpr std::uint32_t kMaxArenaProcs = (1u << 8) - 2;   // 254

/// Generation-time state record (the full AoS view). Built by the expander
/// for each surviving child, split into hot/cold by StateArena::add, which
/// keeps no h: the caller pushes f and h in the child's frontier entry.
struct State {
  util::Key128 sig;          ///< order-independent partial-schedule identity
  double g = 0.0;            ///< max finish time over scheduled nodes
  double h = 0.0;            ///< admissible estimate of remaining length
  StateIndex parent = kNoParent;
  dag::NodeId node = dag::kInvalidNode;
  machine::ProcId proc = machine::kInvalidProc;
  std::uint32_t depth = 0;   ///< number of scheduled nodes

  double f() const noexcept { return g + h; }
  bool is_root() const noexcept { return parent == kNoParent && depth == 0; }
};

/// The empty partial schedule: the root of every search, with f = g = 0.
inline State root_state() noexcept {
  State root;
  root.sig = root_signature();
  return root;
}

/// Resident per-state record of the search loop. Exactly 16 bytes: f is
/// not here, it rides in the state's frontier entry (core/frontier.hpp).
struct HotState {
  double g = 0.0;
  StateIndex parent = kNoParent;
  std::uint32_t packed = 0;  ///< node:12 | proc:8 | depth:12

  static constexpr std::uint32_t kNodeShift = 20;
  static constexpr std::uint32_t kProcShift = 12;
  static constexpr std::uint32_t kNodeMask = 0xfff;
  static constexpr std::uint32_t kProcMask = 0xff;
  static constexpr std::uint32_t kDepthMask = 0xfff;

  static std::uint32_t pack(dag::NodeId node, machine::ProcId proc,
                            std::uint32_t depth) noexcept {
    // kInvalidNode / kInvalidProc truncate to the all-ones sentinel codes.
    return ((node & kNodeMask) << kNodeShift) |
           ((proc & kProcMask) << kProcShift) | (depth & kDepthMask);
  }

  dag::NodeId node() const noexcept {
    const std::uint32_t raw = (packed >> kNodeShift) & kNodeMask;
    return raw == kNodeMask ? dag::kInvalidNode : raw;
  }
  machine::ProcId proc() const noexcept {
    const std::uint32_t raw = (packed >> kProcShift) & kProcMask;
    return raw == kProcMask ? machine::kInvalidProc : raw;
  }
  std::uint32_t depth() const noexcept { return packed & kDepthMask; }

  bool is_root() const noexcept { return parent == kNoParent && depth() == 0; }
};
static_assert(sizeof(HotState) == 16, "hot state record must stay 16 bytes");

/// Generation/dedup/transfer/load-time field, kept off the pop path.
struct ColdState {
  util::Key128 sig;
};
static_assert(sizeof(ColdState) == 16, "cold state record must stay 16 bytes");

class StateArena {
 public:
  /// Records never move: segment k holds kFirstSegment << k states, and a
  /// full arena adds the next segment, uninitialised, and copies nothing.
  static constexpr std::size_t kFirstSegment = std::size_t{1} << 10;

  StateArena() = default;
  StateArena(StateArena&& o) noexcept { *this = std::move(o); }
  StateArena& operator=(StateArena&& o) noexcept {
    hot_ = std::move(o.hot_);
    cold_ = std::move(o.cold_);
    segments_ = std::exchange(o.segments_, 0);
    size_ = std::exchange(o.size_, 0);
    return *this;
  }

  /// Engines call this once per solve: the packed hot record caps the
  /// instance size (far above exact-search tractability either way).
  static void require_packable(std::uint32_t num_nodes,
                               std::uint32_t num_procs) {
    OPTSCHED_REQUIRE(num_nodes <= kMaxArenaNodes,
                     "state-space search supports at most 4094 nodes");
    OPTSCHED_REQUIRE(num_procs <= kMaxArenaProcs,
                     "state-space search supports at most 254 processors");
  }

  StateIndex add(const State& s) {
    const auto idx = static_cast<StateIndex>(size_);
    if (size_ == capacity()) {  // full: add one segment, copy nothing
      const std::size_t n = kFirstSegment << segments_;
      hot_[segments_].reset(
          static_cast<HotState*>(::operator new(n * sizeof(HotState))));
      cold_[segments_].reset(
          static_cast<ColdState*>(::operator new(n * sizeof(ColdState))));
      ++segments_;
    }
    ::new (&at(hot_, idx))
        HotState{s.g, s.parent, HotState::pack(s.node, s.proc, s.depth)};
    ::new (&at(cold_, idx)) ColdState{s.sig};
    ++size_;
    return idx;
  }

  /// Append the root state (root_state()); returns its index.
  StateIndex add_root() { return add(root_state()); }

  const HotState& hot(StateIndex i) const {
    OPTSCHED_ASSERT(i < size_);
    return at(hot_, i);
  }

  const util::Key128& sig(StateIndex i) const {
    OPTSCHED_ASSERT(i < size_);
    return at(cold_, i).sig;
  }

  /// Start loading the signature of state `i` into cache ahead of a
  /// sig(i) read — the context move's closing check (a hint only).
  void prefetch_sig(StateIndex i) const noexcept {
    OPTSCHED_ASSERT(i < size_);
    __builtin_prefetch(&at(cold_, i).sig);
  }

  std::size_t size() const noexcept { return size_; }

  void clear() noexcept { size_ = 0; }

  /// Drop every state with index >= new_size (IDA*'s backtrack reclaim).
  /// Indices below new_size keep their contents; callers that cache loaded
  /// indices must invalidate anything at or above the cut.
  void truncate(std::size_t new_size) {
    if (new_size < size_) size_ = new_size;
  }

  /// Resident footprint of the search loop's working set.
  std::size_t hot_memory_bytes() const noexcept {
    return capacity() * sizeof(HotState);
  }
  /// Generation/dedup/transfer-time footprint (signatures).
  std::size_t cold_memory_bytes() const noexcept {
    return capacity() * sizeof(ColdState);
  }
  std::size_t memory_bytes() const noexcept {
    return hot_memory_bytes() + cold_memory_bytes();
  }

 private:
  struct FreeRaw {
    void operator()(void* p) const noexcept { ::operator delete(p); }
  };
  /// One record kind's segments; indices below 2^32 need 23 of them.
  template <typename T>
  using Segments = std::array<std::unique_ptr<T[], FreeRaw>, 23>;

  /// State i: with j = i + 1024, segment bit_width(j) - 11, offset j - msb.
  template <typename T>
  static T& at(const Segments<T>& segs, StateIndex i) noexcept {
    const std::uint64_t j = std::uint64_t{i} + kFirstSegment;
    const auto seg = static_cast<std::size_t>(std::bit_width(j) - 11);
    return segs[seg][j ^ (kFirstSegment << seg)];
  }
  /// States the allocated segments hold: 1024 * (2^segments - 1).
  std::size_t capacity() const noexcept {
    return (kFirstSegment << segments_) - kFirstSegment;
  }

  Segments<HotState> hot_;
  Segments<ColdState> cold_;
  std::size_t segments_ = 0;
  std::size_t size_ = 0;
};

}  // namespace optsched::core
