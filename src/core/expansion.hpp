// State expansion: rebuilding a state's schedule context from its parent
// chain and generating successor states (paper §3.1's expansion operator
// with §3.2's pruning techniques applied).
//
// States store only their last assignment (core/state.hpp); the full
// partial-schedule context — per-node finish times and processors, per-
// processor ready times, the ready list — lives in ExpansionContext.
// A full rebuild (`load`) replays the whole chain in O(depth + e).
// `move_to` exploits frontier locality instead: consecutive pops from OPEN
// are usually near each other in the search tree, so it finds the lowest
// common ancestor of the currently loaded state and the target, rewinds
// assignments back to the LCA through an undo stack, and replays only the
// divergent suffix — falling back to `load` when the delta would do more
// assignment work than a full replay. Both paths are deterministic: the
// context extends a signature with every finish time it recomputes, and a
// move ends by asserting that it equals the target's stored signature, so
// a replay that diverges anywhere on the chain aborts. The full/incremental
// split is observable through ExpandStats.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "core/heuristics.hpp"
#include "core/problem.hpp"
#include "core/signature.hpp"
#include "core/state.hpp"
#include "util/counters.hpp"
#include "util/flat_set.hpp"

namespace optsched::core {

/// Counters accumulated across expansions (reported in SearchResult).
struct ExpandStats {
  std::uint64_t expanded = 0;          ///< states whose successors were built
  std::uint64_t generated = 0;         ///< successor states stored
  std::uint64_t duplicates_dropped = 0;///< successors already seen
  std::uint64_t pruned_upper_bound = 0;
  std::uint64_t skipped_equivalence = 0;  ///< ready nodes skipped (Def. 3)
  std::uint64_t skipped_isomorphism = 0;  ///< processors skipped (Def. 2)
  std::uint64_t loads_full = 0;           ///< context rebuilt from the root
  std::uint64_t loads_incremental = 0;    ///< context delta-replayed via LCA
  std::uint64_t assignments_replayed = 0; ///< apply ops across all loads

  /// The counter table (util/counters.hpp): all summed, all effort.
  template <class F, class... S>
  static void visit(F&& f, S&... s) {
    using util::Counter;
    constexpr auto sum = util::Merge::kSum;
    constexpr auto effort = util::CounterClass::kEffort;
    f(Counter{"expanded", sum, effort}, s.expanded...);
    f(Counter{"generated", sum, effort}, s.generated...);
    f(Counter{"duplicates_dropped", sum, effort}, s.duplicates_dropped...);
    f(Counter{"pruned_upper_bound", sum, effort}, s.pruned_upper_bound...);
    f(Counter{"skipped_equivalence", sum, effort}, s.skipped_equivalence...);
    f(Counter{"skipped_isomorphism", sum, effort}, s.skipped_isomorphism...);
    f(Counter{"loads_full", sum, effort}, s.loads_full...);
    f(Counter{"loads_incremental", sum, effort}, s.loads_incremental...);
    f(Counter{"assignments_replayed", sum, effort},
      s.assignments_replayed...);
  }
};

/// Reconstructed schedule context of one state. One instance per search
/// thread; all storage is reused across load()/move_to() calls.
class ExpansionContext {
 public:
  explicit ExpansionContext(const SearchProblem& problem);

  /// Rebuild the context for `arena[index]` from scratch.
  void load(const StateArena& arena, StateIndex index);

  /// Bring the context to `arena[index]` by rewinding to the lowest common
  /// ancestor of the currently loaded state and replaying the divergent
  /// suffix; falls back to load() past the divergence threshold (or when
  /// nothing valid is loaded). Bit-exact with a fresh load().
  void move_to(const StateArena& arena, StateIndex index);

  /// Forget the loaded state (e.g. the arena was cleared or swapped).
  void invalidate() noexcept { attached_ = false; }

  /// The arena dropped every index >= first_dropped (StateArena::truncate);
  /// forget the loaded state if it was among them. Surviving indices keep
  /// their contents, so a loaded state below the cut stays valid.
  void invalidate_from(StateIndex first_dropped) noexcept {
    if (attached_ && loaded_ >= first_dropped) attached_ = false;
  }

  /// Counter sink for load/replay accounting (may be null).
  void set_stats(ExpandStats* stats) noexcept { stats_ = stats; }

  const SearchProblem& problem() const noexcept { return *problem_; }

  bool scheduled(NodeId n) const { return proc_of_[n] != machine::kInvalidProc; }
  double finish_time(NodeId n) const { return finish_[n]; }
  ProcId proc_of(NodeId n) const { return proc_of_[n]; }
  double proc_ready(ProcId p) const { return proc_ready_[p]; }
  const std::vector<bool>& busy() const noexcept { return busy_; }
  double g() const noexcept { return g_; }
  NodeId nmax() const noexcept { return nmax_; }
  std::uint32_t depth() const noexcept { return depth_; }
  /// Signature of the loaded state, extended by the replay itself (equal
  /// to the arena's stored one after every load/move_to).
  const util::Key128& sig() const noexcept { return sig_; }

  /// Ready nodes in the paper's priority order (descending b+t level).
  /// Readiness is kept as a rank-indexed bitset (O(1) insert/remove in
  /// apply/rewind instead of a sorted-vector memmove); this accessor
  /// materializes it into a reused scratch vector — the hot expansion
  /// loop iterates the bitset words directly and never pays for this.
  const std::vector<NodeId>& ready() const {
    ready_list_.clear();
    for_each_ready([&](NodeId n) { ready_list_.push_back(n); });
    return ready_list_;
  }

  /// Visit ready nodes in priority-rank order: a ctz scan over the bitset
  /// words — same order the sorted ready vector historically produced
  /// (ranks are unique). `fn` must not change readiness.
  template <typename Fn>
  void for_each_ready(Fn&& fn) const {
    const std::vector<NodeId>& by_rank = problem_->node_by_rank();
    for (std::size_t w = 0; w < ready_bits_.size(); ++w) {
      std::uint64_t bits = ready_bits_[w];
      while (bits != 0) {
        const auto b = static_cast<std::uint32_t>(std::countr_zero(bits));
        bits &= bits - 1;
        fn(by_rank[(w << 6) + b]);
      }
    }
  }

  /// Earliest start of `n` on `p` given this context (append semantics).
  double start_time(NodeId n, ProcId p) const;

  ScheduleView view() const {
    return {finish_.data(), proc_of_.data(), g_, nmax_, depth_};
  }

  /// Assignment sequence (root to this state) — for schedule reconstruction
  /// and for serializing states across PPEs.
  const std::vector<std::pair<NodeId, ProcId>>& assignments() const noexcept {
    return assignment_seq_;
  }

 private:
  friend class Expander;

  /// Undo record for one applied assignment.
  struct Undo {
    NodeId node;
    ProcId proc;
    util::Key128 prev_sig;
    double prev_proc_ready;
    double prev_g;
    NodeId prev_nmax;
    bool prev_busy;
  };

  /// Reset to the empty schedule (O(v + p)).
  void reset();
  /// Schedule `n` on `p` on top of the current context and extend the
  /// signature with the finish time. Maintains ready list, pending counts,
  /// and the undo stack.
  void apply(NodeId n, ProcId p);
  /// Undo the most recent apply().
  void rewind_one();
  /// apply() the stored assignment of arena[i] and record it on the path.
  void replay_state(const StateArena& arena, StateIndex i);

  void ready_insert(NodeId n);
  void ready_remove(NodeId n);

  const SearchProblem* problem_;
  std::vector<double> finish_;
  std::vector<ProcId> proc_of_;
  std::vector<double> proc_ready_;
  std::vector<bool> busy_;
  /// Readiness bitset indexed by priority rank (bit r = node_by_rank[r]).
  std::vector<std::uint64_t> ready_bits_;
  mutable std::vector<NodeId> ready_list_;  ///< ready() scratch
  std::vector<std::uint32_t> pending_parents_;
  std::vector<StateIndex> chain_;   // scratch for parent walks
  std::vector<StateIndex> path_;    // arena indices root -> loaded, by depth
  std::vector<Undo> undo_;          // parallel to path_
  std::vector<std::pair<NodeId, ProcId>> assignment_seq_;
  double g_ = 0.0;
  NodeId nmax_ = dag::kInvalidNode;
  std::uint32_t depth_ = 0;
  util::Key128 sig_ = root_signature();

  const StateArena* arena_ = nullptr;
  StateIndex loaded_ = 0;
  bool attached_ = false;
  ExpandStats* stats_ = nullptr;
};

/// Generates the successors of a state, applying the configured pruning.
/// The same Expander instance must not be used concurrently; the parallel
/// algorithm creates one per PPE.
class Expander {
 public:
  Expander(const SearchProblem& problem, const SearchConfig& config);

  /// Expand arena[index]. Every surviving successor is appended to `arena`
  /// and reported through `emit(StateIndex, const State&)`; the State
  /// reference is the generation record, valid only during the callback
  /// (copy it or re-read through the arena to keep it). `seen` is the
  /// pluggable duplicate-detection probe — any type with
  /// `bool insert(const util::Key128&)`, or
  /// `bool insert(const util::Key128&, StateIndex)` (then it is also told
  /// the arena index the child gets if inserted), returning true for a
  /// first-seen signature, and optionally
  /// `void prefetch(const util::Key128&)` as a cache hint: the serial
  /// engines pass a ClosedSet over `arena` (core/closed_set.hpp), the
  /// parallel transports pass their mode's structure (PPE-local set, or
  /// the hash-sharded global table). `prune_bound` is the current
  /// upper-bound threshold (the incumbent makespan, or the static U in
  /// paper-fidelity mode); children with f >= bound (f > bound when
  /// strict_upper_bound) are discarded.
  ///
  /// Two phases: every candidate's h and prune decision is made before the
  /// first `seen.insert`; the inserts, arena appends and emits then run in
  /// candidate order (ready-rank order, processors ascending), so `seen`,
  /// `arena` and `emit` observe exactly the sequence of a fused pass.
  template <typename Seen, typename Emit>
  void expand(StateArena& arena, Seen& seen, StateIndex index,
              double prune_bound, Emit&& emit);

  ExpandStats& stats() noexcept { return stats_; }
  const ExpandStats& stats() const noexcept { return stats_; }
  const ExpansionContext& context() const noexcept { return ctx_; }

  /// Forward arena invalidations to the owned context (IDA* truncation).
  void invalidate_context_from(StateIndex first_dropped) noexcept {
    ctx_.invalidate_from(first_dropped);
  }
  void invalidate_context() noexcept { ctx_.invalidate(); }

  /// h of arena[index] under *this* problem (loads the context).
  /// Used by the warm-start path: for the root it is the instance's global
  /// lower bound (the instant-proof test), and generally it re-derives the
  /// value a cold search would have stored.
  double state_h(const StateArena& arena, StateIndex index);

 private:
  /// A successor that survived upper-bound pruning, waiting for its
  /// CLOSED probe (phase 2 of expand()).
  struct Candidate {
    util::Key128 sig;
    double g;
    double h;
    NodeId node;
    ProcId proc;
  };

  /// Phase 1 for (node -> proc): times, h and the upper-bound test on top
  /// of the loaded context. A survivor is appended to candidates_ (returns
  /// true); a pruned child only bumps its counter.
  bool evaluate_child(const util::Key128& parent_sig, NodeId node,
                      ProcId proc, double prune_bound);

  const SearchProblem* problem_;
  SearchConfig config_;
  ExpansionContext ctx_;
  ExpandStats stats_;
  std::vector<double> h_scratch_;
  std::vector<ProcId> proc_rep_;
  std::vector<bool> class_taken_;
  std::vector<Candidate> candidates_;  ///< phase-1 survivors, in order
};

// ---- implementation of the templated members ----------------------------

template <typename Seen, typename Emit>
void Expander::expand(StateArena& arena, Seen& seen, StateIndex index,
                      double prune_bound, Emit&& emit) {
  ctx_.move_to(arena, index);
  ++stats_.expanded;
  const util::Key128& parent_sig = ctx_.sig_;

  const auto& autos = problem_->automorphisms();
  const std::uint32_t p = problem_->num_procs();

  // Processor isomorphism (Def. 2 / automorphism orbits): try only one
  // representative per equivalence class of processors.
  if (config_.prune.processor_isomorphism) {
    autos.state_classes(ctx_.busy_, proc_rep_);
  } else {
    proc_rep_.resize(p);
    for (ProcId q = 0; q < p; ++q) proc_rep_[q] = q;
  }

  // Node equivalence (Def. 3): among ready nodes of one equivalence class,
  // expand only the first (equivalent nodes tie in priority and are
  // ordered by id, so the first seen is the smallest id).
  const auto& equiv = problem_->equivalence();
  if (config_.prune.node_equivalence) {
    class_taken_.assign(problem_->num_nodes(), false);
  }

  // Phase 1: evaluate every (ready node x representative processor)
  // candidate — times, h, upper-bound test, signature — and prefetch the
  // CLOSED slot of each survivor (when `seen` offers prefetch()), so the
  // probes below find their slots in cache instead of stalling on each.
  candidates_.clear();
  ctx_.for_each_ready([&](const NodeId n) {
    if (config_.prune.node_equivalence) {
      const NodeId rep = equiv.representative(n);
      if (class_taken_[rep]) {
        ++stats_.skipped_equivalence;
        return;
      }
      class_taken_[rep] = true;
    }
    for (ProcId q = 0; q < p; ++q) {
      if (proc_rep_[q] != q) {
        ++stats_.skipped_isomorphism;
        continue;
      }
      if (evaluate_child(parent_sig, n, q, prune_bound) &&
          config_.prune.duplicate_detection) {
        if constexpr (requires { seen.prefetch(util::Key128{}); })
          seen.prefetch(candidates_.back().sig);
      }
    }
  });

  // Phase 2: CLOSED probe, arena append and emit, in candidate order —
  // the same order of side effects as a single fused pass.
  const std::uint32_t child_depth = ctx_.depth_ + 1;
  for (const Candidate& c : candidates_) {
    if (config_.prune.duplicate_detection) {
      bool fresh;
      if constexpr (requires { seen.insert(c.sig, StateIndex{}); })
        fresh = seen.insert(c.sig, static_cast<StateIndex>(arena.size()));
      else
        fresh = seen.insert(c.sig);
      if (!fresh) {
        ++stats_.duplicates_dropped;
        continue;
      }
    }
    State child;
    child.sig = c.sig;
    child.g = c.g;
    child.h = c.h;
    child.parent = index;
    child.node = c.node;
    child.proc = c.proc;
    child.depth = child_depth;

    const StateIndex idx = arena.add(child);
    ++stats_.generated;
    emit(idx, child);
  }
}

/// Rebuild the complete schedule a goal state denotes.
sched::Schedule reconstruct_schedule(const SearchProblem& problem,
                                     const StateArena& arena,
                                     StateIndex goal_index);

}  // namespace optsched::core
