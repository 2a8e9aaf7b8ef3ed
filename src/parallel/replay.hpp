// Import of a transferred state (par::StateMsg) into a worker's arena,
// shared by the in-process PPEs (parallel_astar.cpp) and the dist worker
// (dist_transport.cpp).
//
// SequenceReplay rebuilds the finish times, g and signature of a partial
// schedule from its assignment sequence. The sequence comes from another
// PPE or another process, so the replay checks it as it goes — each node
// and processor id in range, no node assigned twice, every parent
// assigned earlier in the sequence — and throws util::Error on the first
// violation instead of indexing out of bounds. The checks ride the loop
// the replay runs anyway.
//
// Importer wraps it in two phases, and the caller decides admission in
// between: dist probes its SEEN set, a PPE always admits.
#pragma once

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "core/expansion.hpp"
#include "core/frontier.hpp"
#include "core/heuristics.hpp"
#include "core/problem.hpp"
#include "core/signature.hpp"
#include "parallel/transport.hpp"
#include "util/assert.hpp"

namespace optsched::par {

class SequenceReplay {
 public:
  /// One replayed assignment, as handed to the per-step callback.
  struct Step {
    dag::NodeId node;
    machine::ProcId proc;
    double finish;     ///< finish time of `node`
    double g;          ///< makespan of the prefix ending here
    util::Key128 sig;  ///< signature of the prefix ending here
  };

  explicit SequenceReplay(const core::SearchProblem& problem)
      : problem_(&problem),
        finish_(problem.num_nodes(), 0.0),
        proc_of_(problem.num_nodes(), machine::kInvalidProc),
        proc_ready_(problem.num_procs(), 0.0) {}

  /// Replay `seq` from the empty schedule, calling `on_step(const Step&)`
  /// after each assignment. Returns the last step (the root's signature
  /// and g = 0 for an empty sequence). Throws util::Error on a malformed
  /// sequence.
  template <class OnStep>
  Step run(const std::vector<std::pair<dag::NodeId, machine::ProcId>>& seq,
           OnStep&& on_step) {
    const auto& graph = problem_->graph();
    const auto& machine = problem_->machine();
    const std::uint32_t nodes = problem_->num_nodes();
    const std::uint32_t procs = problem_->num_procs();
    std::fill(finish_.begin(), finish_.end(), 0.0);
    std::fill(proc_of_.begin(), proc_of_.end(), machine::kInvalidProc);
    std::fill(proc_ready_.begin(), proc_ready_.end(), 0.0);

    Step step{0, 0, 0.0, 0.0, core::root_signature()};
    for (const auto& [node, proc] : seq) {
      OPTSCHED_REQUIRE(node < nodes, "replayed node id out of range");
      OPTSCHED_REQUIRE(proc < procs, "replayed processor id out of range");
      OPTSCHED_REQUIRE(proc_of_[node] == machine::kInvalidProc,
                       "replayed sequence assigns a node twice");
      double dat = 0.0;
      for (const auto& [par, cost] : graph.parents(node)) {
        OPTSCHED_REQUIRE(proc_of_[par] != machine::kInvalidProc,
                         "replayed node precedes one of its parents");
        dat = std::max(dat, finish_[par] + machine.comm_delay(
                                               cost, proc_of_[par], proc,
                                               problem_->comm()));
      }
      const double st = std::max(proc_ready_[proc], dat);
      const double ft = st + machine.exec_time(graph.weight(node), proc);
      finish_[node] = ft;
      proc_of_[node] = proc;
      proc_ready_[proc] = ft;
      step.node = node;
      step.proc = proc;
      step.finish = ft;
      step.g = std::max(step.g, ft);
      step.sig = core::extend_signature(step.sig, node, proc, ft);
      on_step(std::as_const(step));
    }
    return step;
  }

  /// Finish time of `node` in the last replay (0 when it was not in the
  /// sequence).
  double finish(dag::NodeId node) const { return finish_[node]; }

 private:
  const core::SearchProblem* problem_;
  std::vector<double> finish_;
  std::vector<machine::ProcId> proc_of_;
  std::vector<double> proc_ready_;
};

/// Two-phase import of transferred states into one worker's arena.
class Importer {
 public:
  /// Imports into `arena`, which must outlive the importer and hold the
  /// worker's single root at index 0 before the first attach().
  Importer(const core::SearchProblem& problem, const core::SearchConfig& config,
           core::StateArena& arena)
      : arena_(arena),
        replay_(problem),
        ctx_(problem),
        scratch_(2 * std::size_t{problem.num_nodes()}, 0.0),
        h_(config.h),
        slots_(16, 0) {}

  /// Phase 1: replay `msg` into scratch only and return its last step
  /// (signature and g). The arena is not touched, so a state the caller
  /// refuses — a duplicate, or a complete schedule, which goes to the
  /// caller's incumbent — costs the simulation and nothing else. Throws
  /// util::Error on a malformed sequence.
  const SequenceReplay::Step& replay(const StateMsg& msg) {
    last_ = replay_.run(msg.assignments, [](const SequenceReplay::Step&) {});
    return last_;
  }

  /// Phase 2, for the `msg` of the last replay() and a caller that admits
  /// each state at most once (dist admits fresh signatures only): add the
  /// state to the arena below the longest prefix it shares with the last
  /// attached chain, and only the rest. Senders emit siblings back to
  /// back (a dist batch delta-encodes each state against the previous
  /// one, DESIGN.md §11.2), so a sibling adds one record; equal sequences
  /// denote equal states, so a shared record is exact. Recomputes h — the
  /// sender's h function is the same, so f must agree with msg.f — and
  /// returns the frontier entry.
  core::Frontier::Entry attach(const StateMsg& msg) {
    return finish(add_chain(msg.assignments), msg);
  }

  /// attach() for a caller that admits every state, repeats included (a
  /// PPE): a state imported before with the same sequence reuses its
  /// record, so a state ring neighbours hand back and forth adds nothing
  /// after its first import. Records are shared on equal sequences only,
  /// not equal signatures: h reads the node that attains g, the first in
  /// assignment order on a tie, so two orders of one partial schedule can
  /// carry different h.
  core::Frontier::Entry attach_or_reuse(const StateMsg& msg) {
    core::StateIndex idx = find(msg.assignments);
    if (idx == core::kNoParent) {
      idx = add_chain(msg.assignments);
      index(idx);
    }
    return finish(idx, msg);
  }

  /// The index attach_or_reuse() keeps of imported states (8 bytes per
  /// slot).
  std::size_t memory_bytes() const noexcept {
    return slots_.capacity() * sizeof(std::uint64_t);
  }

 private:
  static constexpr std::uint64_t kTagMask = 0xffffffff00000000ULL;

  /// Add the records of `seq` missing below the last chain's shared
  /// prefix; returns the state's record.
  core::StateIndex add_chain(
      const std::vector<std::pair<dag::NodeId, machine::ProcId>>& seq) {
    OPTSCHED_ASSERT(arena_.size() > 0 && arena_.hot(0).is_root());
    std::size_t k = 0;
    const std::size_t common = std::min(seq.size(), chain_seq_.size());
    while (k < common && seq[k] == chain_seq_[k]) ++k;
    chain_seq_.resize(k);
    chain_idx_.resize(k);
    core::StateIndex parent = k == 0 ? 0 : chain_idx_[k - 1];
    for (std::size_t i = k; i < seq.size(); ++i) {
      const auto [node, proc] = seq[i];
      const double ft = replay_.finish(node);
      core::State s;
      s.sig = core::extend_signature(arena_.sig(parent), node, proc, ft);
      s.g = std::max(arena_.hot(parent).g, ft);
      s.h = 0.0;  // interior-chain h is never read; the final h is below
      s.parent = parent;
      s.node = node;
      s.proc = proc;
      s.depth = static_cast<std::uint32_t>(i + 1);
      parent = arena_.add(s);
      chain_seq_.push_back(seq[i]);
      chain_idx_.push_back(parent);
    }
    return parent;
  }

  /// Check the record against the replay, recompute its h and return the
  /// frontier entry.
  core::Frontier::Entry finish(core::StateIndex idx, const StateMsg& msg) {
    OPTSCHED_ASSERT(arena_.hot(idx).depth() == msg.assignments.size());
    OPTSCHED_ASSERT(arena_.sig(idx) == last_.sig);
    // Consecutive imports share their chain prefix, so this move is a
    // delta replay.
    ctx_.move_to(arena_, idx);
    const double h =
        core::evaluate_h(h_, ctx_.problem(), ctx_.view(), scratch_.data());
    const double g = last_.g;
    OPTSCHED_ASSERT(std::abs((g + h) - msg.f) < 1e-6);
    return {g + h, g, h, idx};
  }

  /// The record of an earlier import whose sequence is exactly `seq` (the
  /// last replay's), or kNoParent. Imported states are indexed by
  /// signature in an open-addressing table with linear probing; as in
  /// core::ClosedSet, a slot holds the arena index + 1 (0 = empty) in its
  /// low half and the top 32 bits of the signature's hash as a tag, so a
  /// mismatched tag costs no arena read.
  core::StateIndex find(
      const std::vector<std::pair<dag::NodeId, machine::ProcId>>& seq) const {
    const std::uint64_t h = util::key_hash(last_.sig);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = h & mask; slots_[i] != 0; i = (i + 1) & mask) {
      if (((slots_[i] ^ h) & kTagMask) != 0) continue;
      const auto idx = static_cast<core::StateIndex>(slots_[i] - 1);
      if (!(arena_.sig(idx) == last_.sig)) continue;
      // Equal signatures: confirm the order, from the state up to the root.
      core::StateIndex at = idx;
      std::size_t depth = seq.size();
      while (depth > 0 && arena_.hot(at).node() == seq[depth - 1].first &&
             arena_.hot(at).proc() == seq[depth - 1].second) {
        at = arena_.hot(at).parent;
        --depth;
      }
      if (depth == 0) return idx;
    }
    return core::kNoParent;
  }

  /// Index an imported state's record, at load <= 0.7.
  void index(core::StateIndex idx) {
    if ((++indexed_) * 10 >= slots_.size() * 7) {
      std::vector<std::uint64_t> old(slots_.size() * 2, 0);
      old.swap(slots_);
      for (const std::uint64_t slot : old)
        if (slot != 0) place(static_cast<core::StateIndex>(slot - 1));
    }
    place(idx);
  }

  void place(core::StateIndex idx) {
    const std::uint64_t h = util::key_hash(arena_.sig(idx));
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = h & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = (h & kTagMask) | (std::uint64_t{idx} + 1);
  }

  core::StateArena& arena_;
  SequenceReplay replay_;
  SequenceReplay::Step last_{};
  core::ExpansionContext ctx_;
  std::vector<double> scratch_;  ///< h-evaluation scratch
  core::HFunction h_;
  std::vector<std::uint64_t> slots_;  ///< imported states, see find()
  std::size_t indexed_ = 0;
  /// Sequence and arena indices (one per depth) of the last attached chain.
  std::vector<std::pair<dag::NodeId, machine::ProcId>> chain_seq_;
  std::vector<core::StateIndex> chain_idx_;
};

}  // namespace optsched::par
