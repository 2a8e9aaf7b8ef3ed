#include "core/expansion.hpp"

#include <algorithm>

#include "core/search_kernel.hpp"

namespace optsched::core {

const char* to_string(Termination t) {
  switch (t) {
    case Termination::kOptimal:
      return "optimal";
    case Termination::kBoundedOptimal:
      return "bounded-optimal";
    case Termination::kExpansionLimit:
      return "expansion-limit";
    case Termination::kTimeLimit:
      return "time-limit";
    case Termination::kMemoryLimit:
      return "memory-limit";
    case Termination::kCancelled:
      return "cancelled";
    case Termination::kHeuristic:
      return "heuristic";
  }
  return "?";
}

ExpansionContext::ExpansionContext(const SearchProblem& problem)
    : problem_(&problem) {
  const auto v = problem.num_nodes();
  finish_.assign(v, 0.0);
  proc_of_.assign(v, machine::kInvalidProc);
  proc_ready_.assign(problem.num_procs(), 0.0);
  busy_.assign(problem.num_procs(), false);
  pending_parents_.assign(v, 0);
  ready_bits_.assign((v + 63) / 64, 0);
  ready_list_.reserve(v);
  chain_.reserve(v);
  path_.reserve(v);
  undo_.reserve(v);
  assignment_seq_.reserve(v);
}

double ExpansionContext::start_time(NodeId n, ProcId p) const {
  const auto& graph = problem_->graph();
  const auto& machine = problem_->machine();
  double dat = 0.0;
  for (const auto& [parent, cost] : graph.parents(n)) {
    OPTSCHED_ASSERT(scheduled(parent));
    dat = std::max(dat, finish_[parent] + machine.comm_delay(
                                              cost, proc_of_[parent], p,
                                              problem_->comm()));
  }
  return std::max(proc_ready_[p], dat);
}

void ExpansionContext::ready_insert(NodeId n) {
  const std::uint32_t rank = problem_->priority_rank(n);
  std::uint64_t& word = ready_bits_[rank >> 6];
  const std::uint64_t bit = std::uint64_t{1} << (rank & 63);
  OPTSCHED_ASSERT((word & bit) == 0);
  word |= bit;
}

void ExpansionContext::ready_remove(NodeId n) {
  const std::uint32_t rank = problem_->priority_rank(n);
  std::uint64_t& word = ready_bits_[rank >> 6];
  const std::uint64_t bit = std::uint64_t{1} << (rank & 63);
  OPTSCHED_ASSERT((word & bit) != 0);
  word &= ~bit;
}

void ExpansionContext::reset() {
  const auto& graph = problem_->graph();
  std::fill(finish_.begin(), finish_.end(), 0.0);
  std::fill(proc_of_.begin(), proc_of_.end(), machine::kInvalidProc);
  std::fill(proc_ready_.begin(), proc_ready_.end(), 0.0);
  std::fill(busy_.begin(), busy_.end(), false);
  g_ = 0.0;
  nmax_ = dag::kInvalidNode;
  depth_ = 0;
  sig_ = root_signature();
  assignment_seq_.clear();
  path_.clear();
  undo_.clear();
  std::fill(ready_bits_.begin(), ready_bits_.end(), 0);
  for (NodeId n = 0; n < problem_->num_nodes(); ++n) {
    const auto pending =
        static_cast<std::uint32_t>(graph.num_parents(n));
    pending_parents_[n] = pending;
    if (pending == 0) ready_insert(n);  // bitset is inherently rank-sorted
  }
}

void ExpansionContext::apply(NodeId n, ProcId p) {
  const auto& graph = problem_->graph();
  const double st = start_time(n, p);
  const double ft =
      st + problem_->machine().exec_time(graph.weight(n), p);
  undo_.push_back({n, p, sig_, proc_ready_[p], g_, nmax_,
                   static_cast<bool>(busy_[p])});
  sig_ = extend_signature(sig_, n, p, ft);
  finish_[n] = ft;
  proc_of_[n] = p;
  proc_ready_[p] = ft;
  busy_[p] = true;
  // g = max finish time; nmax = node attaining it, first in chain order on
  // ties — deterministic, matching the child-construction rule.
  if (ft > g_ || nmax_ == dag::kInvalidNode) {
    g_ = std::max(g_, ft);
    nmax_ = n;
  }
  ready_remove(n);
  for (const auto& [child, cost] : graph.children(n)) {
    (void)cost;
    if (--pending_parents_[child] == 0) ready_insert(child);
  }
  assignment_seq_.emplace_back(n, p);
  ++depth_;
}

void ExpansionContext::rewind_one() {
  OPTSCHED_ASSERT(!undo_.empty());
  const Undo u = undo_.back();
  undo_.pop_back();
  const auto& graph = problem_->graph();
  for (const auto& [child, cost] : graph.children(u.node)) {
    (void)cost;
    if (pending_parents_[child]++ == 0) ready_remove(child);
  }
  ready_insert(u.node);
  finish_[u.node] = 0.0;
  proc_of_[u.node] = machine::kInvalidProc;
  proc_ready_[u.proc] = u.prev_proc_ready;
  busy_[u.proc] = u.prev_busy;
  sig_ = u.prev_sig;
  g_ = u.prev_g;
  nmax_ = u.prev_nmax;
  --depth_;
  assignment_seq_.pop_back();
}

void ExpansionContext::replay_state(const StateArena& arena, StateIndex i) {
  const HotState& s = arena.hot(i);
  apply(s.node(), s.proc());
  path_.push_back(i);
}

void ExpansionContext::load(const StateArena& arena, StateIndex index) {
  // The closing check reads the target's signature: start fetching it
  // while the walk and the replay run.
  arena.prefetch_sig(index);
  reset();

  // Walk to the root (hot records only), then replay forward.
  chain_.clear();
  for (StateIndex i = index; i != kNoParent; i = arena.hot(i).parent) {
    if (arena.hot(i).is_root()) break;
    chain_.push_back(i);
  }
  for (auto it = chain_.rbegin(); it != chain_.rend(); ++it)
    replay_state(arena, *it);
  OPTSCHED_ASSERT(depth_ == arena.hot(index).depth());
  // Replay is deterministic: the signature extended with every recomputed
  // finish time must equal the stored one.
  OPTSCHED_ASSERT(sig_ == arena.sig(index));

  arena_ = &arena;
  loaded_ = index;
  attached_ = true;
  if (stats_) {
    ++stats_->loads_full;
    stats_->assignments_replayed += depth_;
  }
}

void ExpansionContext::move_to(const StateArena& arena, StateIndex index) {
  if (!attached_ || arena_ != &arena || loaded_ >= arena.size()) {
    load(arena, index);
    return;
  }
  if (index == loaded_) {
    // Already there (re-expansion); the context is bit-identical.
    if (stats_) ++stats_->loads_incremental;
    return;
  }

  arena.prefetch_sig(index);  // for the closing check, as in load()

  // Walk the target's ancestry until it meets the loaded path: the first
  // ancestor that sits on path_ at its own depth is the LCA (equal arena
  // index == equal state == equal chain below it). Everything walked over
  // is the divergent suffix to replay.
  chain_.clear();
  std::uint32_t lca_depth = 0;
  for (StateIndex i = index; !arena.hot(i).is_root();
       i = arena.hot(i).parent) {
    const std::uint32_t d = arena.hot(i).depth();
    if (d <= depth_ && path_[d - 1] == i) {
      lca_depth = d;
      break;
    }
    chain_.push_back(i);
  }

  const std::uint32_t target_depth = arena.hot(index).depth();
  const std::uint32_t rewind = depth_ - lca_depth;
  const auto replay = static_cast<std::uint32_t>(chain_.size());
  // Divergence threshold: the delta performs rewind + replay assignment
  // ops; a full rebuild replays target_depth (plus an O(v) reset that the
  // delta skips). Fall back when the delta would not do less work.
  if (rewind + replay > target_depth) {
    load(arena, index);
    return;
  }

  while (depth_ > lca_depth) {
    rewind_one();
    path_.pop_back();
  }
  for (auto it = chain_.rbegin(); it != chain_.rend(); ++it)
    replay_state(arena, *it);
  OPTSCHED_ASSERT(depth_ == target_depth);
  OPTSCHED_ASSERT(sig_ == arena.sig(index));

  loaded_ = index;
  if (stats_) {
    ++stats_->loads_incremental;
    stats_->assignments_replayed += replay;
  }
}

Expander::Expander(const SearchProblem& problem, const SearchConfig& config)
    : problem_(&problem), config_(config), ctx_(problem) {
  h_scratch_.assign(2 * std::size_t{problem.num_nodes()}, 0.0);
  proc_rep_.assign(problem.num_procs(), 0);
  class_taken_.assign(problem.num_nodes(), false);
  candidates_.reserve(std::size_t{problem.num_nodes()} * problem.num_procs());
  ctx_.set_stats(&stats_);
}

bool Expander::evaluate_child(const util::Key128& parent_sig, NodeId node,
                              ProcId proc, double prune_bound) {
  const double st = ctx_.start_time(node, proc);
  const double ft =
      st + problem_->machine().exec_time(problem_->graph().weight(node), proc);
  const double child_g = std::max(ctx_.g_, ft);

  // Temporarily extend the context so the heuristic sees the child state.
  // Only the fields ScheduleView reads are touched; the ready list, undo
  // stack, and processor-ready times stay at the parent state.
  const NodeId saved_nmax = ctx_.nmax_;
  const double saved_g = ctx_.g_;
  ctx_.finish_[node] = ft;
  ctx_.proc_of_[node] = proc;
  ctx_.g_ = child_g;
  if (ft > saved_g || saved_nmax == dag::kInvalidNode) ctx_.nmax_ = node;
  ctx_.depth_ += 1;

  const double h =
      evaluate_h(config_.h, *problem_, ctx_.view(), h_scratch_.data());

  // Restore the context before any early return.
  ctx_.finish_[node] = 0.0;
  ctx_.proc_of_[node] = machine::kInvalidProc;
  ctx_.g_ = saved_g;
  ctx_.nmax_ = saved_nmax;
  ctx_.depth_ -= 1;

  const double f = child_g + h;
  if (config_.prune.upper_bound &&
      dominated(f, prune_bound, 0.0, config_.prune.strict_upper_bound)) {
    ++stats_.pruned_upper_bound;
    return false;
  }

  candidates_.push_back({extend_signature(parent_sig, node, proc, ft),
                         child_g, h, node, proc});
  return true;
}

double Expander::state_h(const StateArena& arena, StateIndex index) {
  ctx_.move_to(arena, index);
  return evaluate_h(config_.h, *problem_, ctx_.view(), h_scratch_.data());
}

sched::Schedule reconstruct_schedule(const SearchProblem& problem,
                                     const StateArena& arena,
                                     StateIndex goal_index) {
  // Collect assignments root -> goal, then replay them through Schedule.
  std::vector<std::pair<NodeId, ProcId>> seq;
  for (StateIndex i = goal_index; i != kNoParent; i = arena.hot(i).parent) {
    if (arena.hot(i).is_root()) break;
    seq.emplace_back(arena.hot(i).node(), arena.hot(i).proc());
  }
  std::reverse(seq.begin(), seq.end());

  sched::Schedule schedule(problem.graph(), problem.machine(), problem.comm());
  for (const auto& [node, proc] : seq) schedule.append(node, proc);
  OPTSCHED_ASSERT(schedule.complete());
  OPTSCHED_ASSERT(schedule.makespan() == arena.hot(goal_index).g);
  return schedule;
}

}  // namespace optsched::core
