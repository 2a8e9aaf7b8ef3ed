#include "parallel/parallel_astar.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <thread>
#include <utility>

#include "core/frontier.hpp"
#include "core/open_list.hpp"
#include "core/search_kernel.hpp"
#include "parallel/dist_transport.hpp"
#include "parallel/replay.hpp"
#include "parallel/ws_transport.hpp"
#include "util/timer.hpp"

namespace optsched::par {

using core::Expander;
using core::Frontier;
using core::kNoParent;
using core::KernelGuard;
using core::OpenEntry;
using core::OpenList;
using core::SearchProblem;
using core::State;
using core::StateArena;
using core::StateIndex;
using core::StepAction;
using dag::NodeId;
using machine::ProcId;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The deterministic seed expansion: best-first from a fresh root at arena
/// index 0 until the frontier holds `target` states, the space is
/// exhausted, or `max_pops` pops were made. Children are pruned against
/// `bound`; complete schedules go to `on_goal(index)` and never enter the
/// frontier. Returns the frontier in the total order (f, -g, arena index).
template <typename Seen, typename OnGoal>
std::vector<OpenEntry> seed_expand(const SearchProblem& problem,
                                   Expander& expander, StateArena& arena,
                                   Seen& seen, double bound,
                                   std::size_t target, std::size_t max_pops,
                                   OnGoal&& on_goal) {
  const StateIndex root = arena.add_root();
  OPTSCHED_ASSERT(root == 0);  // imports hang below it (Importer)
  seen.insert(arena.sig(root));

  OpenList frontier;
  frontier.push({0.0, 0.0, root});
  for (std::size_t pops = 0;
       !frontier.empty() && frontier.size() < target && pops < max_pops;
       ++pops) {
    const OpenEntry e = frontier.pop();
    if (arena.hot(e.index).depth() == problem.num_nodes()) {
      on_goal(e.index);
      continue;
    }
    expander.expand(arena, seen, e.index, bound,
                    [&](StateIndex idx, const State& child) {
                      if (child.depth == problem.num_nodes()) {
                        on_goal(idx);
                        return;
                      }
                      frontier.push({child.f(), child.g, idx});
                    });
  }

  std::vector<OpenEntry> entries;
  while (!frontier.empty()) entries.push_back(frontier.pop());
  return entries;
}

struct Shared {
  Shared(const SearchProblem& p, const ParallelConfig& c)
      : problem(p),
        config(c),
        incumbent(std::min(p.upper_bound(), c.seed_upper_bound)),
        transport(make_transport(c, p, done)) {}

  const SearchProblem& problem;
  const ParallelConfig& config;
  std::atomic<bool> done{false};  ///< before transport: it keeps a pointer
  core::SharedIncumbent<std::vector<std::pair<NodeId, ProcId>>> incumbent;
  std::unique_ptr<Transport> transport;

  /// The limit that stopped a PPE; kOptimal while none has.
  std::atomic<core::Termination> abort_reason{core::Termination::kOptimal};
  std::atomic<std::uint64_t> total_expanded{0};
  util::Timer timer;

  double incumbent_bound() const { return incumbent.bound(); }

  /// Progress callbacks are serialized here so PPEs can report from their
  /// own threads without requiring a thread-safe user callback.
  std::mutex progress_mu;
  core::ProgressGate progress_gate{config.search.controls};  ///< ditto

  void maybe_progress() {
    const auto& controls = config.search.controls;
    if (!controls.progress) return;  // cheap pre-check before locking
    const std::uint64_t expanded =
        total_expanded.load(std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(progress_mu);
    if (!progress_gate.open(expanded)) return;
    const double lower_bound = transport->global_lower_bound();
    controls.progress({expanded, lower_bound == kInf ? 0.0 : lower_bound,
                       incumbent_bound(), timer.seconds()});
  }
};

/// One search worker. The main loop is the shared kernel
/// (core/search_kernel.hpp) instantiated over this PPE's thread-local
/// frontier/arena; Ppe itself is the kernel policy, and doubles as the
/// PpeHost the transport endpoint manipulates.
class Ppe final : public PpeHost {
 public:
  Ppe(Shared& shared, std::uint32_t id)
      : shared_(shared),
        id_(id),
        expander_(shared.problem, shared.config.search),
        importer_(shared.problem, shared.config.search, arena_),
        open_(shared.problem, shared.config.search),
        link_(shared.transport->connect(id)),
        progress_gate_(shared.config.search.controls) {}

  void run();

  const core::ExpandStats& stats() const { return expander_.stats(); }

  /// This PPE's search-state memory (arena + OPEN list + its share of the
  /// transport's structures — the local SEEN set or the sharded table).
  /// Arena and dedup structures only grow, and OPEN is small next to
  /// them, so the end-of-run value is within one OPEN list of the peak.
  std::size_t memory_bytes() const {
    return arena_.memory_bytes() + importer_.memory_bytes() +
           open_.memory_bytes() + link_->memory_bytes();
  }
  std::size_t arena_hot_bytes() const { return arena_.hot_memory_bytes(); }
  std::size_t arena_cold_bytes() const { return arena_.cold_memory_bytes(); }
  const Frontier& open() const { return open_; }

  // ---- kernel policy interface -------------------------------------------

  bool keep_searching() const {
    return !shared_.done.load(std::memory_order_acquire);
  }

  bool pop(StateIndex& out) {
    // Fast-drop a fully dominated frontier (everything >= incumbent).
    if (!open_.empty() && dominated()) open_.clear();
    if (open_.empty()) return false;
    link_->mark_busy();
    const OpenEntry e = open_.pop();
    popped_f_ = e.f;
    out = e.index;
    return true;
  }

  /// Empty frontier: the transport's refill/steal/quiescence dance.
  /// Always continues the loop — either the transport refills OPEN, or
  /// global quiescence flips the done flag keep_searching() observes.
  bool on_empty() {
    link_->on_empty(*this);
    return true;
  }

  StepAction classify(StateIndex idx) {
    if (arena_.hot(idx).depth() == shared_.problem.num_nodes())
      return StepAction::kGoal;
    if (exact() &&
        core::dominated(popped_f_, shared_.incumbent_bound(), 0.0, false))
      return StepAction::kSkip;  // stale
    return StepAction::kExpand;
  }

  /// A complete schedule: offer it to the incumbent shared by all PPEs.
  void on_goal(StateIndex idx) {
    shared_.incumbent.offer(arena_.hot(idx).g, assignment_sequence(idx));
  }

  void expand(StateIndex idx) {
    LinkSeen seen{link_.get()};
    expander_.expand(arena_, seen, idx, prune_bound(),
                     [&](StateIndex child_idx, const State& child) {
                       accept_child(child_idx, child);
                     });
    shared_.total_expanded.fetch_add(1, std::memory_order_relaxed);
  }

  void after_expand() { link_->after_expand(*this); }

  std::uint64_t expanded_count() const {
    return shared_.total_expanded.load(std::memory_order_relaxed);
  }

  std::size_t memory_now() const { return memory_bytes(); }

  /// Progress goes through the shared serialized reporter; the local gate
  /// only bounds how often this PPE takes the shared lock.
  void maybe_progress(KernelGuard&) {
    if (progress_gate_.open(expanded_count())) shared_.maybe_progress();
  }

  // ---- PpeHost interface (called by the transport) -----------------------

  std::uint32_t id() const override { return id_; }
  std::size_t frontier_size() const override { return open_.size(); }
  double frontier_min_f() const override { return open_.min_f(); }

  /// Is this PPE's frontier unable to improve on the incumbent?
  bool dominated() const override {
    return core::dominated(open_.min_f(), shared_.incumbent_bound(),
                           shared_.config.search.epsilon, false);
  }

  StateIndex pop_best() override { return open_.pop().index; }

  void push(const Entry& e) override { open_.push(e); }

  void push_batch(const std::vector<Entry>& entries) override {
    open_.push_batch(entries);
  }

  std::vector<Entry> extract_surplus(std::size_t n) override {
    // Re-read the shared incumbent at extraction time: the donation band a
    // transport computed from an earlier frontier snapshot may predate a
    // bound tightened by another PPE's goal, and exact search must never
    // donate states that bound has already killed.
    return open_.extract_surplus(n, exact() ? shared_.incumbent_bound()
                                            : kInf);
  }

  std::vector<Entry> extract_best(std::size_t n) override {
    return open_.extract_best(n);
  }

  StateMsg serialize(const Entry& e) const override {
    return {assignment_sequence(e.index), e.f};
  }

  /// Received states are always enqueued: the sender has dropped them
  /// from its OPEN, and a local SEEN hit may stand for a copy this PPE has
  /// itself shipped away, so dropping one could orphan it. Complete
  /// schedules go to the incumbent.
  void import_batch(const std::vector<StateMsg>& msgs) override {
    std::vector<Entry> entries;
    entries.reserve(msgs.size());
    for (const StateMsg& msg : msgs) {
      const SequenceReplay::Step& last = importer_.replay(msg);
      if (msg.assignments.size() == shared_.problem.num_nodes()) {
        auto seq = msg.assignments;
        shared_.incumbent.offer(last.g, std::move(seq));
        continue;
      }
      link_->record_signature(last.sig);  // best effort; duplicates tolerated
      entries.push_back(importer_.attach_or_reuse(msg));
    }
    open_.push_batch(entries);
  }

  std::vector<Entry> expand_collect(StateIndex idx) override {
    std::vector<Entry> children;
    LinkSeen seen{link_.get()};
    expander_.expand(arena_, seen, idx, prune_bound(),
                     [&](StateIndex child_idx, const State& child) {
                       if (child.depth == shared_.problem.num_nodes()) {
                         on_goal(child_idx);
                         return;
                       }
                       children.push_back({child.f(), child.g, child.h,
                                           child_idx});
                     });
    shared_.total_expanded.fetch_add(1, std::memory_order_relaxed);
    return children;
  }

 private:
  /// The pluggable duplicate-detection probe handed to the Expander: the
  /// transport decides whether it is a PPE-local set or the global
  /// sharded table.
  struct LinkSeen {
    PpeLink* link;
    bool insert(const util::Key128& k) { return link->dedup_insert(k); }
  };

  /// Seed-time probe: the pre-distribution expansion must be identical on
  /// every PPE, so the probe result comes from a throwaway local set; the
  /// mode's real structure just records the signature.
  struct SeedSeen {
    util::FlatSet128* local;
    PpeLink* link;
    bool insert(const util::Key128& k) {
      const bool fresh = local->insert(k);
      if (fresh) link->record_signature(k);
      return fresh;
    }
  };

  bool exact() const { return shared_.config.search.epsilon == 0.0; }

  double prune_bound() const {
    return core::prune_bound(shared_.config.search.prune,
                             shared_.problem.upper_bound(),
                             shared_.incumbent_bound());
  }

  std::vector<std::pair<NodeId, ProcId>> assignment_sequence(
      StateIndex idx) const {
    std::vector<std::pair<NodeId, ProcId>> seq;
    for (StateIndex i = idx; i != kNoParent; i = arena_.hot(i).parent) {
      if (arena_.hot(i).is_root()) break;
      seq.emplace_back(arena_.hot(i).node(), arena_.hot(i).proc());
    }
    std::reverse(seq.begin(), seq.end());
    return seq;
  }

  /// Push one freshly generated state, routing goals to the incumbent.
  void accept_child(StateIndex idx, const State& child) {
    if (child.depth == shared_.problem.num_nodes()) {
      on_goal(idx);
      return;
    }
    open_.push({child.f(), child.g, child.h, idx});
  }

  void initial_distribution();

  Shared& shared_;
  std::uint32_t id_;
  Expander expander_;
  StateArena arena_;  ///< before importer_, which keeps a reference
  Importer importer_;
  Frontier open_;
  std::unique_ptr<PpeLink> link_;
  core::ProgressGate progress_gate_;
  double popped_f_ = 0.0;  ///< f of the entry pop() handed out last
};

void Ppe::initial_distribution() {
  // Every PPE deterministically expands from the initial state until there
  // is a candidate state per PPE (or the space is exhausted), then takes
  // its share by the transport's seed_owner — identical computation on
  // every PPE, so no startup messages are needed.
  //
  // Seed pruning uses the *static* upper bound (tightened by a warm-start
  // seed, which is also fixed before the run), never the live incumbent:
  // a goal found by a fast-seeding PPE would otherwise shrink a slow
  // seeder's bound mid-seed, its frontier ranks would shift, and the
  // rank-based interleave hand-out could orphan a state no PPE owns
  // (breaking the optimality proof). The kept-but-dominated extras are
  // filtered by the normal incumbent checks right after seeding.
  const double seed_bound = std::min(shared_.problem.upper_bound(),
                                     shared_.config.seed_upper_bound);

  util::FlatSet128 seed_local(1 << 8);
  SeedSeen seed_seen{&seed_local, link_.get()};
  const std::vector<OpenEntry> entries = seed_expand(
      shared_.problem, expander_, arena_, seed_seen, seed_bound,
      shared_.config.num_ppes, std::numeric_limits<std::size_t>::max(),
      [&](StateIndex idx) { on_goal(idx); });

  for (std::size_t j = 0; j < entries.size(); ++j) {
    const OpenEntry& e = entries[j];
    if (shared_.transport->seed_owner(j, arena_.sig(e.index)) == id_)
      open_.push({e.f, e.g, e.f - e.g, e.index});  // the seed heap keeps no h
  }
  link_->publish(open_.min_f(), open_.size());
}

void Ppe::run() {
  initial_distribution();

  // The shared kernel owns limits/cancellation (polled every 64 pops, as
  // the hand-rolled loop did) against the shared run timer; the memory cap
  // is a per-PPE share: each PPE only sees its own arena plus its share of
  // the transport's structures, and both only grow, so the shares sum to
  // the cap.
  const auto& cfg = shared_.config.search;
  KernelGuard::Limits limits{cfg.max_expansions, cfg.time_budget_ms, 0};
  if (cfg.max_memory_bytes)
    limits.max_memory_bytes = std::max<std::size_t>(
        1, cfg.max_memory_bytes / shared_.config.num_ppes);
  KernelGuard guard(cfg.controls, limits, shared_.timer, /*poll_period=*/64);

  if (const auto hit = core::run_search_loop(guard, *this)) {
    shared_.abort_reason.store(*hit);
    shared_.done.store(true);
  }
  link_->publish(open_.min_f(), open_.size());
  // Final idle mark so a quiescence check by a straggler sees this PPE
  // parked.
  link_->mark_idle();
}

/// Satellite fix (ws-mode PPE collapse on tiny instances): dry-run the
/// deterministic seed expansion to measure how large the initial frontier
/// gets, and cap the PPE count at what that frontier can feed — one steal
/// batch per PPE. Without this, 8 PPEs fight over a frontier of a dozen
/// states and most spend the whole run stealing each other's leftovers
/// (BENCH_pr5 ws expanded_per_ppe on v=12: [389, 212, 46, 18, 16, 12, 3,
/// 3]). The measurement is a pure function of (problem, config), so the
/// clamped run stays deterministic; its expansions are thrown away and
/// bounded by 4 * num_ppes * kStealBatch pops.
std::uint32_t measure_effective_ppes(const SearchProblem& problem,
                                     const ParallelConfig& config) {
  if (config.mode != TransportMode::kWorkStealing || config.num_ppes <= 1)
    return config.num_ppes;

  struct LocalSeen {
    util::FlatSet128* set;
    bool insert(const util::Key128& k) { return set->insert(k); }
  };

  constexpr std::uint32_t batch = WsTransport::kStealBatch;
  const std::size_t target = std::size_t{config.num_ppes} * batch;
  Expander expander(problem, config.search);
  StateArena arena;
  util::FlatSet128 local(1 << 8);
  LocalSeen seen{&local};
  const std::size_t seeds =
      seed_expand(problem, expander, arena, seen,
                  std::min(problem.upper_bound(), config.seed_upper_bound),
                  target, 4 * target, [](StateIndex) {})
          .size();

  if (seeds >= target) return config.num_ppes;
  const auto feedable =
      static_cast<std::uint32_t>(std::max<std::size_t>(1, seeds / batch));
  return std::min(config.num_ppes, feedable);
}

}  // namespace

ParallelResult assemble_result(
    const SearchProblem& problem, const ParallelConfig& config,
    const std::vector<std::pair<NodeId, ProcId>>& incumbent,
    core::Termination stop) {
  ParallelResult out{
      core::SearchResult{sched::Schedule(problem.graph(), problem.machine(),
                                         problem.comm()),
                         0.0, false, 1.0, stop, {}},
      {}};
  if (incumbent.empty()) {
    // No goal beat the initial incumbent; that bound came from the static
    // upper-bound schedule or the warm-start seed, whichever was tighter.
    if (config.seed_schedule &&
        config.seed_schedule->makespan() <= problem.upper_bound())
      out.result.schedule = *config.seed_schedule;
    else
      out.result.schedule = problem.upper_bound_schedule();
  } else {
    for (const auto& [n, p] : incumbent) out.result.schedule.append(n, p);
  }
  sched::validate(out.result.schedule);
  out.result.makespan = out.result.schedule.makespan();
  if (stop != core::Termination::kOptimal) return out;  // a limit: unproved

  const double eps = config.search.epsilon;
  out.result.proved_optimal = true;
  out.result.bound_factor = 1.0 + eps;
  out.result.reason = eps == 0.0 ? core::Termination::kOptimal
                                 : core::Termination::kBoundedOptimal;
  return out;
}

ParallelResult parallel_astar_schedule(const SearchProblem& problem,
                                       const ParallelConfig& config) {
  OPTSCHED_REQUIRE(config.num_ppes >= 1, "need at least one PPE");
  OPTSCHED_REQUIRE(config.search.epsilon >= 0.0, "epsilon must be >= 0");
  StateArena::require_packable(problem.num_nodes(), problem.num_procs());

  // The distributed mode runs on its own multi-process harness, not the
  // in-process Transport substrate below.
  if (config.mode == TransportMode::kDistributed)
    return dist_astar_schedule(problem, config);

  // Run with the effective PPE count (see measure_effective_ppes); the
  // adjusted config must outlive the run — Shared keeps a reference.
  ParallelConfig run_config = config;
  run_config.num_ppes = measure_effective_ppes(problem, config);

  Shared shared(problem, run_config);
  std::vector<std::unique_ptr<Ppe>> ppes;
  ppes.reserve(run_config.num_ppes);
  for (std::uint32_t i = 0; i < run_config.num_ppes; ++i)
    ppes.push_back(std::make_unique<Ppe>(shared, i));

  {
    std::vector<std::thread> threads;
    threads.reserve(run_config.num_ppes);
    for (auto& ppe : ppes)
      threads.emplace_back([&ppe] { ppe->run(); });
    for (auto& t : threads) t.join();
  }

  ParallelResult out =
      assemble_result(problem, config, shared.incumbent.snapshot().second,
                      shared.abort_reason.load());
  for (const auto& ppe : ppes) {
    core::SearchStats s;
    static_cast<core::ExpandStats&>(s) = ppe->stats();
    s.peak_memory_bytes = ppe->memory_bytes();
    s.arena_hot_bytes = ppe->arena_hot_bytes();
    s.arena_cold_bytes = ppe->arena_cold_bytes();
    s.bucket_peak = ppe->open().peak_span();
    util::merge_counters(out.result.stats, s);
    out.par_stats.expanded_per_ppe.push_back(s.expanded);
  }
  // Every PPE builds its frontier by the same rule from the same problem.
  out.result.stats.queue_kind = ppes.front()->open().queue_kind();
  out.result.stats.queue_fallback = ppes.front()->open().queue_fallback();
  out.result.stats.elapsed_seconds = shared.timer.seconds();
  shared.transport->collect(out.par_stats);
  out.par_stats.requested_ppes = config.num_ppes;
  out.par_stats.effective_ppes = run_config.num_ppes;
  return out;
}

ParallelResult parallel_astar_schedule(const dag::TaskGraph& graph,
                                       const machine::Machine& machine,
                                       const ParallelConfig& config) {
  const SearchProblem problem(graph, machine);
  return parallel_astar_schedule(problem, config);
}

}  // namespace optsched::par
