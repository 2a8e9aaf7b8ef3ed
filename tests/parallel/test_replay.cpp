// SequenceReplay: the importer's rebuild of a transferred state. A valid
// sequence must reproduce sched::Schedule::append's finish times and
// makespan (and the signature chain the search builds); every malformed
// sequence a peer could send must throw util::Error instead of indexing
// out of bounds. Importer: phase 1 never touches the arena, and phase 2
// shares the last chain's prefix and a repeated state's record.
#include "parallel/replay.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include <limits>

#include "core/expansion.hpp"
#include "core/problem.hpp"
#include "core/signature.hpp"
#include "dag/generators.hpp"
#include "sched/schedule.hpp"
#include "util/assert.hpp"
#include "util/flat_set.hpp"

namespace optsched::par {
namespace {

using Assignments = std::vector<std::pair<dag::NodeId, machine::ProcId>>;

/// 9-node random DAG on a 5-processor ring under hop-scaled comm, so a
/// missing parent would reach Machine::hop_distance with an invalid proc.
struct Instance {
  dag::TaskGraph graph = [] {
    dag::RandomDagParams p;
    p.num_nodes = 9;
    p.ccr = 1.0;
    p.seed = 11;
    return dag::random_dag(p);
  }();
  machine::Machine machine = machine::Machine::ring(5);
  core::SearchProblem problem{graph, machine, machine::CommMode::kHopScaled};

  /// The whole graph in topological order, node n on processor n % 5.
  Assignments topological() const {
    Assignments seq;
    for (const dag::NodeId n : graph.topo_order()) seq.emplace_back(n, n % 5);
    return seq;
  }

  /// A node with at least one parent.
  dag::NodeId child_node() const {
    for (const dag::NodeId n : graph.topo_order())
      if (!graph.parents(n).empty()) return n;
    return 0;
  }
};

TEST(SequenceReplay, ValidSequenceMatchesScheduleAppend) {
  const Instance in;
  const Assignments seq = in.topological();
  sched::Schedule schedule(in.graph, in.machine, machine::CommMode::kHopScaled);
  SequenceReplay replay(in.problem);

  util::Key128 sig = core::root_signature();
  std::size_t steps = 0;
  const SequenceReplay::Step last =
      replay.run(seq, [&](const SequenceReplay::Step& s) {
        ASSERT_LT(steps, seq.size());
        EXPECT_EQ(s.node, seq[steps].first);
        EXPECT_EQ(s.proc, seq[steps].second);
        const double ft = schedule.append(s.node, s.proc);
        EXPECT_DOUBLE_EQ(s.finish, ft);
        EXPECT_DOUBLE_EQ(s.g, schedule.makespan());
        sig = core::extend_signature(sig, s.node, s.proc, ft);
        EXPECT_EQ(s.sig, sig);
        ++steps;
      });

  EXPECT_EQ(steps, seq.size());
  EXPECT_DOUBLE_EQ(last.g, schedule.makespan());
  EXPECT_EQ(last.sig, sig);
  for (const auto& [node, proc] : seq)
    EXPECT_DOUBLE_EQ(replay.finish(node), schedule.placement(node).finish);
}

TEST(SequenceReplay, MalformedSequencesThrowTypedErrors) {
  const Instance in;
  SequenceReplay replay(in.problem);
  const auto noop = [](const SequenceReplay::Step&) {};
  const Assignments valid = in.topological();
  const dag::NodeId child = in.child_node();
  ASSERT_FALSE(in.graph.parents(child).empty());

  // Node id >= v.
  Assignments bad_node = {valid[0], {in.problem.num_nodes(), 0}};
  EXPECT_THROW(replay.run(bad_node, noop), util::Error);

  // Processor id >= p.
  Assignments bad_proc = {{valid[0].first, in.problem.num_procs()}};
  EXPECT_THROW(replay.run(bad_proc, noop), util::Error);

  // A node whose parent comes later in the sequence.
  const auto [parent, cost] = in.graph.parents(child)[0];
  Assignments parent_later = {{child, 1}, {parent, 0}};
  EXPECT_THROW(replay.run(parent_later, noop), util::Error);

  // A node assigned twice.
  Assignments repeated = {valid[0], valid[0]};
  EXPECT_THROW(replay.run(repeated, noop), util::Error);

  // A failed replay leaves no residue: the next valid one is exact.
  sched::Schedule schedule(in.graph, in.machine, machine::CommMode::kHopScaled);
  for (const auto& [node, proc] : valid) schedule.append(node, proc);
  EXPECT_DOUBLE_EQ(replay.run(valid, noop).g, schedule.makespan());
}

// ---- Importer --------------------------------------------------------------

/// An arena holding only the root, as every worker starts.
core::StateArena rooted_arena() {
  core::StateArena arena;
  core::State root;
  root.sig = core::root_signature();
  root.parent = core::kNoParent;
  arena.add(root);
  return arena;
}

/// What a sender ships: the children of `expanded` (an index into the
/// sender's arena), as (assignment sequence, f) in generation order, so
/// siblings are adjacent. Returns the new states' indices too.
std::vector<StateMsg> ship_children(core::Expander& expander,
                                    core::StateArena& arena,
                                    core::StateIndex expanded,
                                    std::vector<core::StateIndex>* indices) {
  struct AllFresh {
    static bool insert(const util::Key128&) { return true; }
  } fresh;
  std::vector<StateMsg> out;
  expander.expand(arena, fresh, expanded,
                  std::numeric_limits<double>::infinity(),
                  [&](core::StateIndex idx, const core::State& child) {
                    StateMsg msg;
                    for (core::StateIndex i = idx; !arena.hot(i).is_root();
                         i = arena.hot(i).parent)
                      msg.assignments.emplace_back(arena.hot(i).node(),
                                                   arena.hot(i).proc());
                    std::reverse(msg.assignments.begin(),
                                 msg.assignments.end());
                    msg.f = child.f();
                    out.push_back(std::move(msg));
                    if (indices) indices->push_back(idx);
                  });
  return out;
}

/// Depth-1 states (the root's children) and depth-2 siblings (the
/// children of the first of them).
struct Shipped {
  std::vector<StateMsg> children, grandchildren;
};

Shipped shipped_states(const core::SearchProblem& problem) {
  core::Expander expander(problem, core::SearchConfig{});
  core::StateArena sender = rooted_arena();
  std::vector<core::StateIndex> child_idx;
  Shipped s;
  s.children = ship_children(expander, sender, 0, &child_idx);
  if (!child_idx.empty())
    s.grandchildren =
        ship_children(expander, sender, child_idx[0], nullptr);
  return s;
}

TEST(Importer, SiblingsAddOneRecordEachAfterTheFirst) {
  const Instance in;
  const Shipped shipped = shipped_states(in.problem);
  ASSERT_GE(shipped.grandchildren.size(), 2u);
  core::StateArena arena = rooted_arena();
  Importer importer(in.problem, core::SearchConfig{}, arena);
  for (std::size_t i = 0; i < shipped.grandchildren.size(); ++i) {
    const StateMsg& msg = shipped.grandchildren[i];
    const std::size_t before = arena.size();
    const SequenceReplay::Step last = importer.replay(msg);
    const core::Frontier::Entry e = importer.attach(msg);
    EXPECT_EQ(arena.size() - before, i == 0 ? msg.assignments.size() : 1u)
        << "sibling " << i;
    EXPECT_EQ(arena.sig(e.index), last.sig);
    EXPECT_EQ(arena.hot(e.index).depth(), msg.assignments.size());
    EXPECT_DOUBLE_EQ(e.g, last.g);
    EXPECT_DOUBLE_EQ(e.f, msg.f);
    EXPECT_DOUBLE_EQ(e.f, e.g + e.h);  // f travels in the entry only
  }
}

/// A PPE admits every received state, including ones it imported before:
/// the imports hang below the one root and a repeat adds no record.
TEST(Importer, AlwaysAdmittedImportsNeverAddARootNorRepeat) {
  const Instance in;
  const Shipped shipped = shipped_states(in.problem);
  core::StateArena arena = rooted_arena();
  Importer importer(in.problem, core::SearchConfig{}, arena);
  std::size_t after_first_pass = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto* batch : {&shipped.grandchildren, &shipped.children})
      for (const StateMsg& msg : *batch) {
        importer.replay(msg);
        const core::Frontier::Entry e = importer.attach_or_reuse(msg);
        EXPECT_DOUBLE_EQ(e.f, msg.f);
      }
    if (pass == 0) after_first_pass = arena.size();
  }
  EXPECT_EQ(arena.size(), after_first_pass);  // the repeat pass added none
  std::size_t roots = 0;
  for (core::StateIndex i = 0; i < arena.size(); ++i)
    roots += arena.hot(i).is_root() ? 1 : 0;
  EXPECT_EQ(roots, 1u);
}

/// Two orders of one partial schedule have one signature, but h reads
/// the node that attains g, the first in assignment order on a tie, so a
/// repeat is recognised by its sequence: the other order gets its own
/// record (and the f check inside attach holds for both).
TEST(Importer, EqualSignatureInAnotherOrderIsNotAReuse) {
  dag::TaskGraph graph;
  const dag::NodeId a = graph.add_node(2.0);
  const dag::NodeId b = graph.add_node(2.0);
  const dag::NodeId c = graph.add_node(3.0);
  graph.add_edge(a, c, 1.0);
  graph.add_edge(b, c, 4.0);
  graph.finalize();
  const machine::Machine machine = machine::Machine::fully_connected(2);
  const core::SearchProblem problem(graph, machine);
  core::SearchConfig config;
  config.prune = core::PruneConfig::none();  // keep both orders

  // The sender: both (a,0)(b,1) and (b,1)(a,0), with their own f.
  core::Expander expander(problem, config);
  core::StateArena sender = rooted_arena();
  std::vector<core::StateIndex> firsts;
  const std::vector<StateMsg> children =
      ship_children(expander, sender, 0, &firsts);
  std::vector<StateMsg> orders;
  for (std::size_t i = 0; i < children.size(); ++i) {
    const auto& first = children[i].assignments[0];
    const auto want = first == std::pair{a, machine::ProcId{0}}
                          ? std::pair{b, machine::ProcId{1}}
                          : std::pair{a, machine::ProcId{0}};
    if (first != std::pair{a, machine::ProcId{0}} &&
        first != std::pair{b, machine::ProcId{1}})
      continue;
    for (const StateMsg& m :
         ship_children(expander, sender, firsts[i], nullptr))
      if (m.assignments[1] == want) orders.push_back(m);
  }
  ASSERT_EQ(orders.size(), 2u);

  core::StateArena arena = rooted_arena();
  Importer importer(problem, config, arena);
  const util::Key128 sig = importer.replay(orders[0]).sig;
  importer.attach_or_reuse(orders[0]);
  EXPECT_EQ(importer.replay(orders[1]).sig, sig);
  const std::size_t before = arena.size();
  const core::Frontier::Entry e = importer.attach_or_reuse(orders[1]);
  EXPECT_EQ(arena.size(), before + 2);  // a chain of its own
  EXPECT_DOUBLE_EQ(e.f, orders[1].f);
}

TEST(Importer, MalformedSequenceThrowsAndLeavesTheArenaAlone) {
  const Instance in;
  const Shipped shipped = shipped_states(in.problem);
  ASSERT_GE(shipped.grandchildren.size(), 2u);
  core::StateArena arena = rooted_arena();
  Importer importer(in.problem, core::SearchConfig{}, arena);
  importer.replay(shipped.grandchildren[0]);
  importer.attach(shipped.grandchildren[0]);
  const std::size_t before = arena.size();

  const dag::NodeId child = in.child_node();
  const auto [parent, cost] = in.graph.parents(child)[0];
  StateMsg bad;
  bad.assignments = {{child, 1}, {parent, 0}};  // child before its parent
  EXPECT_THROW(importer.replay(bad), util::Error);
  EXPECT_EQ(arena.size(), before);

  // The next import is unaffected: a sibling still adds one record.
  importer.replay(shipped.grandchildren[1]);
  importer.attach(shipped.grandchildren[1]);
  EXPECT_EQ(arena.size(), before + 1);
}

/// dist admits only fresh signatures: a refused state is replayed and
/// never attached, and adds nothing.
TEST(Importer, RefusedAdmissionAddsNothing) {
  const Instance in;
  const Shipped shipped = shipped_states(in.problem);
  core::StateArena arena = rooted_arena();
  Importer importer(in.problem, core::SearchConfig{}, arena);
  util::FlatSet128 seen;
  std::size_t admitted = 0;
  for (int pass = 0; pass < 2; ++pass)
    for (const StateMsg& msg : shipped.children) {
      const std::size_t before = arena.size();
      if (!seen.insert(importer.replay(msg).sig)) {
        EXPECT_EQ(arena.size(), before);
        continue;
      }
      importer.attach(msg);
      ++admitted;
    }
  EXPECT_EQ(admitted, shipped.children.size());
  EXPECT_EQ(arena.size(), 1 + shipped.children.size());
}

}  // namespace
}  // namespace optsched::par
