// SequenceReplay: the importers' shared rebuild of a transferred state.
// A valid sequence must reproduce sched::Schedule::append's finish times
// and makespan (and the signature chain the search builds); every
// malformed sequence a peer could send must throw util::Error instead of
// indexing out of bounds.
#include "parallel/replay.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <utility>
#include <vector>

#include "core/problem.hpp"
#include "core/signature.hpp"
#include "dag/generators.hpp"
#include "sched/schedule.hpp"
#include "util/assert.hpp"

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

}  // namespace
}  // namespace optsched::par
