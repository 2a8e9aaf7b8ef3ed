#include "core/expansion.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "dag/generators.hpp"

namespace optsched::core {
namespace {

using machine::Machine;

constexpr double kInf = std::numeric_limits<double>::infinity();

State root_state() {
  State root;
  root.sig = root_signature();
  root.parent = kNoParent;
  return root;
}

struct Fixture {
  explicit Fixture(const dag::TaskGraph& graph, const Machine& machine,
                   SearchConfig config = {})
      : g(graph),
        m(machine),
        problem(g, m),
        cfg(config),
        expander(problem, cfg),
        seen(256) {
    root = arena.add(root_state());
    seen.insert(root_signature());
  }

  std::vector<StateIndex> expand(StateIndex idx, double bound = kInf) {
    std::vector<StateIndex> kids;
    expander.expand(arena, seen, idx, bound,
                    [&](StateIndex k, const State& s) {
                      kids.push_back(k);
                      if (h.size() <= k) h.resize(k + 1, 0.0);
                      h[k] = s.h;
                    });
    return kids;
  }

  const dag::TaskGraph& g;
  const Machine& m;
  SearchProblem problem;
  SearchConfig cfg;
  Expander expander;
  StateArena arena;
  util::FlatSet128 seen;
  StateIndex root;
  std::vector<double> h;  ///< generation-time h by arena index
};

TEST(Expansion, RootOfPaperExampleGeneratesOneState) {
  // Figure 3: only n1 -> PE0 is generated (processor isomorphism collapses
  // the three empty ring processors; n1 is the only ready node).
  const auto g = dag::paper_figure1();
  const auto m = Machine::paper_ring3();
  Fixture fx(g, m);
  const auto kids = fx.expand(fx.root);
  ASSERT_EQ(kids.size(), 1u);
  EXPECT_EQ(fx.arena.hot(kids[0]).node(), 0u);
  EXPECT_EQ(fx.arena.hot(kids[0]).proc(), 0u);
  EXPECT_DOUBLE_EQ(fx.arena.hot(kids[0]).g, 2.0);
}

TEST(Expansion, SecondLevelOfPaperExampleGeneratesFourStates) {
  // Figure 3 level 2: n2 and n4 each to PE0/PE1 (n3 pruned as equivalent
  // to n2, PE2 pruned as isomorphic to PE1).
  const auto g = dag::paper_figure1();
  const auto m = Machine::paper_ring3();
  Fixture fx(g, m);
  const auto level1 = fx.expand(fx.root);
  const auto level2 = fx.expand(level1[0]);
  ASSERT_EQ(level2.size(), 4u);

  // Check the four (node, proc, f) tuples against the published tree.
  struct Expect {
    dag::NodeId node;
    machine::ProcId proc;
    double g, h;
  };
  const std::vector<Expect> expected{
      {1, 0, 5, 7}, {1, 1, 6, 7}, {3, 0, 6, 2}, {3, 1, 8, 2}};
  for (const auto& e : expected) {
    bool found = false;
    for (const StateIndex k : level2) {
      const HotState& s = fx.arena.hot(k);
      if (s.node() == e.node && s.proc() == e.proc) {
        EXPECT_DOUBLE_EQ(s.g, e.g);
        EXPECT_DOUBLE_EQ(fx.h[k], e.h);
        found = true;
      }
    }
    EXPECT_TRUE(found) << "missing state n" << e.node + 1 << "->PE" << e.proc;
  }
  EXPECT_EQ(fx.expander.stats().skipped_equivalence, 1u);  // n3
}

TEST(Expansion, WithoutNodeEquivalenceN3Appears) {
  const auto g = dag::paper_figure1();
  const auto m = Machine::paper_ring3();
  SearchConfig cfg;
  cfg.prune.node_equivalence = false;
  Fixture fx(g, m, cfg);
  const auto level1 = fx.expand(fx.root);
  const auto level2 = fx.expand(level1[0]);
  EXPECT_EQ(level2.size(), 6u);  // n2, n3, n4 each on two processors
}

TEST(Expansion, WithoutProcessorIsomorphismAllProcsTried) {
  const auto g = dag::paper_figure1();
  const auto m = Machine::paper_ring3();
  SearchConfig cfg;
  cfg.prune.processor_isomorphism = false;
  cfg.prune.node_equivalence = false;
  Fixture fx(g, m, cfg);
  const auto level1 = fx.expand(fx.root);
  EXPECT_EQ(level1.size(), 3u);  // n1 on each of the 3 PEs
}

TEST(Expansion, DuplicateStatesDropped) {
  // Scheduling independent tasks A on P0 then B on P1 — or B on P1 then A
  // on P0 — produces the *same* partial schedule (identical finish times);
  // the second ordering must be recognized and dropped (Figure 3's "state
  // not generated because it has been visited before").
  dag::TaskGraph g;
  g.add_node(5.0, "a");
  g.add_node(7.0, "b");
  g.finalize();
  const auto m = Machine::fully_connected(2);
  SearchConfig cfg;
  cfg.prune.processor_isomorphism = false;  // make both orders generable
  cfg.prune.node_equivalence = false;
  Fixture fx(g, m, cfg);

  const auto level1 = fx.expand(fx.root);
  ASSERT_EQ(level1.size(), 4u);  // {a,b} x {P0,P1}
  std::uint64_t total_children = 0;
  for (const StateIndex s : level1) total_children += fx.expand(s).size();
  // Each of the 4 states has 2 completions = 8 paths, but only 4 distinct
  // goal schedules exist ({a,b} co-located x2 orders is distinct by time;
  // a/b split across procs collides pairwise).
  EXPECT_EQ(fx.expander.stats().duplicates_dropped, 2u);
  EXPECT_EQ(total_children, 6u);
}

TEST(Expansion, UpperBoundPruning) {
  const auto g = dag::paper_figure1();
  const auto m = Machine::paper_ring3();
  Fixture fx(g, m);
  const auto level1 = fx.expand(fx.root, /*bound=*/kInf);
  // With a tiny bound every child is pruned.
  const auto none = fx.expand(level1[0], /*bound=*/1.0);
  EXPECT_TRUE(none.empty());
  EXPECT_GT(fx.expander.stats().pruned_upper_bound, 0u);
}

TEST(Expansion, StrictVsInclusiveBound) {
  const auto g = dag::independent_tasks(1, 5.0);
  const auto m = Machine::fully_connected(1);
  {
    SearchConfig cfg;  // default: inclusive (f >= bound pruned)
    Fixture fx(g, m, cfg);
    EXPECT_TRUE(fx.expand(fx.root, 5.0).empty());
  }
  {
    SearchConfig cfg;
    cfg.prune.strict_upper_bound = true;  // paper: only f > bound pruned
    Fixture fx(g, m, cfg);
    EXPECT_EQ(fx.expand(fx.root, 5.0).size(), 1u);
  }
}

TEST(Expansion, ContextReplayMatchesSchedule) {
  // Walk a chain of expansions and verify the context agrees with an
  // independently maintained sched::Schedule.
  const auto g = dag::gaussian_elimination(3, 10, 5);
  const auto m = Machine::fully_connected(2);
  Fixture fx(g, m);
  sched::Schedule reference(g, m);
  ExpansionContext ctx(fx.problem);

  StateIndex cur = fx.root;
  while (fx.arena.hot(cur).depth() < g.num_nodes()) {
    const auto kids = fx.expand(cur);
    ASSERT_FALSE(kids.empty());
    cur = kids[0];
    const dag::NodeId node = fx.arena.hot(cur).node();
    reference.append(node, fx.arena.hot(cur).proc());
    ctx.load(fx.arena, cur);
    EXPECT_DOUBLE_EQ(ctx.finish_time(node), reference.placement(node).finish);
    EXPECT_DOUBLE_EQ(fx.arena.hot(cur).g, reference.makespan());
  }
}

TEST(ExpansionDeathTest, ReplayDivergingFromTheStoredSignatureAborts) {
  // A record whose stored signature was extended with a finish time one
  // ulp off the one its chain replays to: both a full load and a delta
  // move from a loaded sibling must abort on it.
  const auto g = dag::paper_figure1();
  const auto m = Machine::paper_ring3();
  Fixture fx(g, m);
  const StateIndex parent = fx.expand(fx.root)[0];
  const auto siblings = fx.expand(parent);
  ASSERT_GE(siblings.size(), 2u);
  const HotState good = fx.arena.hot(siblings[0]);

  ExpansionContext ctx(fx.problem);
  ctx.load(fx.arena, siblings[0]);
  ASSERT_EQ(ctx.sig(), fx.arena.sig(siblings[0]));
  const double ft = ctx.finish_time(good.node());
  State bad;
  bad.sig = extend_signature(fx.arena.sig(parent), good.node(), good.proc(),
                             std::nextafter(ft, kInf));
  bad.g = good.g;
  bad.parent = parent;
  bad.node = good.node();
  bad.proc = good.proc();
  bad.depth = good.depth();
  const StateIndex diverged = fx.arena.add(bad);

  EXPECT_DEATH(ctx.load(fx.arena, diverged), "assertion failed");

  // The sibling move is a delta (rewind one, replay one), not a reload.
  ExpandStats stats;
  ctx.set_stats(&stats);
  ctx.move_to(fx.arena, siblings[1]);
  ASSERT_EQ(stats.loads_incremental, 1u);
  ASSERT_EQ(stats.loads_full, 0u);
  EXPECT_DEATH(ctx.move_to(fx.arena, diverged), "assertion failed");
  ctx.move_to(fx.arena, siblings[0]);  // the parent process is unaffected
  EXPECT_EQ(ctx.sig(), fx.arena.sig(siblings[0]));
}

TEST(Expansion, ReadyListFollowsPriorityOrder) {
  const auto g = dag::paper_figure1();
  const auto m = Machine::paper_ring3();
  Fixture fx(g, m);
  const auto level1 = fx.expand(fx.root);
  ExpansionContext ctx(fx.problem);
  ctx.load(fx.arena, level1[0]);
  // Ready after n1: n2 (b+t = 19), n3 (19), n4 (14) — in that order.
  ASSERT_EQ(ctx.ready().size(), 3u);
  EXPECT_EQ(ctx.ready()[0], 1u);
  EXPECT_EQ(ctx.ready()[1], 2u);
  EXPECT_EQ(ctx.ready()[2], 3u);
}

TEST(Expansion, ReconstructScheduleRoundTrip) {
  const auto g = dag::paper_figure1();
  const auto m = Machine::paper_ring3();
  Fixture fx(g, m);
  StateIndex cur = fx.root;
  while (fx.arena.hot(cur).depth() < g.num_nodes()) {
    const auto kids = fx.expand(cur);
    ASSERT_FALSE(kids.empty());
    cur = kids.back();
  }
  const sched::Schedule s = reconstruct_schedule(fx.problem, fx.arena, cur);
  EXPECT_TRUE(s.complete());
  EXPECT_NO_THROW(sched::validate(s));
  EXPECT_DOUBLE_EQ(s.makespan(), fx.arena.hot(cur).g);
}

TEST(Expansion, GeneratedCountsConsistent) {
  const auto g = dag::paper_figure1();
  const auto m = Machine::paper_ring3();
  Fixture fx(g, m);
  const auto kids = fx.expand(fx.root);
  EXPECT_EQ(fx.expander.stats().expanded, 1u);
  EXPECT_EQ(fx.expander.stats().generated, kids.size());
}

}  // namespace
}  // namespace optsched::core
