#include "core/astar.hpp"

#include <gtest/gtest.h>

#include "dag/generators.hpp"
#include "sched/list_scheduler.hpp"

namespace optsched::core {
namespace {

using machine::Machine;

TEST(AStar, NeverWorseThanListHeuristics) {
  for (std::uint64_t seed : {2u, 3u, 4u, 5u, 6u}) {  // vetted cheap seeds
    dag::RandomDagParams p;
    p.num_nodes = 10;
    p.ccr = 1.0;
    p.seed = seed;
    const auto g = dag::random_dag(p);
    const auto m = Machine::fully_connected(3);
    const auto r = astar_schedule(g, m);
    ASSERT_TRUE(r.proved_optimal) << seed;
    EXPECT_LE(r.makespan, sched::upper_bound_schedule(g, m).makespan() + 1e-9);
    EXPECT_LE(r.makespan, sched::hlfet(g, m).makespan() + 1e-9);
    EXPECT_LE(r.makespan, sched::etf(g, m).makespan() + 1e-9);
  }
}

TEST(AStar, LowerBoundsRespected) {
  dag::RandomDagParams p;
  p.num_nodes = 10;
  p.seed = 11;
  const auto g = dag::random_dag(p);
  const auto m = Machine::fully_connected(3);
  const auto lv = dag::compute_levels(g);
  const auto r = astar_schedule(g, m);
  EXPECT_GE(r.makespan + 1e-9, g.total_work() / m.num_procs());
  // The schedule can never beat the chain of node weights on a CP.
  double max_sl = 0;
  for (dag::NodeId n = 0; n < g.num_nodes(); ++n)
    max_sl = std::max(max_sl, lv.static_level[n]);
  EXPECT_GE(r.makespan + 1e-9, max_sl);
}

TEST(AStar, PruningConfigurationsAgreeOnOptimum) {
  dag::RandomDagParams p;
  p.num_nodes = 9;
  p.ccr = 1.0;
  p.seed = 5;  // vetted cheap seed
  const auto g = dag::random_dag(p);
  const auto m = Machine::fully_connected(3);

  double reference = -1;
  for (const bool iso : {false, true})
    for (const bool equiv : {false, true})
      for (const bool ub : {false, true}) {
        SearchConfig cfg;
        cfg.prune.processor_isomorphism = iso;
        cfg.prune.node_equivalence = equiv;
        cfg.prune.upper_bound = ub;
        const auto r = astar_schedule(g, m, cfg);
        ASSERT_TRUE(r.proved_optimal);
        if (reference < 0) reference = r.makespan;
        EXPECT_DOUBLE_EQ(r.makespan, reference)
            << "iso=" << iso << " equiv=" << equiv << " ub=" << ub;
      }
}

TEST(AStar, ExpansionLimitReturnsValidIncumbent) {
  dag::RandomDagParams p;
  p.num_nodes = 20;
  p.ccr = 1.0;
  p.seed = 31;
  const auto g = dag::random_dag(p);
  const auto m = Machine::fully_connected(4);
  SearchConfig cfg;
  cfg.max_expansions = 50;
  const auto r = astar_schedule(g, m, cfg);
  EXPECT_FALSE(r.proved_optimal);
  EXPECT_EQ(r.reason, Termination::kExpansionLimit);
  EXPECT_NO_THROW(sched::validate(r.schedule));
  EXPECT_LE(r.makespan, sched::upper_bound_schedule(g, m).makespan() + 1e-9);
  EXPECT_LE(r.stats.expanded, 50u + 1u);
}

TEST(AStar, TimeLimitReturnsValidIncumbent) {
  dag::RandomDagParams p;
  p.num_nodes = 26;
  p.ccr = 10.0;
  p.seed = 41;
  const auto g = dag::random_dag(p);
  const auto m = Machine::fully_connected(4);
  SearchConfig cfg;
  cfg.time_budget_ms = 50;
  const auto r = astar_schedule(g, m, cfg);
  if (!r.proved_optimal) {
    EXPECT_EQ(r.reason, Termination::kTimeLimit);
    EXPECT_LT(r.stats.elapsed_seconds, 5.0);
  }
  EXPECT_NO_THROW(sched::validate(r.schedule));
}

TEST(AStar, MemoryCapAboveTheIndexClosedPeakProves) {
  // Accounted peak of this solve: 14.4 MiB with 32-byte states and CLOSED
  // holding 8-byte arena indices (4 MiB at 2^19 slots); 24.8 MiB when
  // CLOSED held the 16-byte signatures — which stopped it unproved under
  // a 22 MiB cap.
  dag::RandomDagParams p;
  p.num_nodes = 10;
  p.ccr = 10.0;
  p.seed = 4;
  const auto g = dag::random_dag(p);
  const auto m = Machine::fully_connected(3);
  SearchConfig cfg;
  cfg.max_memory_bytes = std::size_t{22} << 20;
  const auto r = astar_schedule(g, m, cfg);
  EXPECT_TRUE(r.proved_optimal);
  EXPECT_EQ(r.reason, Termination::kOptimal);
  EXPECT_LT(r.stats.peak_memory_bytes, cfg.max_memory_bytes);

  // Below the peak the cap still ends the search as a typed, unproved
  // memory-limit result carrying a valid schedule.
  cfg.max_memory_bytes = std::size_t{12} << 20;
  const auto capped = astar_schedule(g, m, cfg);
  EXPECT_FALSE(capped.proved_optimal);
  EXPECT_EQ(capped.reason, Termination::kMemoryLimit);
  EXPECT_NO_THROW(sched::validate(capped.schedule));
  EXPECT_GE(capped.makespan, r.makespan - 1e-9);
}

TEST(AStar, InvalidConfigRejected) {
  const auto g = dag::paper_figure1();
  const auto m = Machine::paper_ring3();
  SearchConfig cfg;
  cfg.epsilon = -0.1;
  EXPECT_THROW(astar_schedule(g, m, cfg), util::Error);
}

TEST(AStar, StatsArePopulated) {
  const auto g = dag::paper_figure1();
  const auto m = Machine::paper_ring3();
  const auto r = astar_schedule(g, m);
  EXPECT_GT(r.stats.expanded, 0u);
  EXPECT_GT(r.stats.generated, 0u);
  EXPECT_GT(r.stats.max_open_size, 0u);
  EXPECT_GT(r.stats.peak_memory_bytes, 0u);
  EXPECT_GE(r.stats.elapsed_seconds, 0.0);
}

TEST(AStar, HeterogeneousMachineOptimal) {
  // Chain of 4 tasks (weight 8) with light comm on a 1x/2x machine: the
  // whole chain belongs on the fast processor: 4 * 4 = 16.
  const auto g = dag::chain(4, 8.0, 1.0);
  const auto m = Machine::fully_connected(2, {1.0, 2.0});
  const auto r = astar_schedule(g, m);
  EXPECT_TRUE(r.proved_optimal);
  EXPECT_DOUBLE_EQ(r.makespan, 16.0);
}

TEST(AStar, HeterogeneousSplitWhenCommFree) {
  // Two independent tasks of weight 8 on speeds {1, 2}: optimal puts one
  // on each processor -> makespan 8 (fast one finishes at 4).
  const auto g = dag::independent_tasks(2, 8.0);
  const auto m = Machine::fully_connected(2, {1.0, 2.0});
  const auto r = astar_schedule(g, m);
  EXPECT_DOUBLE_EQ(r.makespan, 8.0);
}

TEST(AStar, HighCommunicationClustersOnOneProc) {
  const auto g = dag::fork_join(4, 10.0, 1000.0);
  const auto m = Machine::fully_connected(4);
  const auto r = astar_schedule(g, m);
  EXPECT_TRUE(r.proved_optimal);
  EXPECT_DOUBLE_EQ(r.makespan, 60.0);  // all six tasks sequential
  EXPECT_EQ(r.schedule.procs_used(), 1u);
}

TEST(AStar, ZeroCommunicationUsesAllProcs) {
  const auto g = dag::fork_join(3, 10.0, 0.0);
  const auto m = Machine::fully_connected(3);
  const auto r = astar_schedule(g, m);
  EXPECT_DOUBLE_EQ(r.makespan, 30.0);  // fork + parallel middles + join
}

TEST(AStar, HopScaledCommMode) {
  // chain a->b with comm 4 on a 3-chain machine; hop-scaled doubles the
  // cross-machine delay when endpoints sit 2 hops apart. Optimal keeps the
  // pair co-located either way, but the search must accept the mode.
  const auto g = dag::chain(2, 5.0, 4.0);
  const auto m = Machine::chain(3);
  const auto r = astar_schedule(g, m, {}, CommMode::kHopScaled);
  EXPECT_TRUE(r.proved_optimal);
  EXPECT_DOUBLE_EQ(r.makespan, 10.0);
}

TEST(AStar, SingleNodeGraph) {
  dag::TaskGraph g;
  g.add_node(7.0);
  g.finalize();
  const auto m = Machine::fully_connected(3);
  const auto r = astar_schedule(g, m);
  EXPECT_DOUBLE_EQ(r.makespan, 7.0);
  EXPECT_TRUE(r.proved_optimal);
}

TEST(AStar, StructuredWorkloads) {
  // Exercise the structured generators end-to-end at sizes where the exact
  // search is quick, asserting only validity + optimality proof.
  const auto m = Machine::fully_connected(3);
  for (const auto& g :
       {dag::gaussian_elimination(3, 20, 10), dag::diamond(3, 10, 5),
        dag::out_tree(2, 3, 10, 5), dag::in_tree(2, 3, 10, 5),
        dag::layered(3, 3, 10, 5)}) {
    const auto r = astar_schedule(g, m);
    EXPECT_TRUE(r.proved_optimal);
    EXPECT_NO_THROW(sched::validate(r.schedule));
  }
}

}  // namespace
}  // namespace optsched::core
