#include "core/ida_star.hpp"

#include <gtest/gtest.h>

#include "dag/generators.hpp"

namespace optsched::core {
namespace {

using machine::Machine;

TEST(IdaStar, MatchesAStarOnRandomInstances) {
  for (std::uint64_t seed : {1u, 3u, 4u, 5u, 6u, 7u}) {  // vetted seeds
    dag::RandomDagParams p;
    p.num_nodes = 9;
    p.ccr = 1.0;
    p.seed = seed;
    const auto g = dag::random_dag(p);
    const auto m = Machine::fully_connected(3);

    const auto astar = astar_schedule(g, m);
    const auto ida = ida_star_schedule(g, m);
    ASSERT_TRUE(astar.proved_optimal);
    ASSERT_TRUE(ida.proved_optimal) << seed;
    EXPECT_DOUBLE_EQ(ida.makespan, astar.makespan) << seed;
    EXPECT_NO_THROW(sched::validate(ida.schedule));
  }
}

TEST(IdaStar, MatchesAStarOnHighCcr) {
  dag::RandomDagParams p;
  p.num_nodes = 9;
  p.ccr = 10.0;
  p.seed = 3;  // vetted cheap seed
  const auto g = dag::random_dag(p);
  const auto m = Machine::fully_connected(3);
  EXPECT_DOUBLE_EQ(ida_star_schedule(g, m).makespan,
                   astar_schedule(g, m).makespan);
}

TEST(IdaStar, WorksWithEveryHeuristic) {
  dag::RandomDagParams p;
  p.num_nodes = 8;
  p.seed = 71;
  const auto g = dag::random_dag(p);
  const auto m = Machine::fully_connected(2);
  const double opt = astar_schedule(g, m).makespan;
  for (HFunction h : {HFunction::kZero, HFunction::kPaper, HFunction::kPath,
                      HFunction::kComposite}) {
    SearchConfig cfg;
    cfg.h = h;
    EXPECT_DOUBLE_EQ(ida_star_schedule(g, m, cfg).makespan, opt)
        << to_string(h);
  }
}

TEST(IdaStar, HeterogeneousMachines) {
  const auto g = dag::chain(4, 8.0, 1.0);
  const auto m = Machine::fully_connected(2, {1.0, 2.0});
  EXPECT_DOUBLE_EQ(ida_star_schedule(g, m).makespan, 16.0);
}

TEST(IdaStar, RespectsExpansionLimit) {
  dag::RandomDagParams p;
  p.num_nodes = 20;
  p.ccr = 1.0;
  p.seed = 72;
  const auto g = dag::random_dag(p);
  const auto m = Machine::fully_connected(4);
  SearchConfig cfg;
  cfg.max_expansions = 100;
  const auto r = ida_star_schedule(g, m, cfg);
  EXPECT_FALSE(r.proved_optimal);
  EXPECT_EQ(r.reason, Termination::kExpansionLimit);
  EXPECT_NO_THROW(sched::validate(r.schedule));  // incumbent fallback
}

TEST(IdaStar, RejectsApproximateConfigs) {
  const auto g = dag::paper_figure1();
  const auto m = Machine::paper_ring3();
  SearchConfig cfg;
  cfg.epsilon = 0.5;
  EXPECT_THROW(ida_star_schedule(g, m, cfg), util::Error);
}

TEST(IdaStar, PaperFidelityPruningAlsoOptimal) {
  const auto g = dag::paper_figure1();
  const auto m = Machine::paper_ring3();
  auto cfg = SearchConfig::paper_faithful();
  const auto r = ida_star_schedule(g, m, cfg);
  EXPECT_DOUBLE_EQ(r.makespan, 14.0);
  EXPECT_TRUE(r.proved_optimal);
}

}  // namespace
}  // namespace optsched::core
