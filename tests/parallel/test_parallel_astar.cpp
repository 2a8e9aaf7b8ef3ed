#include "parallel/parallel_astar.hpp"

#include <gtest/gtest.h>

#include "bnb/exhaustive.hpp"
#include "core/astar.hpp"
#include "dag/generators.hpp"
#include "workload/scenario.hpp"

namespace optsched::par {
namespace {

using machine::Machine;

class PpeCounts : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(PpeCounts, MatchesSerialOptimumOnPaperExample) {
  const auto g = dag::paper_figure1();
  const auto m = Machine::paper_ring3();
  const core::SearchProblem problem(g, m);
  ParallelConfig cfg;
  cfg.num_ppes = GetParam();
  const auto r = parallel_astar_schedule(problem, cfg);
  EXPECT_DOUBLE_EQ(r.result.makespan, 14.0);
  EXPECT_TRUE(r.result.proved_optimal);
  EXPECT_NO_THROW(sched::validate(r.result.schedule));
}

INSTANTIATE_TEST_SUITE_P(Q, PpeCounts, ::testing::Values(1, 2, 3, 4, 8));

class ParallelSeeds
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint32_t>> {
};

TEST_P(ParallelSeeds, MatchesSerialOnRandomInstances) {
  const auto [seed, q] = GetParam();
  dag::RandomDagParams p;
  p.num_nodes = 9;
  p.ccr = 1.0;
  p.seed = seed;
  const auto g = dag::random_dag(p);
  const auto m = Machine::fully_connected(3);
  const core::SearchProblem problem(g, m);

  const auto serial = core::astar_schedule(problem);
  ASSERT_TRUE(serial.proved_optimal);

  ParallelConfig cfg;
  cfg.num_ppes = q;
  const auto parallel = parallel_astar_schedule(problem, cfg);
  EXPECT_TRUE(parallel.result.proved_optimal);
  EXPECT_DOUBLE_EQ(parallel.result.makespan, serial.makespan)
      << "seed=" << seed << " q=" << q;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ParallelSeeds,
    ::testing::Combine(::testing::Values(1u, 3u, 4u, 5u, 6u),  // vetted
                       ::testing::Values(2u, 4u)));

TEST(ParallelAStar, AllTopologiesAgree) {
  dag::RandomDagParams p;
  p.num_nodes = 8;
  p.ccr = 1.0;
  p.seed = 9;
  const auto g = dag::random_dag(p);
  const auto m = Machine::fully_connected(3);
  const core::SearchProblem problem(g, m);
  const double opt = core::astar_schedule(problem).makespan;

  for (const auto topology :
       {MailboxNetwork::Topology::kRing, MailboxNetwork::Topology::kMesh,
        MailboxNetwork::Topology::kFullyConnected}) {
    ParallelConfig cfg;
    cfg.num_ppes = 4;
    cfg.topology = topology;
    const auto r = parallel_astar_schedule(problem, cfg);
    EXPECT_DOUBLE_EQ(r.result.makespan, opt);
    EXPECT_TRUE(r.result.proved_optimal);
  }
}

TEST(ParallelAStar, EpsilonVariantBoundHolds) {
  for (std::uint64_t seed : {3u, 4u, 5u}) {
    dag::RandomDagParams p;
    p.num_nodes = 9;
    p.ccr = 1.0;
    p.seed = seed;
    const auto g = dag::random_dag(p);
    const auto m = Machine::fully_connected(3);
    const core::SearchProblem problem(g, m);
    const double opt = core::astar_schedule(problem).makespan;

    ParallelConfig cfg;
    cfg.num_ppes = 4;
    cfg.search.epsilon = 0.2;
    const auto r = parallel_astar_schedule(problem, cfg);
    EXPECT_LE(r.result.makespan, 1.2 * opt + 1e-9) << seed;
    EXPECT_GE(r.result.makespan, opt - 1e-9) << seed;
    EXPECT_NO_THROW(sched::validate(r.result.schedule));
  }
}

TEST(ParallelAStar, TimeLimitHonoured) {
  dag::RandomDagParams p;
  p.num_nodes = 24;
  p.ccr = 1.0;
  p.seed = 7;
  const auto g = dag::random_dag(p);
  const auto m = Machine::fully_connected(4);
  const core::SearchProblem problem(g, m);

  ParallelConfig cfg;
  cfg.num_ppes = 4;
  cfg.search.time_budget_ms = 100;
  const auto r = parallel_astar_schedule(problem, cfg);
  EXPECT_NO_THROW(sched::validate(r.result.schedule));
  if (!r.result.proved_optimal) {
    EXPECT_EQ(r.result.reason, core::Termination::kTimeLimit);
  }
}

TEST(ParallelAStar, ExpansionLimitHonoured) {
  dag::RandomDagParams p;
  p.num_nodes = 24;
  p.ccr = 1.0;
  p.seed = 8;
  const auto g = dag::random_dag(p);
  const auto m = Machine::fully_connected(4);
  const core::SearchProblem problem(g, m);

  ParallelConfig cfg;
  cfg.num_ppes = 4;
  cfg.search.max_expansions = 200;
  const auto r = parallel_astar_schedule(problem, cfg);
  EXPECT_NO_THROW(sched::validate(r.result.schedule));
  if (!r.result.proved_optimal) {
    EXPECT_EQ(r.result.reason, core::Termination::kExpansionLimit);
  }
}

TEST(ParallelAStar, CommunicationActuallyHappens) {
  dag::RandomDagParams p;
  p.num_nodes = 10;
  p.ccr = 1.0;
  p.seed = 10;
  const auto g = dag::random_dag(p);
  const auto m = Machine::fully_connected(3);
  const core::SearchProblem problem(g, m);

  ParallelConfig cfg;
  cfg.num_ppes = 4;
  const auto r = parallel_astar_schedule(problem, cfg);
  EXPECT_GT(r.par_stats.comm_rounds, 0u);
  EXPECT_EQ(r.par_stats.expanded_per_ppe.size(), 4u);
}

TEST(ParallelAStar, MatchesOracleOnSmallInstances) {
  for (std::uint64_t seed : {21u, 22u, 23u}) {
    dag::RandomDagParams p;
    p.num_nodes = 7;
    p.ccr = 10.0;
    p.seed = seed;
    const auto g = dag::random_dag(p);
    const auto m = Machine::fully_connected(2);
    const double oracle = bnb::exhaustive_schedule(g, m).makespan;
    const core::SearchProblem problem(g, m);
    ParallelConfig cfg;
    cfg.num_ppes = 3;
    const auto r = parallel_astar_schedule(problem, cfg);
    EXPECT_DOUBLE_EQ(r.result.makespan, oracle) << seed;
  }
}

TEST(ParallelAStar, HeterogeneousMachine) {
  const auto g = dag::chain(4, 8.0, 1.0);
  const auto m = Machine::fully_connected(2, {1.0, 2.0});
  const core::SearchProblem problem(g, m);
  ParallelConfig cfg;
  cfg.num_ppes = 2;
  const auto r = parallel_astar_schedule(problem, cfg);
  EXPECT_DOUBLE_EQ(r.result.makespan, 16.0);
}

/// Regression (ring arena blow-up): a ring PPE used to add a fresh root
/// and a whole chain for every received state, and ring neighbours hand
/// states back and forth, so the PPE arenas grew with the transfers, not
/// with the search: ring@3 held 17.9-35.9 MiB of hot arena records on this
/// item, against serial A*'s 1.48 MiB. A state imported again now reuses
/// its record (measured 4.4 MiB); the bound leaves over 2x headroom for
/// thread timing.
TEST(ParallelAStar, RingArenaGrowsWithTheSearchNotTheTransfers) {
  const workload::Instance in =
      workload::ScenarioSpec::parse(
          "family=random nodes=10 ccr=1 machine=clique:3 seed=1")
          .materialize();
  const core::SearchProblem problem(in.graph, in.machine, in.comm);
  const double serial = core::astar_schedule(problem).makespan;

  ParallelConfig cfg;
  cfg.num_ppes = 3;
  cfg.mode = TransportMode::kRing;
  const auto r = parallel_astar_schedule(problem, cfg);
  EXPECT_TRUE(r.result.proved_optimal);
  EXPECT_DOUBLE_EQ(r.result.makespan, serial);
  EXPECT_GT(r.par_stats.states_transferred, 0u);
  EXPECT_LT(r.result.stats.arena_hot_bytes, std::size_t{12} << 20);
}

TEST(ParallelAStar, RejectsBadConfig) {
  const auto g = dag::paper_figure1();
  const auto m = Machine::paper_ring3();
  const core::SearchProblem problem(g, m);
  ParallelConfig cfg;
  cfg.num_ppes = 0;
  EXPECT_THROW(parallel_astar_schedule(problem, cfg), util::Error);
}

}  // namespace
}  // namespace optsched::par
