// Aε* (FOCAL) tests — paper §3.4 / Theorem 2.
#include <gtest/gtest.h>

#include "core/astar.hpp"
#include "core/search_kernel.hpp"
#include "dag/generators.hpp"

namespace optsched::core {
namespace {

using machine::Machine;

class EpsilonSweep
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>> {};

TEST_P(EpsilonSweep, EpsilonAdmissibleBoundHolds) {
  const auto [eps, seed] = GetParam();
  dag::RandomDagParams p;
  p.num_nodes = 10;
  p.ccr = 1.0;
  p.seed = seed;
  const auto g = dag::random_dag(p);
  const auto m = Machine::fully_connected(3);

  const auto exact = astar_schedule(g, m);
  ASSERT_TRUE(exact.proved_optimal);

  SearchConfig cfg;
  cfg.epsilon = eps;
  const auto approx = astar_schedule(g, m, cfg);
  EXPECT_NO_THROW(sched::validate(approx.schedule));
  EXPECT_LE(approx.makespan, (1.0 + eps) * exact.makespan + 1e-9)
      << "eps=" << eps << " seed=" << seed;
  EXPECT_GE(approx.makespan, exact.makespan - 1e-9);
  EXPECT_LE(approx.bound_factor, 1.0 + eps + 1e-12);
}

// Seeds vetted to keep exact search small in every configuration (some
// v=10 instances blow past 10^6 states — that explosion is the paper's
// Table 1, not a unit test).
INSTANTIATE_TEST_SUITE_P(
    Grid, EpsilonSweep,
    ::testing::Combine(::testing::Values(0.1, 0.2, 0.5, 1.0),
                       ::testing::Values(2u, 3u, 4u, 5u, 6u, 7u)));

TEST(Epsilon, SavesWorkOnAverage) {
  // The FOCAL search's raison d'être: less work when the bound lets it
  // stop early. FOCAL's non-min-f selection can occasionally expand more
  // on a given instance, so assert the aggregate saving plus a sane
  // per-instance ceiling.
  std::uint64_t exact_total = 0, approx_total = 0;
  for (std::uint64_t seed : {1u, 2u, 3u, 5u, 8u, 9u, 10u, 13u}) {  // vetted
    dag::RandomDagParams p;
    p.num_nodes = 11;
    p.ccr = 1.0;
    p.seed = seed;
    const auto g = dag::random_dag(p);
    const auto m = Machine::fully_connected(3);

    const auto exact = astar_schedule(g, m);
    SearchConfig cfg;
    cfg.epsilon = 0.5;
    const auto approx = astar_schedule(g, m, cfg);
    EXPECT_LE(approx.stats.expanded, 2 * exact.stats.expanded + 100) << seed;
    exact_total += exact.stats.expanded;
    approx_total += approx.stats.expanded;
  }
  EXPECT_LE(approx_total, exact_total);
}

TEST(Epsilon, ReportsBoundedOptimalWhenNotExact) {
  dag::RandomDagParams p;
  p.num_nodes = 12;
  p.ccr = 10.0;
  p.seed = 17;
  const auto g = dag::random_dag(p);
  const auto m = Machine::fully_connected(3);
  SearchConfig cfg;
  cfg.epsilon = 0.5;
  cfg.max_expansions = 20000;
  cfg.time_budget_ms = 10000;
  const auto r = astar_schedule(g, m, cfg);
  if (r.reason == Termination::kBoundedOptimal) {
    EXPECT_TRUE(r.proved_optimal);  // proved within the bound
    EXPECT_DOUBLE_EQ(r.bound_factor, 1.5);
  } else {
    EXPECT_TRUE(r.reason == Termination::kOptimal ||
                r.reason == Termination::kExpansionLimit);
  }
}

// The incumbent rule every engine proves with (core::dominated), two
// tolerances either side of the incumbent and of the (1+eps) edge.
TEST(Epsilon, DominanceTestTable) {
  constexpr double inc = 120.0;
  constexpr double tol = 1e-9;
  const struct {
    double f, eps;
    bool strict, dominated;
  } rows[] = {
      // epsilon 0: incumbent <= f + tol; strict: f > incumbent + tol.
      {inc - 2 * tol, 0.0, false, false},
      {inc, 0.0, false, true},
      {inc + 2 * tol, 0.0, false, true},
      {inc - 2 * tol, 0.0, true, false},
      {inc, 0.0, true, false},
      {inc + 2 * tol, 0.0, true, true},
      // epsilon 0.2: incumbent <= 1.2 f + tol, strict or not.
      {inc - 2 * tol, 0.2, false, true},
      {inc, 0.2, false, true},
      {inc + 2 * tol, 0.2, false, true},
      {inc - 2 * tol, 0.2, true, true},
      {inc, 0.2, true, true},
      {inc + 2 * tol, 0.2, true, true},
      {inc / 1.2 - 2 * tol, 0.2, false, false},
      {inc / 1.2, 0.2, false, true},
      {inc / 1.2 + 2 * tol, 0.2, false, true},
      {inc / 1.2 - 2 * tol, 0.2, true, false},
  };
  for (const auto& r : rows)
    EXPECT_EQ(dominated(r.f, inc, r.eps, r.strict), r.dominated)
        << "f=" << r.f << " eps=" << r.eps << " strict=" << r.strict;
}

TEST(Epsilon, ZeroEpsilonIsPlainAStar) {
  const auto g = dag::paper_figure1();
  const auto m = Machine::paper_ring3();
  SearchConfig cfg;
  cfg.epsilon = 0.0;
  const auto r = astar_schedule(g, m, cfg);
  EXPECT_DOUBLE_EQ(r.makespan, 14.0);
  EXPECT_DOUBLE_EQ(r.bound_factor, 1.0);
}

TEST(Epsilon, LargeEpsilonStillValid) {
  dag::RandomDagParams p;
  p.num_nodes = 14;
  p.ccr = 1.0;
  p.seed = 23;
  const auto g = dag::random_dag(p);
  const auto m = Machine::fully_connected(4);
  SearchConfig cfg;
  cfg.epsilon = 10.0;
  cfg.time_budget_ms = 5000;
  const auto r = astar_schedule(g, m, cfg);
  EXPECT_NO_THROW(sched::validate(r.schedule));
  EXPECT_LE(r.makespan, g.total_work() + 1e-9);
}

TEST(Epsilon, PaperExampleWithin20Percent) {
  const auto g = dag::paper_figure1();
  const auto m = machine::Machine::paper_ring3();
  SearchConfig cfg;
  cfg.epsilon = 0.2;
  const auto r = astar_schedule(g, m, cfg);
  EXPECT_LE(r.makespan, 1.2 * 14.0 + 1e-9);
}

}  // namespace
}  // namespace optsched::core
