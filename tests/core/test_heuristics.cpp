#include "core/heuristics.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "core/expansion.hpp"
#include "dag/generators.hpp"
#include "util/rng.hpp"

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

/// Exhaustive best completion cost of arena[idx] — true h*(s) + g(s).
/// Duplicate detection must stay OFF here: dropping a transposition would
/// hide its completion value from the branch that reaches it second.
double best_completion(const SearchProblem& problem, Expander& expander,
                       StateArena& arena, StateIndex idx) {
  if (arena.hot(idx).depth() == problem.num_nodes()) return arena.hot(idx).g;
  util::FlatSet128 unused(16);
  std::vector<StateIndex> kids;
  expander.expand(arena, unused, idx, kInf,
                  [&](StateIndex k, const State&) { kids.push_back(k); });
  double best = kInf;
  for (const StateIndex k : kids)
    best = std::min(best, best_completion(problem, expander, arena, k));
  return best;
}

// For each heuristic and seed: sample states by random rollouts and verify
// h(s) <= h*(s) = best completion - g (admissibility, Theorem 1 for the
// paper's h).
class Admissibility
    : public ::testing::TestWithParam<std::tuple<HFunction, std::uint64_t>> {};

TEST_P(Admissibility, HNeverExceedsTrueRemainingCost) {
  const auto [hfn, seed] = GetParam();
  dag::RandomDagParams p;
  p.num_nodes = 6;
  p.ccr = 1.0;
  p.seed = seed;
  const dag::TaskGraph g = dag::random_dag(p);
  const Machine m = Machine::fully_connected(2);
  const SearchProblem problem(g, m);

  SearchConfig cfg;
  cfg.prune = PruneConfig::none();
  cfg.prune.duplicate_detection = false;  // full-tree probes (see above)
  Expander expander(problem, cfg);
  ExpansionContext ctx(problem);
  std::vector<double> scratch(2 * g.num_nodes(), 0.0);
  util::Rng rng(seed * 7919 + 13);
  util::FlatSet128 unused(16);

  int checked = 0;
  for (int rollout = 0; rollout < 8; ++rollout) {
    StateArena arena;
    StateIndex cur = arena.add(root_state());
    // Random partial rollout depth.
    const auto target_depth = rng.uniform_u64(0, g.num_nodes() - 1);
    for (std::uint64_t d = 0; d < target_depth; ++d) {
      std::vector<StateIndex> kids;
      expander.expand(arena, unused, cur, kInf,
                      [&](StateIndex k, const State&) { kids.push_back(k); });
      if (kids.empty()) break;
      cur = kids[rng.uniform_u64(0, kids.size() - 1)];
    }

    ctx.load(arena, cur);
    const double h = evaluate_h(hfn, problem, ctx.view(), scratch.data());
    EXPECT_GE(h, 0.0);
    const double opt = best_completion(problem, expander, arena, cur);
    ASSERT_LT(opt, kInf);
    EXPECT_LE(h, opt - ctx.g() + 1e-9)
        << to_string(hfn) << " inadmissible at depth "
        << arena.hot(cur).depth();
    ++checked;
  }
  EXPECT_EQ(checked, 8);
}

INSTANTIATE_TEST_SUITE_P(
    AllHeuristicsBySeeds, Admissibility,
    ::testing::Combine(::testing::Values(HFunction::kZero, HFunction::kPaper,
                                         HFunction::kPath,
                                         HFunction::kComposite),
                       ::testing::Values(1u, 2u, 3u, 4u)));

TEST(Heuristics, PaperValueOnFigure1Root) {
  // The paper's search tree: after scheduling n1 -> PE0, f = 2 + 10,
  // i.e. h = max sl over succ(n1) = sl(n2) = 10.
  const dag::TaskGraph g = dag::paper_figure1();
  const Machine m = Machine::paper_ring3();
  const SearchProblem problem(g, m);

  SearchConfig cfg;
  Expander expander(problem, cfg);
  StateArena arena;
  util::FlatSet128 seen(64);
  const StateIndex root_idx = arena.add(root_state());
  seen.insert(root_signature());

  // The emitted State reference is only valid during the callback: copy.
  std::vector<State> kids;
  expander.expand(arena, seen, root_idx, kInf,
                  [&](StateIndex, const State& c) { kids.push_back(c); });
  ASSERT_EQ(kids.size(), 1u);  // processor isomorphism: one state only
  EXPECT_DOUBLE_EQ(kids[0].g, 2.0);
  EXPECT_DOUBLE_EQ(kids[0].h, 10.0);
}

TEST(Heuristics, GoalStatesHaveZeroH) {
  const dag::TaskGraph g = dag::paper_figure1();
  const Machine m = Machine::paper_ring3();
  const SearchProblem problem(g, m);
  ExpansionContext ctx(problem);
  StateArena arena;
  StateIndex cur = arena.add(root_state());
  // Schedule everything on PE0 in topological order.
  for (const dag::NodeId n : g.topo_order()) {
    ctx.load(arena, cur);
    const double st = ctx.start_time(n, 0);
    const double ft = st + g.weight(n);
    State child;
    child.sig = extend_signature(arena.sig(cur), n, 0, ft);
    child.g = std::max(ctx.g(), ft);
    child.parent = cur;
    child.node = n;
    child.proc = 0;
    child.depth = arena.hot(cur).depth() + 1;
    cur = arena.add(child);
  }
  ctx.load(arena, cur);
  std::vector<double> scratch(2 * g.num_nodes());
  for (HFunction h : {HFunction::kZero, HFunction::kPaper, HFunction::kPath,
                      HFunction::kComposite})
    EXPECT_DOUBLE_EQ(evaluate_h(h, problem, ctx.view(), scratch.data()), 0.0)
        << to_string(h);
}

TEST(Heuristics, ZeroIsAlwaysZero) {
  const dag::TaskGraph g = dag::paper_figure1();
  const Machine m = Machine::paper_ring3();
  const SearchProblem problem(g, m);
  ExpansionContext ctx(problem);
  StateArena arena;
  ctx.load(arena, arena.add(root_state()));
  std::vector<double> scratch(2 * g.num_nodes());
  EXPECT_DOUBLE_EQ(
      evaluate_h(HFunction::kZero, problem, ctx.view(), scratch.data()), 0.0);
}

TEST(Heuristics, CompositeDominatesPaper) {
  // kComposite is a max over bounds including the paper's; it can never be
  // smaller at the same state.
  dag::RandomDagParams p;
  p.num_nodes = 10;
  p.seed = 5;
  const dag::TaskGraph g = dag::random_dag(p);
  const Machine m = Machine::fully_connected(3);
  const SearchProblem problem(g, m);

  SearchConfig cfg;
  Expander expander(problem, cfg);
  StateArena arena;
  util::FlatSet128 seen(256);
  StateIndex cur = arena.add(root_state());
  seen.insert(root_signature());

  ExpansionContext ctx(problem);
  std::vector<double> scratch(2 * g.num_nodes());
  for (int step = 0; step < 6; ++step) {
    std::vector<StateIndex> kids;
    expander.expand(arena, seen, cur, kInf,
                    [&](StateIndex k, const State&) { kids.push_back(k); });
    ASSERT_FALSE(kids.empty());
    cur = kids.front();
    ctx.load(arena, cur);
    const double hp =
        evaluate_h(HFunction::kPaper, problem, ctx.view(), scratch.data());
    const double hc = evaluate_h(HFunction::kComposite, problem, ctx.view(),
                                 scratch.data());
    EXPECT_GE(hc, hp - 1e-12);
  }
}

TEST(Heuristics, HeterogeneousScaling) {
  // On a machine with max speed 2, static-level bounds halve.
  const dag::TaskGraph g = dag::chain(3, 8.0, 1.0);
  const Machine fast = Machine::fully_connected(2, {2.0, 2.0});
  const SearchProblem problem(g, fast);
  EXPECT_DOUBLE_EQ(problem.sl_scale(), 0.5);

  ExpansionContext ctx(problem);
  StateArena arena;
  ctx.load(arena, arena.add(root_state()));
  std::vector<double> scratch(2 * g.num_nodes());
  // Root h_paper = max sl * 0.5 = 24 * 0.5.
  EXPECT_DOUBLE_EQ(
      evaluate_h(HFunction::kPaper, problem, ctx.view(), scratch.data()),
      12.0);
}

TEST(Heuristics, ToStringNames) {
  EXPECT_STREQ(to_string(HFunction::kZero), "h_zero");
  EXPECT_STREQ(to_string(HFunction::kPaper), "h_paper");
  EXPECT_STREQ(to_string(HFunction::kPath), "h_path");
  EXPECT_STREQ(to_string(HFunction::kComposite), "h_composite");
}

}  // namespace
}  // namespace optsched::core
