// Golden expansion counters: serial A* with the default configuration on a
// handful of tests/data/corpus_smoke.txt instances must reproduce these
// ExpandStats exactly. Every counter depends on the order in which the
// expander computes h, applies the prune tests, probes CLOSED, appends to
// the arena and emits children, and on the order OPEN then pops them; an
// optimisation of the expansion path that changes any search decision
// moves at least one of these numbers.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/astar.hpp"
#include "core/problem.hpp"
#include "workload/corpus.hpp"
#include "workload/scenario.hpp"

namespace optsched {
namespace {

struct Golden {
  std::size_t index;  ///< position in the expanded smoke corpus
  const char* spec;   ///< its canonical spec line (guards the index)
  double makespan;
  core::ExpandStats stats;
};

// clang-format off
const Golden kGolden[] = {
    {31, "family=random ccr=1 nodes=7 machine=clique:3 comm=unit seed=201", 175,
     {6098, 6097, 5510, 10866, 0, 297, 4760, 1338, 26944}},
    {37, "family=random ccr=1 nodes=7 machine=clique:3 comm=unit seed=207", 142,
     {713, 1511, 471, 922, 0, 81, 489, 224, 2457}},
    {58, "family=forkjoin jitter=1 width=5 machine=clique:3 comm=unit seed=1", 231,
     {1076, 1082, 1094, 2204, 0, 159, 880, 196, 4643}},
    {60, "family=forkjoin jitter=1 width=5 machine=clique:3 comm=unit seed=3", 158,
     {364, 1152, 394, 239, 0, 129, 247, 117, 1234}},
    {68, "family=outtree branch=2 depth=3 jitter=1 machine=mesh:2x2 comm=unit seed=6", 238,
     {767, 766, 698, 3723, 0, 201, 338, 429, 2492}},
    {69, "family=intree branch=2 depth=3 jitter=1 machine=star:3 comm=hop seed=1", 248,
     {989, 1131, 714, 2139, 0, 84, 570, 419, 2998}},
    {88, "family=independent count=7 jitter=1 machine=clique:3 comm=unit seed=4", 84,
     {8013, 8012, 7848, 30169, 400, 210, 6169, 1844, 34917}},
    {104, "family=random ccr=1 nodes=6 machine=clique:3@1,2,4 comm=unit seed=402", 57.25,
     {464, 1135, 380, 534, 0, 0, 382, 82, 1499}},
};
// clang-format on

class ExpansionGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(ExpansionGolden, SerialAStarCountersAreExact) {
  const Golden& want = GetParam();
  const auto corpus = workload::load_corpus_file(
      std::string(OPTSCHED_TEST_DATA_DIR) + "/corpus_smoke.txt");
  ASSERT_LT(want.index, corpus.size());
  const workload::ScenarioSpec& spec = corpus[want.index];
  ASSERT_EQ(spec.to_string(), want.spec);

  const workload::Instance inst = spec.materialize();
  const core::SearchProblem problem(inst.graph, inst.machine, inst.comm);
  const core::SearchResult r = core::astar_schedule(problem);
  ASSERT_TRUE(r.proved_optimal);
  EXPECT_EQ(r.makespan, want.makespan);

  const core::SearchStats& s = r.stats;
  const core::ExpandStats& e = want.stats;
  EXPECT_EQ(s.expanded, e.expanded);
  EXPECT_EQ(s.generated, e.generated);
  EXPECT_EQ(s.duplicates_dropped, e.duplicates_dropped);
  EXPECT_EQ(s.pruned_upper_bound, e.pruned_upper_bound);
  EXPECT_EQ(s.skipped_equivalence, e.skipped_equivalence);
  EXPECT_EQ(s.skipped_isomorphism, e.skipped_isomorphism);
  EXPECT_EQ(s.loads_full, e.loads_full);
  EXPECT_EQ(s.loads_incremental, e.loads_incremental);
  EXPECT_EQ(s.assignments_replayed, e.assignments_replayed);
}

INSTANTIATE_TEST_SUITE_P(
    SmokeCorpus, ExpansionGolden, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<Golden>& info) {
      return "instance" + std::to_string(info.param.index);
    });

}  // namespace
}  // namespace optsched
