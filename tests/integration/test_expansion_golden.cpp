// Golden expansion counters: serial A* on a handful of
// tests/data/corpus_smoke.txt instances must reproduce these ExpandStats
// exactly — with the default configuration, as Aε* at epsilon 0.2 and 0.5,
// and in paper-fidelity mode (strict f > U pruning, goals recognized at
// expansion). Every counter depends on the order in which the expander
// computes h, applies the prune tests, probes CLOSED, appends to the arena
// and emits children, and on the order OPEN then pops them; an
// optimisation of the expansion path that changes any search decision
// moves at least one of these numbers. The Aε* and paper rows also pin
// the termination and bound factor each search proves.
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

void expect_golden(const Golden& want, const core::SearchConfig& config,
                   core::Termination reason, double bound_factor) {
  const auto corpus = workload::load_corpus_file(
      std::string(OPTSCHED_TEST_DATA_DIR) + "/corpus_smoke.txt");
  ASSERT_LT(want.index, corpus.size());
  const workload::ScenarioSpec& spec = corpus[want.index];
  ASSERT_EQ(spec.to_string(), want.spec);

  const workload::Instance inst = spec.materialize();
  const core::SearchProblem problem(inst.graph, inst.machine, inst.comm);
  const core::SearchResult r = core::astar_schedule(problem, config);
  ASSERT_TRUE(r.proved_optimal);
  EXPECT_EQ(r.makespan, want.makespan);
  EXPECT_EQ(r.reason, reason);
  EXPECT_EQ(r.bound_factor, bound_factor);

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

class ExpansionGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(ExpansionGolden, SerialAStarCountersAreExact) {
  expect_golden(GetParam(), {}, core::Termination::kOptimal, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    SmokeCorpus, ExpansionGolden, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<Golden>& info) {
      return "instance" + std::to_string(info.param.index);
    });

/// The same instances under another configuration.
struct VariantGolden {
  const char* config;  ///< "eps02", "eps05" or "paper"
  Golden golden;
  core::Termination reason;
  double bound_factor;
};

core::SearchConfig variant_config(const std::string& name) {
  if (name == "paper") return core::SearchConfig::paper_faithful();
  core::SearchConfig config;
  config.epsilon = name == "eps02" ? 0.2 : 0.5;
  return config;
}

constexpr auto kOpt = core::Termination::kOptimal;
constexpr auto kBounded = core::Termination::kBoundedOptimal;

// clang-format off
const VariantGolden kVariants[] = {
    {"eps02", {31, kGolden[0].spec, 175, {4191, 5726, 3851, 6662, 0, 195, 2860, 1331, 16862}}, kBounded, 1.2},
    {"eps02", {37, kGolden[1].spec, 142, {647, 1420, 405, 860, 0, 75, 308, 339, 1846}}, kBounded, 1.2},
    {"eps02", {58, kGolden[2].spec, 231, {1040, 1078, 1064, 2124, 0, 147, 625, 415, 3821}}, kBounded, 1.2},
    {"eps02", {60, kGolden[3].spec, 158, {249, 952, 278, 111, 0, 99, 132, 117, 673}}, kBounded, 1.2},
    {"eps02", {68, kGolden[4].spec, 238, {539, 764, 547, 2613, 0, 148, 127, 412, 1231}}, kBounded, 1.2},
    {"eps02", {69, kGolden[5].spec, 248, {989, 1033, 714, 2237, 0, 84, 431, 558, 2470}}, kOpt, 1.0},
    {"eps02", {88, kGolden[6].spec, 84, {4706, 7866, 4230, 18733, 236, 158, 3315, 1391, 18524}}, kBounded, 1.2},
    {"eps02", {104, kGolden[7].spec, 57.25, {379, 1109, 316, 303, 0, 0, 236, 143, 1008}}, kBounded, 1.2},
    {"eps05", {31, kGolden[0].spec, 175, {4267, 5462, 3852, 6992, 0, 200, 2618, 1649, 16413}}, kBounded, 1.5},
    {"eps05", {37, kGolden[1].spec, 145, {49, 106, 11, 84, 0, 33, 19, 30, 102}}, kBounded, 1.5},
    {"eps05", {58, kGolden[2].spec, 236, {153, 568, 118, 189, 0, 79, 55, 98, 347}}, kBounded, 1.5},
    {"eps05", {60, kGolden[3].spec, 158, {363, 1076, 330, 330, 0, 91, 156, 207, 1023}}, kBounded, 1.5},
    {"eps05", {68, kGolden[4].spec, 238, {1, 1, 0, 0, 0, 3, 1, 0, 0}}, kBounded, 1.5},
    {"eps05", {69, kGolden[5].spec, 248, {739, 1036, 570, 1604, 0, 84, 206, 533, 1353}}, kBounded, 1.5},
    {"eps05", {88, kGolden[6].spec, 84, {3318, 7442, 2518, 13721, 136, 142, 2015, 1303, 11558}}, kBounded, 1.5},
    {"eps05", {104, kGolden[7].spec, 68.75, {268, 676, 187, 382, 0, 0, 127, 141, 553}}, kBounded, 1.5},
    {"paper", {31, kGolden[0].spec, 175, {6098, 6793, 5510, 10170, 0, 297, 4760, 1338, 26944}}, kOpt, 1.0},
    {"paper", {37, kGolden[1].spec, 142, {713, 1547, 471, 886, 0, 81, 489, 224, 2457}}, kOpt, 1.0},
    {"paper", {58, kGolden[2].spec, 231, {1076, 1264, 1094, 2022, 0, 159, 880, 196, 4643}}, kOpt, 1.0},
    {"paper", {60, kGolden[3].spec, 158, {364, 1175, 394, 216, 0, 129, 247, 117, 1234}}, kOpt, 1.0},
    {"paper", {68, kGolden[4].spec, 238, {781, 832, 742, 3675, 0, 211, 351, 430, 2566}}, kOpt, 1.0},
    {"paper", {69, kGolden[5].spec, 248, {989, 2443, 714, 827, 0, 84, 570, 419, 2998}}, kOpt, 1.0},
    {"paper", {88, kGolden[6].spec, 84, {8484, 8711, 8664, 30694, 400, 222, 6628, 1856, 37498}}, kOpt, 1.0},
    {"paper", {104, kGolden[7].spec, 57.25, {464, 1626, 380, 43, 0, 0, 382, 82, 1499}}, kOpt, 1.0},
};
// clang-format on

class ExpansionGoldenVariant : public ::testing::TestWithParam<VariantGolden> {
};

TEST_P(ExpansionGoldenVariant, SerialCountersAreExact) {
  const VariantGolden& v = GetParam();
  expect_golden(v.golden, variant_config(v.config), v.reason, v.bound_factor);
}

INSTANTIATE_TEST_SUITE_P(
    SmokeCorpus, ExpansionGoldenVariant, ::testing::ValuesIn(kVariants),
    [](const ::testing::TestParamInfo<VariantGolden>& info) {
      return std::string(info.param.config) + "_instance" +
             std::to_string(info.param.golden.index);
    });

}  // namespace
}  // namespace optsched
