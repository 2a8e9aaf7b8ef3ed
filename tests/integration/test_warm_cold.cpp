// Warm-vs-cold bit-agreement property test (the PR's soundness oracle,
// end to end): every (family x delta kind x comm mode) combination is run
// through the churn runner, which solves each perturbed instance twice —
// warm through a SolveSession and cold from scratch — and fails on any
// makespan or proved-optimal disagreement. 60 randomized cases; the
// committed tests/data/corpus_churn.txt fixture rides along.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "util/jsonl.hpp"
#include "util/strings.hpp"
#include "workload/churn.hpp"

namespace optsched::workload {
namespace {

/// One scenario skeleton plus a structurally valid delta line per kind
/// (node ids / edges chosen from the family's known shape).
struct FamilyCase {
  const char* spec;       ///< shape params only; machine/comm/seed appended
  const char* deltas[6];  ///< taskcost, edgeadd, edgedel, commcost,
                          ///< procdrop, procadd
};

constexpr FamilyCase kFamilies[] = {
    {"family=chain length=6 jitter=1",
     {"delta=taskcost node=2 cost=53", "delta=edgeadd src=0 dst=3 cost=7",
      "delta=edgedel src=2 dst=3", "delta=commcost src=1 dst=2 cost=19",
      "delta=procdrop proc=1", "delta=procadd speed=1.5"}},
    // forkjoin: node 0 = fork, node 1 = join, nodes 2..width+1 = work.
    {"family=forkjoin width=4 jitter=1",
     {"delta=taskcost node=3 cost=61", "delta=edgeadd src=2 dst=3 cost=5",
      "delta=edgedel src=0 dst=2", "delta=commcost src=2 dst=1 cost=23",
      "delta=procdrop proc=0", "delta=procadd speed=1"}},
    {"family=layered layers=3 width=2 jitter=1",
     {"delta=taskcost node=3 cost=47", "delta=edgeadd src=0 dst=4 cost=11",
      "delta=edgedel src=1 dst=3", "delta=commcost src=2 dst=4 cost=13",
      "delta=procdrop proc=1", "delta=procadd speed=2"}},
    // outtree depth counts levels: depth=3 is 0 -> {1,2} -> {3,4,5,6}.
    {"family=outtree branch=2 depth=3 jitter=1",
     {"delta=taskcost node=4 cost=37", "delta=edgeadd src=3 dst=4 cost=9",
      "delta=edgedel src=2 dst=6", "delta=commcost src=0 dst=1 cost=17",
      "delta=procdrop proc=1", "delta=procadd speed=1"}},
    // diamond half=3: rows {0} {1,2} {3,4,5} {6,7} {8}; row r node i
    // feeds i and i+1 of an expanding next row (so 1 -> 5 is fresh).
    {"family=diamond half=3 jitter=1",
     {"delta=taskcost node=4 cost=43", "delta=edgeadd src=1 dst=5 cost=3",
      "delta=edgedel src=2 dst=4", "delta=commcost src=0 dst=1 cost=29",
      "delta=procdrop proc=1", "delta=procadd speed=1.5"}},
};

constexpr const char* kMachines[] = {"machine=clique:2 comm=unit",
                                     "machine=ring:3 comm=hop"};

std::vector<ChurnCase> property_corpus() {
  std::ostringstream text;
  std::uint64_t seed = 100;
  for (const FamilyCase& fam : kFamilies)
    for (const char* machine : kMachines)
      for (const char* delta : fam.deltas)
        text << fam.spec << ' ' << machine << " seed=" << seed++ << " | "
             << delta << '\n';
  std::istringstream in(text.str());
  return parse_churn_corpus(in);
}

TEST(WarmColdOracle, SixtyRandomizedCasesBitAgree) {
  const std::vector<ChurnCase> corpus = property_corpus();
  ASSERT_GE(corpus.size(), 50u);  // families x kinds x both comm modes

  ChurnConfig config;
  config.engine = "astar";
  const ChurnReport report = run_churn(corpus, config);

  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_TRUE(report.mismatches.empty());
  EXPECT_TRUE(report.errors.empty());
  // Every step solved both ways, every pair agreed.
  for (const ChurnRecord& rec : report.records) {
    EXPECT_TRUE(rec.oracle_ok) << rec.spec;
    if (rec.warm_proved && rec.cold_proved) {
      EXPECT_NEAR(rec.warm_makespan, rec.cold_makespan, 1e-6) << rec.spec;
    }
  }
}

TEST(WarmColdOracle, CommittedChurnCorpusStaysClean) {
  const std::vector<ChurnCase> corpus =
      load_churn_corpus_file(OPTSCHED_TEST_DATA_DIR "/corpus_churn.txt");
  ASSERT_FALSE(corpus.empty());

  // The committed file covers chain lengths 1, 4, and 16 (the bench axes).
  std::size_t longest = 0, shortest = 1000;
  for (const ChurnCase& c : corpus) {
    longest = std::max(longest, c.chain.size());
    shortest = std::min(shortest, c.chain.size());
  }
  EXPECT_EQ(shortest, 1u);
  EXPECT_EQ(longest, 16u);

  ChurnConfig config;
  const ChurnReport report = run_churn(corpus, config);
  EXPECT_TRUE(report.ok()) << report.summary();
}

// Bounded engines may legitimately disagree with cold on the incumbent;
// the oracle then checks each side against the other's proved bound.
TEST(WarmColdOracle, EpsilonEngineStaysWithinBounds) {
  std::istringstream in(R"(
family=random nodes=7 ccr=1 machine=clique:2 seeds=200..204 | delta=taskcost node=3 cost=41 | delta=taskcost node=5 cost=12
)");
  const std::vector<ChurnCase> corpus = parse_churn_corpus(in);
  ASSERT_EQ(corpus.size(), 5u);

  ChurnConfig config;
  config.engine = "aeps:epsilon=0.2";
  const ChurnReport report = run_churn(corpus, config);
  EXPECT_TRUE(report.ok()) << report.summary();
}

// The churn report's schema: the record's own columns, then the counter
// table once as warm_ and once as cold_, each name exactly once, and the
// JSON records keyed by the same names.
TEST(ChurnReport, CsvAndJsonCarryEveryCounterForWarmAndCold) {
  std::istringstream in(
      "family=random nodes=7 ccr=1 machine=clique:2 seed=3 | "
      "delta=taskcost node=3 cost=41\n");
  const ChurnReport report = run_churn(parse_churn_corpus(in), {});
  ASSERT_TRUE(report.ok()) << report.summary();
  ASSERT_EQ(report.records.size(), 2u);

  std::vector<std::string> want = {
      "case",        "step",         "warm_makespan",      "cold_makespan",
      "warm_proved", "cold_proved",  "search_skipped_pct", "oracle_ok",
      "error",       "spec",         "warm_time_ms",       "cold_time_ms"};
  const api::SolveStats table;
  for (const char* prefix : {"warm_", "cold_"})
    api::SolveStats::visit(
        [&](const util::Counter& c, const auto&) {
          want.push_back(prefix + std::string(c.name));
        },
        table);
  EXPECT_EQ(std::set<std::string>(want.begin(), want.end()).size(),
            want.size())
      << "a column name appears twice";

  std::ostringstream csv;
  write_churn_csv(report, csv);
  std::istringstream rows(csv.str());
  std::string header;
  std::getline(rows, header);
  EXPECT_EQ(util::split(header, ','), want);

  std::ostringstream json;
  write_churn_json(report, json);
  const util::Json parsed = util::Json::parse(json.str());
  const auto& records = parsed.at("records").as_array();
  ASSERT_EQ(records.size(), report.records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    std::vector<std::string> keys;
    for (const auto& [key, value] : records[i].as_object()) keys.push_back(key);
    std::vector<std::string> sorted = want;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(keys, sorted) << "record " << i;
    EXPECT_EQ(records[i].at("warm_expanded").as_number(),
              static_cast<double>(report.records[i].warm.search.expanded));
    EXPECT_EQ(records[i].at("cold_queue_kind").as_string(),
              report.records[i].cold.search.queue_kind);
  }
}

}  // namespace
}  // namespace optsched::workload
