// SuiteRunner: sharded fan-out must produce deterministic reports, and the
// differential oracle / ScheduleValidator must actually catch engines that
// lie about optimality or emit infeasible schedules (verified by
// registering deliberately broken engines).
#include "workload/suite.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

#include "api/registry.hpp"
#include "sched/list_scheduler.hpp"
#include "util/counters.hpp"
#include "util/jsonl.hpp"
#include "workload/corpus.hpp"

namespace optsched::workload {
namespace {

std::vector<ScenarioSpec> small_corpus() {
  std::istringstream in(R"(
family=random nodes=6 ccr=1 machine=clique:2 seeds=100..105
family=forkjoin width=4 jitter=1 machine=ring:3 comm=hop seeds=1..3
family=gauss dim=3 jitter=1 machine=clique:3@1,2,4 seed=2
)");
  return parse_corpus(in);
}

/// Split CSV text into rows of cells, honoring quoted cells (with
/// doubled quotes and embedded commas/newlines).
std::vector<std::vector<std::string>> parse_csv(const std::string& text) {
  std::vector<std::vector<std::string>> rows(1, std::vector<std::string>(1));
  bool quoted = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (quoted) {
      if (c != '"') {
        rows.back().back() += c;
      } else if (i + 1 < text.size() && text[i + 1] == '"') {
        rows.back().back() += '"';
        ++i;
      } else {
        quoted = false;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      rows.back().emplace_back();
    } else if (c == '\n') {
      rows.emplace_back(1);
    } else {
      rows.back().back() += c;
    }
  }
  if (rows.back() == std::vector<std::string>(1)) rows.pop_back();
  return rows;
}

/// Drop the wall-clock columns (time_ms, elapsed_seconds) by name so
/// deterministic content can be compared across runs and thread counts.
std::string csv_without_time(const SuiteReport& report) {
  std::ostringstream os;
  write_csv(report, os);
  const auto rows = parse_csv(os.str());
  std::string out;
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size(); ++c)
      if (rows[0][c] != "time_ms" && rows[0][c] != "elapsed_seconds")
        out += row[c] + ",";
    out += "\n";
  }
  return out;
}

TEST(SuiteRunner, RunsCorpusCleanAcrossEngines) {
  SuiteConfig config;
  config.engines = {"astar", "ida", "chenyu"};
  config.jobs = 4;
  const SuiteReport report = run_suite(small_corpus(), config);

  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.instances, 10u);
  ASSERT_EQ(report.records.size(), 30u);
  for (std::size_t i = 0; i < report.records.size(); ++i) {
    const SuiteRecord& rec = report.records[i];
    EXPECT_EQ(rec.instance, i / 3);                       // row-major layout
    EXPECT_EQ(rec.engine, config.engines[i % 3]);
    EXPECT_TRUE(rec.proved_optimal) << rec.spec;
    EXPECT_TRUE(rec.valid);
    EXPECT_EQ(rec.termination, "optimal");
    EXPECT_TRUE(rec.error.empty());
    EXPECT_GT(rec.makespan, 0.0);
    EXPECT_GT(rec.nodes, 0u);
  }
  const std::string summary = report.summary();
  EXPECT_NE(summary.find("all engines agree"), std::string::npos);
}

TEST(SuiteRunner, ReportsAreDeterministicAcrossJobCounts) {
  SuiteConfig config;
  config.engines = {"astar", "chenyu"};
  config.jobs = 1;
  const SuiteReport serial = run_suite(small_corpus(), config);
  config.jobs = 8;
  const SuiteReport parallel = run_suite(small_corpus(), config);
  EXPECT_EQ(csv_without_time(serial), csv_without_time(parallel));
}

TEST(SuiteRunner, OracleCatchesAnEngineThatLiesAboutOptimality) {
  // An engine that returns a valid heuristic schedule but *claims* a
  // proved-optimal makespan nobody else can reproduce.
  class Liar : public api::Solver {
   public:
    api::SolveResult solve(const api::SolveRequest& request) const override {
      api::SolveResult result(sched::upper_bound_schedule(
          *request.graph, *request.machine, request.comm));
      result.makespan = result.schedule.makespan() + 1000.0;
      result.proved_optimal = true;
      return result;
    }
  };
  auto& registry = api::SolverRegistry::instance();
  if (!registry.contains("test_liar"))
    registry.add({"test_liar", "claims absurd proved makespans",
                  api::EngineCaps{.optimal = true},
                  {},
                  [] { return std::make_unique<Liar>(); }});

  SuiteConfig config;
  config.engines = {"astar", "test_liar"};
  const SuiteReport report = run_suite(small_corpus(), config);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.oracle_mismatches.size(), report.instances);
  EXPECT_NE(report.oracle_mismatches.front().find("test_liar"),
            std::string::npos);
  EXPECT_TRUE(report.validator_failures.empty());  // schedules were feasible
}

TEST(SuiteRunner, ValidatorCatchesAnEngineEmittingInfeasibleSchedules) {
  // An engine whose schedule ignores all precedence and data delays:
  // every task starts at time 0 on processor 0.
  class Slammer : public api::Solver {
   public:
    api::SolveResult solve(const api::SolveRequest& request) const override {
      sched::Schedule schedule(*request.graph, *request.machine, request.comm);
      for (dag::NodeId n : request.graph->topo_order())
        schedule.place(n, 0, 0.0);
      api::SolveResult result(std::move(schedule));
      result.makespan = result.schedule.makespan();
      return result;
    }
  };
  auto& registry = api::SolverRegistry::instance();
  if (!registry.contains("test_slammer"))
    registry.add({"test_slammer", "stacks every task at t=0",
                  api::EngineCaps{},
                  {},
                  [] { return std::make_unique<Slammer>(); }});

  SuiteConfig config;
  config.engines = {"test_slammer"};
  const SuiteReport report = run_suite(small_corpus(), config);
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(report.validator_failures.empty());
  for (const auto& rec : report.records) EXPECT_FALSE(rec.valid);
}

TEST(SuiteRunner, HonoursPerInstanceBudgets) {
  SuiteConfig config;
  config.engines = {"astar"};
  config.limits.max_expansions = 1;
  std::istringstream in("family=random nodes=12 ccr=1 machine=clique:3\n");
  const SuiteReport report = run_suite(parse_corpus(in), config);
  ASSERT_EQ(report.records.size(), 1u);
  EXPECT_FALSE(report.records[0].proved_optimal);
  EXPECT_EQ(report.records[0].termination, "expansion-limit");
  // A budget-limited incumbent is still a valid schedule, not an error.
  EXPECT_TRUE(report.records[0].valid);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(SuiteRunner, CancellationStopsTheSuite) {
  SuiteConfig config;
  config.engines = {"astar"};
  config.cancel.cancel();  // cancelled before the pool even starts
  const SuiteReport report = run_suite(small_corpus(), config);
  EXPECT_TRUE(report.cancelled);
  EXPECT_FALSE(report.ok());
  for (const auto& rec : report.records) EXPECT_EQ(rec.error, "not-run");
}

TEST(SuiteRunner, ProgressCallbackSeesEveryRun) {
  SuiteConfig config;
  config.engines = {"astar", "chenyu"};
  config.jobs = 4;
  std::size_t calls = 0;
  config.on_record = [&](const SuiteRecord&) { ++calls; };
  const SuiteReport report = run_suite(small_corpus(), config);
  EXPECT_EQ(calls, report.records.size());
}

TEST(SuiteRunner, RejectsUnknownOrEmptyEngines) {
  SuiteConfig config;
  EXPECT_THROW(run_suite(small_corpus(), config), util::Error);
  config.engines = {"astar", "warp-drive"};
  EXPECT_THROW(run_suite(small_corpus(), config), api::InvalidRequest);
}

TEST(SuiteRunner, WritesWellFormedCsvAndJson) {
  SuiteConfig config;
  config.engines = {"astar"};
  const SuiteReport report = run_suite(small_corpus(), config);

  std::ostringstream csv;
  write_csv(report, csv);
  std::istringstream lines(csv.str());
  std::string header;
  std::getline(lines, header);
  EXPECT_EQ(header.rfind("instance,family,engine,", 0), 0u);
  EXPECT_NE(header.find(",time_ms"), std::string::npos);
  std::size_t rows = 0;
  for (std::string line; std::getline(lines, line);) ++rows;
  EXPECT_EQ(rows, report.records.size());

  std::ostringstream json;
  write_json(report, json);
  const std::string text = json.str();
  EXPECT_NE(text.find("\"suite\""), std::string::npos);
  EXPECT_NE(text.find("\"aggregates\""), std::string::npos);
  EXPECT_NE(text.find("\"ok\": true"), std::string::npos);
  EXPECT_NE(text.find("\"records\""), std::string::npos);
  // The hetero machine spec contains a comma: its CSV cell must be quoted.
  EXPECT_NE(csv.str().find("\"family=gauss"), std::string::npos);
}

TEST(SuiteRunner, JsonStaysParseableWithUnprovedResults) {
  // Heuristic engines report bound_factor = inf; JSON has no Infinity
  // literal, so the writer must emit null instead of the bare token.
  SuiteConfig config;
  config.engines = {"blevel"};
  config.differential_oracle = false;
  const SuiteReport report = run_suite(small_corpus(), config);
  std::ostringstream json;
  write_json(report, json);
  EXPECT_EQ(json.str().find(": inf"), std::string::npos) << json.str();
  EXPECT_NE(json.str().find("\"bound_factor\": null"), std::string::npos);
}

/// The report column names of a CSV header, in order.
std::vector<std::string> header_of(const SuiteReport& report) {
  std::ostringstream csv;
  write_csv(report, csv);
  return parse_csv(csv.str()).at(0);
}

SuiteReport mixed_report() {
  SuiteConfig config;
  config.engines = {"astar", "chenyu", "parallel:mode=ws:ppes=2"};
  config.jobs = 2;
  return run_suite(small_corpus(), config);
}

TEST(SuiteRunner, EveryColumnAppearsOnceInCsvHeaderAndJsonRecord) {
  const std::vector<std::string> names = util::column_names<SuiteRecord>(
      {util::CounterClass::kSemantic, util::CounterClass::kEffort,
       util::CounterClass::kRun});
  EXPECT_EQ(std::set<std::string>(names.begin(), names.end()).size(),
            names.size())
      << "duplicate column name";

  const SuiteReport report = mixed_report();
  ASSERT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(header_of(report), names);

  std::ostringstream json;
  write_json(report, json);
  util::Json::parse(json.str());  // well-formed
  std::istringstream lines(json.str());
  std::size_t records = 0;
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("    {\"instance\": ", 0) != 0) continue;
    ++records;
    for (const auto& name : names) {
      const std::string key = "\"" + name + "\": ";
      const std::size_t first = line.find(key);
      EXPECT_NE(first, std::string::npos) << name;
      EXPECT_EQ(line.find(key, first + 1), std::string::npos) << name;
    }
  }
  EXPECT_EQ(records, report.records.size());
}

TEST(SuiteRunner, AggregatesEqualARecountOverRecords) {
  const SuiteReport report = mixed_report();
  ASSERT_TRUE(report.ok()) << report.summary();
  std::ostringstream os;
  write_json(report, os);
  const util::Json json = util::Json::parse(os.str());

  std::size_t checked = 0;
  const api::SolveStats table;
  for (const auto& engine : report.engines) {
    const util::Json& agg = json.at("aggregates").at(engine);
    api::SolveStats::visit([&](const util::Counter& c, const auto& v) {
      if constexpr (std::is_arithmetic_v<std::decay_t<decltype(v)>>) {
        if (c.merge == util::Merge::kNone) return;
        const bool sum = c.merge == util::Merge::kSum;
        double want = 0.0;
        for (const auto& rec : json.at("records").as_array()) {
          if (rec.at("engine").as_string() != engine) continue;
          const util::Json& cell = rec.at(c.name);
          const double x = cell.is_bool() ? (cell.as_bool() ? 1.0 : 0.0)
                                          : cell.as_number();
          want = sum ? want + x : std::max(want, x);
        }
        const std::string name =
            (sum ? "total_" : "max_") + std::string(c.name);
        EXPECT_EQ(agg.at(name).as_number(), want) << engine << " " << name;
        ++checked;
      }
    }, table);
  }
  EXPECT_GE(checked, 3 * 30u);
}

TEST(SuiteRunner, CsvKeepsEveryColumnOfTheEarlierSchemaInOrder) {
  // The 42-column header written before the counter table: every column
  // must survive, under its name, in the same relative order.
  const std::string earlier =
      "instance,family,engine,nodes,edges,procs,makespan,proved_optimal,"
      "bound_factor,termination,queue_kind,fallback_reason,expanded,"
      "generated,loads_full,loads_incremental,peak_memory_bytes,"
      "arena_hot_bytes,arena_cold_bytes,parallel_mode,states_transferred,"
      "steals,shard_hits,effective_ppes,warm_start_used,states_retained,"
      "search_skipped_pct,valid,error,spec,cache_hit,cache_lookups,"
      "cache_bytes,queue_wait_ms,bucket_peak,states_serialized,batches_sent,"
      "termination_rounds,states_deduped_at_send,flushes,bytes_sent,time_ms";
  const auto old_names = parse_csv(earlier).at(0);
  ASSERT_EQ(old_names.size(), 42u);
  const auto names = header_of(SuiteReport{});
  std::size_t at = 0;
  for (const auto& name : old_names) {
    const auto it = std::find(names.begin() + at, names.end(), name);
    ASSERT_NE(it, names.end()) << name << " dropped, renamed or moved";
    at = static_cast<std::size_t>(it - names.begin()) + 1;
  }
}

TEST(SuiteRunner, CsvQuotesAnErrorHoldingCommasQuotesAndNewlines) {
  SuiteReport report;
  SuiteRecord& rec = report.records.emplace_back();
  rec.spec = "family=random nodes=6 machine=clique:3@1,2,4";
  rec.engine = "astar";
  rec.error =
      "oracle: node 3 placed (1, 2.5) but \"cold\" solve says\n(0, 3)";
  std::ostringstream csv;
  write_csv(report, csv);
  const auto rows = parse_csv(csv.str());
  ASSERT_EQ(rows.size(), 2u) << csv.str();
  ASSERT_EQ(rows[1].size(), rows[0].size()) << csv.str();
  const auto col = std::find(rows[0].begin(), rows[0].end(), "error");
  ASSERT_NE(col, rows[0].end());
  EXPECT_EQ(rows[1][static_cast<std::size_t>(col - rows[0].begin())],
            rec.error);
}

}  // namespace
}  // namespace optsched::workload
