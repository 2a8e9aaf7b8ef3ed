// Churn runner: warm-start re-solve chains with a warm-vs-cold oracle.
//
// A churn case is one scenario plus a chain of perturbations:
//
//   family=layered n=12 ... seed=3 | delta=taskcost node=4 cost=9 | ...
//
// The runner materializes the scenario, solves it cold through a
// SolveSession, then applies the chain one delta at a time: each step is
// re-solved *warm* through the session (arena prefix reuse + repaired
// incumbent seed) and — independently — *cold* on the same perturbed
// instance. The pair feeds two outputs:
//
//   Soundness oracle. For exact configurations warm must bit-agree with
//   cold: same makespan (within tolerance) and same proved_optimal. For
//   bounded engines (Aε*) the two may legitimately differ; then each
//   result must lie within the other's proved bound. Any violation is
//   recorded as a mismatch and fails ok().
//
//   Savings measurement. search_skipped_pct here is the *exact*
//   100 * (1 - warm_expanded / cold_expanded) — both runs actually
//   happened — unlike the session's own estimate against the previous
//   solve. The by-step aggregates (and single_delta_skip_mean_pct) are
//   what BENCH_pr6.json records; perfbench/run.py's resolve-churn
//   workload measures the same warm resolves end to end.
//
// Runs are serial: a chain is inherently sequential, and the cold
// reference runs interleave with the warm ones on the same thread so the
// per-step timing columns are comparable.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "api/solver.hpp"
#include "workload/perturbation.hpp"
#include "workload/scenario.hpp"

namespace optsched::workload {

/// One scenario plus its perturbation chain.
struct ChurnCase {
  ScenarioSpec base;
  std::vector<PerturbationSpec> chain;

  /// Canonical "scenario | delta | delta" line (round-trips).
  std::string to_string() const;
};

/// Parse "scenario | pert | pert" lines; '#' starts a comment, blank lines
/// are skipped, and a `seeds=A..B` token in the scenario segment expands
/// to one case per seed (same chain). Throws util::Error with the line
/// number on malformed lines.
std::vector<ChurnCase> parse_churn_corpus(std::istream& in);
std::vector<ChurnCase> load_churn_corpus_file(const std::string& path);

struct ChurnConfig {
  /// Engine spec "name[:k=v...]" (api::parse_engine_spec); one engine per
  /// run — warm and cold use the identical configuration.
  std::string engine = "astar";
  api::SolveLimits limits{};
  double oracle_tolerance = 1e-6;
  core::CancellationToken cancel{};
  /// Called once per finished step record (progress reporting).
  std::function<void(const struct ChurnRecord&)> on_record;
};

/// One step of one case. step 0 is the initial cold solve (warm == cold
/// by construction); step k >= 1 is the k-th delta of the chain.
struct ChurnRecord {
  std::size_t case_index = 0;
  std::size_t step = 0;
  std::string spec;  ///< scenario line (step 0) or perturbation line
  double warm_makespan = 0.0;
  double cold_makespan = 0.0;
  bool warm_proved = false;
  bool cold_proved = false;
  /// Exact skip: 100 * (1 - warm expanded / cold expanded). Negative when
  /// warm expanded more (never clamped — this is the honest figure).
  double search_skipped_pct = 0.0;
  bool oracle_ok = true;
  std::string error;  ///< exception text; empty on success
  double warm_time_ms = 0.0;
  double cold_time_ms = 0.0;
  /// Every counter of the warm and of the cold solve.
  api::SolveStats warm, cold;

  /// Every report column (util/counters.hpp): the record's own columns,
  /// then the counter table once as `warm_` and once as `cold_`.
  template <class F>
  void visit_columns(F&& f) const;
};

/// Aggregates over all records with the same step index (step >= 1).
struct ChurnStepAggregate {
  std::size_t step = 0;
  std::size_t cases = 0;
  double warm_expanded_mean = 0.0;
  double cold_expanded_mean = 0.0;
  double skip_mean_pct = 0.0;
  double warm_time_ms_mean = 0.0;
  double cold_time_ms_mean = 0.0;
};

struct ChurnReport {
  std::vector<ChurnRecord> records;  ///< case-major, step order
  std::vector<std::string> mismatches;
  std::vector<std::string> errors;
  std::string engine;
  std::size_t cases = 0;
  bool cancelled = false;
  double wall_ms = 0.0;

  /// Mean exact skip over every first-delta step (the acceptance figure).
  double single_delta_skip_mean_pct = 0.0;
  std::vector<ChurnStepAggregate> by_step;

  bool ok() const {
    return mismatches.empty() && errors.empty() && !cancelled;
  }

  std::string summary() const;
};

ChurnReport run_churn(const std::vector<ChurnCase>& corpus,
                      const ChurnConfig& config);

/// One row per record, in ChurnRecord::visit_columns order. Determinism
/// diffs strip the run class (`optsched_cli resolve --list-columns=run`).
void write_churn_csv(const ChurnReport& report, std::ostream& out);

/// Full report as JSON: metadata, by-step aggregates, failure lists, and
/// all records, each with the CSV's columns as keys.
void write_churn_json(const ChurnReport& report, std::ostream& out);

template <class F>
void ChurnRecord::visit_columns(F&& f) const {
  using util::Counter;
  using enum util::Merge;
  using enum util::CounterClass;
  f("", Counter{"case", kNone, kSemantic}, case_index);
  f("", Counter{"step", kNone, kSemantic}, step);
  f("", Counter{"warm_makespan", kNone, kSemantic}, warm_makespan);
  f("", Counter{"cold_makespan", kNone, kSemantic}, cold_makespan);
  f("", Counter{"warm_proved", kNone, kSemantic}, warm_proved);
  f("", Counter{"cold_proved", kNone, kSemantic}, cold_proved);
  f("", Counter{"search_skipped_pct", kNone, kEffort}, search_skipped_pct);
  f("", Counter{"oracle_ok", kNone, kSemantic}, oracle_ok);
  f("", Counter{"error", kNone, kSemantic}, error);
  f("", Counter{"spec", kNone, kSemantic}, spec);
  f("", Counter{"warm_time_ms", kNone, kRun}, warm_time_ms);
  f("", Counter{"cold_time_ms", kNone, kRun}, cold_time_ms);
  for (const api::SolveStats* stats : {&warm, &cold})
    api::SolveStats::visit([&](const Counter& c, const auto& v) {
      f(stats == &warm ? "warm_" : "cold_", c, v);
    }, *stats);
}

}  // namespace optsched::workload
