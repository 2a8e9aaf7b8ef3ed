// SuiteRunner: fan a scenario corpus out across a thread pool of
// SolveRequests and aggregate one report.
//
// Sharding is per instance: workers claim corpus indices from an atomic
// counter, materialize the instance once, run every configured engine on
// it sequentially (so the per-instance differential oracle sees all
// results together), validate every returned schedule with
// ScheduleValidator, and write records into preallocated (instance,
// engine) slots — the report is therefore deterministic regardless of the
// thread count or completion order; for serial engines only the run-class
// columns (timing, serving layer) vary.
//
// The differential oracle per instance:
//  * all proved-optimal results (bound_factor == 1) must agree on the
//    makespan;
//  * a proved bounded result (Aε*) must lie in
//    [optimal, bound_factor * optimal];
//  * every other result (heuristics, budget-limited incumbents) must be
//    >= the proved optimum.
// Any disagreement is recorded as an oracle mismatch and fails ok().
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "api/solver.hpp"
#include "util/counters.hpp"
#include "workload/scenario.hpp"

namespace optsched::workload {

struct SuiteConfig {
  /// Engine specs, "name[:k=v[:k=v...]]" — a registry name plus engine
  /// options (api::parse_engine_spec), so one suite can cross-check
  /// configurations of the same engine (e.g. "parallel:mode=ring:ppes=4"
  /// vs "parallel:mode=ws:ppes=4"). Must be non-empty; reports key
  /// records off the full spec string.
  std::vector<std::string> engines;
  unsigned jobs = 1;                 ///< worker threads (clamped to corpus)
  api::SolveLimits limits{};         ///< per-instance budgets (0 = none)
  bool validate_schedules = true;    ///< run ScheduleValidator on every run
  bool differential_oracle = true;   ///< cross-check engines per instance
  double oracle_tolerance = 1e-6;    ///< absolute makespan slack
  core::CancellationToken cancel{};  ///< aborts the whole suite
  /// Called once per finished run, serialized under an internal mutex
  /// (suitable for progress lines from any worker).
  std::function<void(const struct SuiteRecord&)> on_record;
  /// Remote execution hook: when set, every (instance, engine) run is
  /// delegated here instead of calling api::solve in-process — the
  /// CLI's `suite --via-socket` mode routes runs through a
  /// server::Client, reusing this corpus fan-out as the daemon's
  /// concurrent-load driver. The hook receives the locally
  /// materialized instance (its `name` is the canonical spec line) and
  /// must return a result whose schedule borrows that instance, so the
  /// ScheduleValidator and the differential oracle apply to remote
  /// results exactly as to local ones. Called concurrently from
  /// `jobs` worker threads; open one connection per thread.
  std::function<api::SolveResult(
      const Instance& instance, const std::string& engine_spec,
      const api::SolveLimits& limits)>
      remote_solve;
};

/// One (instance, engine) run. For serial engines every field except
/// the run-class counters and time_ms is a pure function of the spec and
/// engine, so reports diff cleanly across runs; multithreaded engines
/// (`parallel`, `portfolio`) report timing-dependent effort counters,
/// which is why the CLI's default engine set is serial-only.
struct SuiteRecord {
  std::size_t instance = 0;  ///< corpus index
  std::string spec;          ///< canonical scenario line
  std::string family;
  std::string engine;        ///< full engine spec ("parallel:mode=ws")
  std::size_t nodes = 0;
  std::size_t edges = 0;
  std::uint32_t procs = 0;
  double makespan = 0.0;
  bool proved_optimal = false;
  double bound_factor = 0.0;
  std::string termination;
  /// Every engine counter, reported through the counter table
  /// (api::SolveStats::visit). expanded_per_ppe is sorted descending.
  api::SolveStats stats;
  bool valid = false;  ///< ScheduleValidator verdict (true when disabled)
  std::string error;   ///< exception text; empty on success
  double time_ms = 0.0;

  /// Copy a solve's outcome and counters into the record.
  void take(const api::SolveResult& result);

  /// Every report column in schema order (util/counters.hpp). The
  /// record's own columns (identity, outcome) frame the counter table:
  /// semantic and effort counters first, then valid/error/spec, then the
  /// run-class counters and time_ms last.
  template <class F>
  void visit_columns(F&& f) const;
};

struct SuiteReport {
  /// (instance, engine) row-major: records[i * engines + e].
  std::vector<SuiteRecord> records;
  std::vector<std::string> engines;
  std::vector<std::string> oracle_mismatches;
  std::vector<std::string> validator_failures;
  std::vector<std::string> errors;  ///< materialize/solve exceptions
  std::size_t instances = 0;
  unsigned jobs = 0;
  bool cancelled = false;
  double wall_ms = 0.0;

  /// No mismatches, no validator failures, no errors, not cancelled.
  bool ok() const {
    return oracle_mismatches.empty() && validator_failures.empty() &&
           errors.empty() && !cancelled;
  }

  /// Human-readable per-engine aggregate table plus the failure lists.
  std::string summary() const;
};

/// Run the whole corpus. Throws util::Error on an empty engine list or an
/// engine name the registry does not know (before any work starts).
SuiteReport run_suite(const std::vector<ScenarioSpec>& corpus,
                      const SuiteConfig& config);

/// One header row plus one row per record, columns in
/// SuiteRecord::visit_columns order. The run-class columns
/// (`optsched_cli suite --list-columns=run`) are run-dependent —
/// serving-layer state, thread-timing counters, dist-mode communication,
/// and wall-clock — so determinism diffs strip them by *name*
/// (scripts/strip_csv_columns.awk; never by position, which silently
/// breaks when columns move); every other column is a pure function of
/// spec and engine for serial engines.
void write_csv(const SuiteReport& report, std::ostream& out);

/// Full report as JSON: suite metadata, per-engine aggregates (runs,
/// proved_optimal, mean_makespan, total_<name> for every summed counter,
/// max_<name> for every max/memory one, total_time_ms), failure lists,
/// and all records (every column, plus expanded_per_ppe and its min/max).
void write_json(const SuiteReport& report, std::ostream& out);

template <class F>
void SuiteRecord::visit_columns(F&& f) const {
  using util::Counter;
  using enum util::Merge;
  using enum util::CounterClass;
  f("", Counter{"instance", kNone, kSemantic}, instance);
  f("", Counter{"family", kNone, kSemantic}, family);
  f("", Counter{"engine", kNone, kSemantic}, engine);
  f("", Counter{"nodes", kNone, kSemantic}, nodes);
  f("", Counter{"edges", kNone, kSemantic}, edges);
  f("", Counter{"procs", kNone, kSemantic}, procs);
  f("", Counter{"makespan", kNone, kSemantic}, makespan);
  f("", Counter{"proved_optimal", kNone, kSemantic}, proved_optimal);
  f("", Counter{"bound_factor", kNone, kSemantic}, bound_factor);
  f("", Counter{"termination", kNone, kSemantic}, termination);
  const auto counters = [&](bool run) {
    api::SolveStats::visit([&](const Counter& c, const auto& v) {
      if ((c.cls == kRun) == run) f("", c, v);
    }, stats);
  };
  counters(false);
  f("", Counter{"valid", kNone, kSemantic}, valid);
  f("", Counter{"error", kNone, kSemantic}, error);
  f("", Counter{"spec", kNone, kSemantic}, spec);
  counters(true);
  f("", Counter{"time_ms", kNone, kRun}, time_ms);
}

}  // namespace optsched::workload
