#include "workload/suite.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <thread>
#include <type_traits>
#include <utility>

#include "api/registry.hpp"
#include "sched/validator.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace optsched::workload {

namespace {

/// A failure line tagged with its instance index so the collected lists
/// can be sorted into corpus order after the (unordered) parallel run.
struct Tagged {
  std::size_t instance;
  std::string line;
};

void sort_into(std::vector<Tagged>& tagged, std::vector<std::string>& out) {
  std::stable_sort(tagged.begin(), tagged.end(),
                   [](const Tagged& a, const Tagged& b) {
                     return a.instance < b.instance;
                   });
  out.reserve(tagged.size());
  for (auto& t : tagged) out.push_back(std::move(t.line));
}

/// Differential oracle over one instance's records (see suite.hpp).
void check_oracle(const std::vector<ScenarioSpec>& corpus, std::size_t i,
                  const SuiteRecord* recs, std::size_t count, double tol,
                  std::vector<Tagged>& mismatches) {
  double optimal = 0.0;
  const SuiteRecord* reference = nullptr;
  for (std::size_t e = 0; e < count; ++e) {
    const SuiteRecord& r = recs[e];
    if (!r.error.empty() || !r.proved_optimal || r.bound_factor != 1.0)
      continue;
    if (!reference) {
      reference = &r;
      optimal = r.makespan;
    } else if (std::abs(r.makespan - optimal) > tol) {
      mismatches.push_back(
          {i, "instance " + std::to_string(i) + " [" + corpus[i].to_string() +
                  "]: " + r.engine + " proved " + std::to_string(r.makespan) +
                  " but " + reference->engine + " proved " +
                  std::to_string(optimal)});
    }
  }
  if (!reference) return;
  for (std::size_t e = 0; e < count; ++e) {
    const SuiteRecord& r = recs[e];
    if (!r.error.empty() || &r == reference) continue;
    if (r.proved_optimal && r.bound_factor == 1.0) continue;  // checked above
    const char* why = nullptr;
    if (r.makespan < optimal - tol) {
      why = "is below the proved optimum";
    } else if (r.proved_optimal && r.bound_factor > 1.0 &&
               r.makespan > r.bound_factor * optimal + tol) {
      why = "exceeds its proved suboptimality bound";
    }
    if (why)
      mismatches.push_back(
          {i, "instance " + std::to_string(i) + " [" + corpus[i].to_string() +
                  "]: " + r.engine + " makespan " + std::to_string(r.makespan) +
                  " " + why + " (" + std::to_string(optimal) + " by " +
                  reference->engine + ")"});
  }
}

/// The counters an aggregate reduces: numeric, with a merge rule; the
/// value is passed as a double (bools count as 0/1).
template <class F>
void visit_aggregable(const api::SolveStats& stats, F&& f) {
  api::SolveStats::visit([&](const util::Counter& c, const auto& v) {
    if constexpr (std::is_arithmetic_v<std::decay_t<decltype(v)>>)
      if (c.merge != util::Merge::kNone) f(c, static_cast<double>(v));
  }, stats);
}

}  // namespace

SuiteReport run_suite(const std::vector<ScenarioSpec>& corpus,
                      const SuiteConfig& config) {
  OPTSCHED_REQUIRE(!config.engines.empty(),
                   "suite needs at least one engine");
  auto& registry = api::SolverRegistry::instance();
  // Engine specs carry options ("parallel:mode=ws:ppes=4"); resolve them
  // up front so an unknown engine or malformed spec throws before any
  // work starts (undeclared option keys are caught by registry.solve).
  std::vector<std::string> engine_names(config.engines.size());
  std::vector<api::Options> engine_options(config.engines.size());
  for (std::size_t e = 0; e < config.engines.size(); ++e) {
    auto [name, options] = api::parse_engine_spec(config.engines[e]);
    registry.info(name);  // throws InvalidRequest on an unknown engine
    engine_names[e] = std::move(name);
    engine_options[e] = std::move(options);
  }

  const std::size_t num_instances = corpus.size();
  const std::size_t num_engines = config.engines.size();

  SuiteReport report;
  report.engines = config.engines;
  report.instances = num_instances;
  report.records.resize(num_instances * num_engines);
  for (std::size_t i = 0; i < num_instances; ++i)
    for (std::size_t e = 0; e < num_engines; ++e) {
      SuiteRecord& rec = report.records[i * num_engines + e];
      rec.instance = i;
      rec.spec = corpus[i].to_string();
      rec.family = corpus[i].family;
      rec.engine = config.engines[e];
    }
  if (num_instances == 0) {
    report.jobs = 0;
    return report;
  }

  const unsigned jobs = static_cast<unsigned>(std::clamp<std::size_t>(
      config.jobs ? config.jobs : 1, 1, num_instances));
  report.jobs = jobs;

  util::Timer wall;
  std::atomic<std::size_t> next{0};
  std::mutex mu;  // guards the tagged lists and on_record
  std::vector<Tagged> mismatches, failures, errors;

  auto worker = [&] {
    const sched::ScheduleValidator validator;
    while (true) {
      if (config.cancel.cancelled()) return;
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= num_instances) return;
      SuiteRecord* recs = report.records.data() + i * num_engines;

      std::optional<Instance> instance;
      try {
        instance.emplace(corpus[i].materialize());
      } catch (const std::exception& ex) {
        const std::lock_guard<std::mutex> lock(mu);
        for (std::size_t e = 0; e < num_engines; ++e)
          recs[e].error = ex.what();
        errors.push_back({i, "instance " + std::to_string(i) + " [" +
                                 corpus[i].to_string() +
                                 "]: materialize failed: " + ex.what()});
        continue;
      }

      for (std::size_t e = 0; e < num_engines; ++e) {
        SuiteRecord& rec = recs[e];
        rec.nodes = instance->graph.num_nodes();
        rec.edges = instance->graph.num_edges();
        rec.procs = instance->machine.num_procs();

        api::SolveRequest request(instance->graph, instance->machine,
                                  instance->comm);
        request.limits = config.limits;
        request.cancel = config.cancel;
        request.options = engine_options[e];

        const util::Timer timer;
        try {
          // --via-socket mode: ship the run to the daemon instead of
          // solving in-process. The hook returns a rebuilt result whose
          // schedule borrows *instance, so validation and the oracle
          // below see it exactly like a local result.
          const api::SolveResult result =
              config.remote_solve
                  ? config.remote_solve(*instance, config.engines[e],
                                        config.limits)
                  : api::solve(engine_names[e], request);
          rec.take(result);
          rec.valid = true;
          if (config.validate_schedules) {
            const auto violations = validator.check(result.schedule);
            if (!violations.empty()) {
              rec.valid = false;
              const std::lock_guard<std::mutex> lock(mu);
              for (const auto& v : violations)
                failures.push_back(
                    {i, "instance " + std::to_string(i) + " [" + rec.spec +
                            "] " + rec.engine + ": [" +
                            sched::to_string(v.kind) + "] " + v.message});
            }
          }
        } catch (const std::exception& ex) {
          rec.error = ex.what();
          const std::lock_guard<std::mutex> lock(mu);
          errors.push_back({i, "instance " + std::to_string(i) + " [" +
                                   rec.spec + "] " + rec.engine + ": " +
                                   ex.what()});
        }
        rec.time_ms = timer.millis();
        if (config.on_record) {
          const std::lock_guard<std::mutex> lock(mu);
          config.on_record(rec);
        }
      }

      if (config.differential_oracle) {
        std::vector<Tagged> local;
        check_oracle(corpus, i, recs, num_engines, config.oracle_tolerance,
                     local);
        if (!local.empty()) {
          const std::lock_guard<std::mutex> lock(mu);
          for (auto& t : local) mismatches.push_back(std::move(t));
        }
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(jobs);
  for (unsigned j = 0; j < jobs; ++j) pool.emplace_back(worker);
  for (auto& t : pool) t.join();

  // Read the token itself, not a worker-observed flag: a cancellation that
  // lands after the last index is claimed must still mark the report (its
  // in-flight solves returned truncated incumbents).
  report.cancelled = config.cancel.cancelled();
  if (report.cancelled)
    for (auto& rec : report.records)
      if (rec.termination.empty() && rec.error.empty()) rec.error = "not-run";

  sort_into(mismatches, report.oracle_mismatches);
  sort_into(failures, report.validator_failures);
  sort_into(errors, report.errors);
  report.wall_ms = wall.millis();
  return report;
}

std::string SuiteReport::summary() const {
  std::ostringstream out;
  out << "suite: " << instances << " instances x " << engines.size()
      << " engines, " << jobs << " jobs, " << util::format_seconds(wall_ms / 1e3)
      << (cancelled ? " (CANCELLED)" : "") << "\n";

  util::Table table({"engine", "runs", "optimal", "mean makespan",
                     "mean expanded", "delta loads", "total time"});
  for (const auto& engine : engines) {
    util::Accumulator makespan, expanded, time_ms;
    std::uint64_t runs = 0, proved = 0, delta = 0;
    for (const auto& rec : records) {
      if (rec.engine != engine || !rec.error.empty()) continue;
      ++runs;
      if (rec.proved_optimal) ++proved;
      makespan.add(rec.makespan);
      expanded.add(static_cast<double>(rec.stats.search.expanded));
      delta += rec.stats.search.loads_incremental;
      time_ms.add(rec.time_ms);
    }
    table.row()
        .cell(engine)
        .cell(runs)
        .cell(proved)
        .cell(makespan.mean())
        .cell(expanded.mean(), 1)
        .cell(delta)
        .cell(util::format_seconds(time_ms.sum() / 1e3));
  }
  table.print(out);

  auto dump = [&out](const char* title, const std::vector<std::string>& list) {
    if (list.empty()) return;
    out << title << " (" << list.size() << "):\n";
    for (const auto& line : list) out << "  " << line << "\n";
  };
  // Serving-layer line only when runs actually went through a daemon
  // (in-process suites report zero lookups).
  std::uint64_t lookups = 0, hits = 0;
  for (const auto& rec : records) {
    lookups += rec.stats.cache_lookups ? 1 : 0;
    hits += rec.stats.cache_hit ? 1 : 0;
  }
  if (lookups)
    out << "cache: " << hits << "/" << lookups << " runs served from cache\n";

  dump("ORACLE MISMATCHES", oracle_mismatches);
  dump("VALIDATOR FAILURES", validator_failures);
  dump("ERRORS", errors);
  if (ok()) out << "oracle: all engines agree; all schedules valid\n";
  return out.str();
}

void SuiteRecord::take(const api::SolveResult& result) {
  makespan = result.makespan;
  proved_optimal = result.proved_optimal;
  bound_factor = result.bound_factor;
  termination = core::to_string(result.reason);
  stats = result.stats;
}

void write_csv(const SuiteReport& report, std::ostream& out) {
  util::write_records_csv(report.records, out);
}

void write_json(const SuiteReport& report, std::ostream& out) {
  out << "{\n  \"suite\": {\"instances\": " << report.instances
      << ", \"jobs\": " << report.jobs << ", \"ok\": "
      << (report.ok() ? "true" : "false") << ", \"cancelled\": "
      << (report.cancelled ? "true" : "false")
      << ", \"engines\": " << util::json_string_array(report.engines)
      << ", \"wall_ms\": " << util::json_number(report.wall_ms) << "},\n";

  // Per engine: total_<name> for summed counters, max_<name> for max and
  // memory ones (util::merge_value across runs), over the error-free runs.
  out << "  \"aggregates\": {";
  bool first_engine = true;
  for (const auto& engine : report.engines) {
    util::Accumulator makespan, time_ms;
    std::uint64_t runs = 0, proved = 0;
    std::vector<std::pair<std::string, double>> totals;
    visit_aggregable(api::SolveStats{}, [&](const util::Counter& c, double) {
      totals.emplace_back(
          (c.merge == util::Merge::kSum ? "total_" : "max_") +
              std::string(c.name),
          0.0);
    });
    for (const auto& r : report.records) {
      if (r.engine != engine || !r.error.empty()) continue;
      ++runs;
      if (r.proved_optimal) ++proved;
      makespan.add(r.makespan);
      time_ms.add(r.time_ms);
      std::size_t k = 0;
      visit_aggregable(r.stats, [&](const util::Counter& c, double v) {
        util::merge_value(c.merge, totals[k++].second, v,
                          /*across_runs=*/true);
      });
    }
    out << (first_engine ? "\n" : ",\n") << "    \""
        << util::json_escape(engine) << "\": {\"runs\": " << runs
        << ", \"proved_optimal\": " << proved
        << ", \"mean_makespan\": " << util::json_number(makespan.mean());
    for (const auto& [name, total] : totals)
      out << ", \"" << name << "\": " << util::json_number(total);
    out << ", \"total_time_ms\": " << util::json_number(time_ms.sum())
        << "}";
    first_engine = false;
  }
  out << "\n  },\n";

  out << "  \"oracle_mismatches\": "
      << util::json_string_array(report.oracle_mismatches)
      << ",\n  \"validator_failures\": "
      << util::json_string_array(report.validator_failures)
      << ",\n  \"errors\": " << util::json_string_array(report.errors)
      << ",\n";

  out << "  \"records\": [\n";
  for (std::size_t i = 0; i < report.records.size(); ++i) {
    const auto& r = report.records[i];
    out << "    {";
    util::write_record_json(r, out);
    // Sorted descending (not PPE-id order) so reruns diff on the load
    // distribution alone; min/max for quick scans.
    const auto& per_ppe = r.stats.expanded_per_ppe;
    out << ", \"expanded_per_ppe\": [";
    for (std::size_t p = 0; p < per_ppe.size(); ++p)
      out << (p ? ", " : "") << per_ppe[p];
    out << "], \"ppe_expanded_min\": "
        << (per_ppe.empty() ? 0 : per_ppe.back())
        << ", \"ppe_expanded_max\": "
        << (per_ppe.empty() ? 0 : per_ppe.front()) << "}"
        << (i + 1 < report.records.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace optsched::workload
