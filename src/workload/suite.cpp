#include "workload/suite.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <thread>

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

std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (const char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

/// JSON has no Infinity/NaN literals: non-finite doubles (the
/// bound_factor of a result that proved nothing) serialize as null.
std::string json_number(double v) {
  return std::isfinite(v) ? util::format_number(v) : "null";
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
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
          rec.makespan = result.makespan;
          rec.proved_optimal = result.proved_optimal;
          rec.bound_factor = result.bound_factor;
          rec.termination = core::to_string(result.reason);
          rec.queue_kind = result.stats.search.queue_kind;
          rec.fallback_reason = result.stats.search.queue_fallback;
          rec.bucket_peak = result.stats.search.bucket_peak;
          rec.expanded = result.stats.search.expanded;
          rec.generated = result.stats.search.generated;
          rec.loads_full = result.stats.search.loads_full;
          rec.loads_incremental = result.stats.search.loads_incremental;
          rec.peak_memory_bytes = result.stats.search.peak_memory_bytes;
          rec.arena_hot_bytes = result.stats.search.arena_hot_bytes;
          rec.arena_cold_bytes = result.stats.search.arena_cold_bytes;
          rec.parallel_mode = result.stats.parallel_mode;
          rec.states_transferred = result.stats.states_transferred;
          rec.steals = result.stats.steals;
          rec.shard_hits = result.stats.shard_hits;
          rec.expanded_per_ppe = result.stats.expanded_per_ppe;  // sorted
          rec.effective_ppes = result.stats.effective_ppes;
          rec.warm_start_used = result.stats.warm_start_used;
          rec.states_retained = result.stats.states_retained;
          rec.search_skipped_pct = result.stats.search_skipped_pct;
          rec.cache_hit = result.stats.cache_hit;
          rec.cache_lookups = result.stats.cache_lookups;
          rec.cache_bytes = result.stats.cache_bytes;
          rec.queue_wait_ms = result.stats.queue_wait_ms;
          rec.states_serialized = result.stats.states_serialized;
          rec.batches_sent = result.stats.batches_sent;
          rec.termination_rounds = result.stats.termination_rounds;
          rec.states_deduped_at_send = result.stats.states_deduped_at_send;
          rec.flushes = result.stats.flushes;
          rec.bytes_sent = result.stats.bytes_sent;
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
      expanded.add(static_cast<double>(rec.expanded));
      delta += rec.loads_incremental;
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
    lookups += rec.cache_lookups ? 1 : 0;
    hits += rec.cache_hit ? 1 : 0;
  }
  if (lookups)
    out << "cache: " << hits << "/" << lookups << " runs served from cache\n";

  dump("ORACLE MISMATCHES", oracle_mismatches);
  dump("VALIDATOR FAILURES", validator_failures);
  dump("ERRORS", errors);
  if (ok()) out << "oracle: all engines agree; all schedules valid\n";
  return out.str();
}

void write_csv(const SuiteReport& report, std::ostream& out) {
  out << "instance,family,engine,nodes,edges,procs,makespan,proved_optimal,"
         "bound_factor,termination,queue_kind,fallback_reason,expanded,"
         "generated,loads_full,"
         "loads_incremental,peak_memory_bytes,arena_hot_bytes,"
         "arena_cold_bytes,parallel_mode,states_transferred,steals,"
         "shard_hits,effective_ppes,warm_start_used,states_retained,"
         "search_skipped_pct,valid,error,spec,cache_hit,cache_lookups,"
         "cache_bytes,queue_wait_ms,bucket_peak,"
         "states_serialized,batches_sent,termination_rounds,"
         "states_deduped_at_send,flushes,bytes_sent,time_ms\n";
  for (const auto& r : report.records) {
    out << r.instance << ',' << r.family << ',' << csv_escape(r.engine) << ','
        << r.nodes << ',' << r.edges << ',' << r.procs << ','
        << util::format_number(r.makespan)
        << ',' << (r.proved_optimal ? 1 : 0) << ','
        << util::format_number_lenient(r.bound_factor) << ',' << r.termination
        << ','
        << r.queue_kind << ',' << r.fallback_reason << ','
        << r.expanded << ',' << r.generated << ',' << r.loads_full << ','
        << r.loads_incremental << ',' << r.peak_memory_bytes << ','
        << r.arena_hot_bytes << ',' << r.arena_cold_bytes << ','
        << r.parallel_mode << ',' << r.states_transferred << ',' << r.steals
        << ',' << r.shard_hits << ',' << r.effective_ppes << ','
        << (r.warm_start_used ? 1 : 0) << ',' << r.states_retained << ','
        << util::format_number(r.search_skipped_pct) << ','
        << (r.valid ? 1 : 0) << ','
        << csv_escape(r.error) << ',' << csv_escape(r.spec) << ','
        << (r.cache_hit ? 1 : 0) << ',' << r.cache_lookups << ','
        << r.cache_bytes << ',' << util::format_number(r.queue_wait_ms) << ','
        << r.bucket_peak << ','
        << r.states_serialized << ',' << r.batches_sent << ','
        << r.termination_rounds << ','
        << r.states_deduped_at_send << ',' << r.flushes << ','
        << r.bytes_sent << ','
        << util::format_number(r.time_ms) << '\n';
  }
}

void write_json(const SuiteReport& report, std::ostream& out) {
  auto string_list = [&](const std::vector<std::string>& list) {
    std::string s = "[";
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (i) s += ", ";
      s += '"' + json_escape(list[i]) + '"';
    }
    return s + "]";
  };

  out << "{\n  \"suite\": {\"instances\": " << report.instances
      << ", \"jobs\": " << report.jobs << ", \"ok\": "
      << (report.ok() ? "true" : "false") << ", \"cancelled\": "
      << (report.cancelled ? "true" : "false")
      << ", \"engines\": " << string_list(report.engines)
      << ", \"wall_ms\": " << json_number(report.wall_ms) << "},\n";

  out << "  \"aggregates\": {";
  bool first_engine = true;
  for (const auto& engine : report.engines) {
    util::Accumulator makespan, time_ms;
    std::uint64_t runs = 0, proved = 0, expanded = 0, delta = 0, full = 0;
    std::uint64_t transferred = 0, shard_hits = 0, cache_hits = 0;
    std::uint64_t serialized = 0, batches = 0, term_rounds = 0;
    std::uint64_t send_dedup = 0, flushes = 0, wire_bytes = 0;
    std::size_t peak = 0;
    for (const auto& r : report.records) {
      if (r.engine != engine || !r.error.empty()) continue;
      ++runs;
      if (r.proved_optimal) ++proved;
      if (r.cache_hit) ++cache_hits;
      makespan.add(r.makespan);
      expanded += r.expanded;
      delta += r.loads_incremental;
      full += r.loads_full;
      transferred += r.states_transferred;
      shard_hits += r.shard_hits;
      serialized += r.states_serialized;
      batches += r.batches_sent;
      term_rounds += r.termination_rounds;
      send_dedup += r.states_deduped_at_send;
      flushes += r.flushes;
      wire_bytes += r.bytes_sent;
      peak = std::max(peak, r.peak_memory_bytes);
      time_ms.add(r.time_ms);
    }
    out << (first_engine ? "\n" : ",\n") << "    \"" << json_escape(engine)
        << "\": {\"runs\": " << runs << ", \"proved_optimal\": " << proved
        << ", \"mean_makespan\": " << json_number(makespan.mean())
        << ", \"total_expanded\": " << expanded
        << ", \"total_loads_full\": " << full
        << ", \"total_loads_incremental\": " << delta
        << ", \"total_states_transferred\": " << transferred
        << ", \"total_shard_hits\": " << shard_hits
        << ", \"total_states_serialized\": " << serialized
        << ", \"total_batches_sent\": " << batches
        << ", \"total_termination_rounds\": " << term_rounds
        << ", \"total_states_deduped_at_send\": " << send_dedup
        << ", \"total_flushes\": " << flushes
        << ", \"total_bytes_sent\": " << wire_bytes
        << ", \"cache_hits\": " << cache_hits
        << ", \"max_peak_memory_bytes\": " << peak
        << ", \"total_time_ms\": " << json_number(time_ms.sum()) << "}";
    first_engine = false;
  }
  out << "\n  },\n";

  out << "  \"oracle_mismatches\": " << string_list(report.oracle_mismatches)
      << ",\n  \"validator_failures\": "
      << string_list(report.validator_failures)
      << ",\n  \"errors\": " << string_list(report.errors) << ",\n";

  out << "  \"records\": [\n";
  for (std::size_t i = 0; i < report.records.size(); ++i) {
    const auto& r = report.records[i];
    out << "    {\"instance\": " << r.instance << ", \"family\": \""
        << json_escape(r.family) << "\", \"engine\": \""
        << json_escape(r.engine) << "\", \"nodes\": " << r.nodes
        << ", \"edges\": " << r.edges << ", \"procs\": " << r.procs
        << ", \"makespan\": " << json_number(r.makespan)
        << ", \"proved_optimal\": " << (r.proved_optimal ? "true" : "false")
        << ", \"bound_factor\": " << json_number(r.bound_factor)
        << ", \"termination\": \"" << json_escape(r.termination)
        << "\", \"queue_kind\": \"" << json_escape(r.queue_kind)
        << "\", \"fallback_reason\": \"" << json_escape(r.fallback_reason)
        << "\", \"expanded\": " << r.expanded
        << ", \"generated\": " << r.generated
        << ", \"loads_full\": " << r.loads_full
        << ", \"loads_incremental\": " << r.loads_incremental
        << ", \"peak_memory_bytes\": " << r.peak_memory_bytes
        << ", \"arena_hot_bytes\": " << r.arena_hot_bytes
        << ", \"arena_cold_bytes\": " << r.arena_cold_bytes;
    if (!r.parallel_mode.empty()) {
      // Sorted descending (not PPE-id order) so reruns diff on the load
      // distribution alone; min/max aggregates for quick scans.
      out << ", \"parallel_mode\": \"" << json_escape(r.parallel_mode)
          << "\", \"states_transferred\": " << r.states_transferred
          << ", \"steals\": " << r.steals
          << ", \"shard_hits\": " << r.shard_hits << ", \"expanded_per_ppe\": [";
      for (std::size_t p = 0; p < r.expanded_per_ppe.size(); ++p)
        out << (p ? ", " : "") << r.expanded_per_ppe[p];
      out << "], \"ppe_expanded_min\": "
          << (r.expanded_per_ppe.empty() ? 0 : r.expanded_per_ppe.back())
          << ", \"ppe_expanded_max\": "
          << (r.expanded_per_ppe.empty() ? 0 : r.expanded_per_ppe.front())
          << ", \"effective_ppes\": " << r.effective_ppes
          << ", \"states_serialized\": " << r.states_serialized
          << ", \"batches_sent\": " << r.batches_sent
          << ", \"termination_rounds\": " << r.termination_rounds
          << ", \"states_deduped_at_send\": " << r.states_deduped_at_send
          << ", \"flushes\": " << r.flushes
          << ", \"bytes_sent\": " << r.bytes_sent;
    }
    out << ", \"warm_start_used\": " << (r.warm_start_used ? "true" : "false")
        << ", \"states_retained\": " << r.states_retained
        << ", \"search_skipped_pct\": "
        << util::format_number(r.search_skipped_pct);
    out << ", \"valid\": " << (r.valid ? "true" : "false") << ", \"error\": \""
        << json_escape(r.error) << "\", \"spec\": \"" << json_escape(r.spec)
        << "\", \"cache_hit\": " << (r.cache_hit ? "true" : "false")
        << ", \"cache_lookups\": " << r.cache_lookups
        << ", \"cache_bytes\": " << r.cache_bytes
        << ", \"queue_wait_ms\": " << json_number(r.queue_wait_ms)
        << ", \"bucket_peak\": " << r.bucket_peak
        << ", \"time_ms\": " << json_number(r.time_ms) << "}"
        << (i + 1 < report.records.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace optsched::workload
