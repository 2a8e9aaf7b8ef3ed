#include "workload/churn.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>

#include "api/session.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"
#include "workload/corpus.hpp"

namespace optsched::workload {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Proved *exactly* optimal (a bounded proof has bound_factor > 1).
bool exact_proof(const api::SolveResult& r) {
  return r.proved_optimal && r.bound_factor == 1.0;
}

/// The warm-vs-cold soundness oracle (see the header comment): exact
/// proofs must agree; against one exact proof the other result must lie
/// inside its own proved bound; two boundless results cannot disagree.
bool oracle_check(const api::SolveResult& warm, const api::SolveResult& cold,
                  double tol, std::string& why) {
  const bool we = exact_proof(warm), ce = exact_proof(cold);
  if (we && ce) {
    if (std::abs(warm.makespan - cold.makespan) <= tol) return true;
    why = "both proved optimal but makespans differ: warm " +
          util::format_number(warm.makespan) + " vs cold " +
          util::format_number(cold.makespan);
    return false;
  }
  if (ce) {
    if (warm.makespan < cold.makespan - tol) {
      why = "warm makespan " + util::format_number(warm.makespan) +
            " below the proved optimum " +
            util::format_number(cold.makespan);
      return false;
    }
    if (warm.proved_optimal && warm.bound_factor < kInf &&
        warm.makespan > warm.bound_factor * cold.makespan + tol) {
      why = "warm makespan " + util::format_number(warm.makespan) +
            " outside its proved factor " +
            util::format_number(warm.bound_factor) + " of the optimum " +
            util::format_number(cold.makespan);
      return false;
    }
    return true;
  }
  if (we) {
    if (cold.makespan < warm.makespan - tol) {
      why = "cold makespan " + util::format_number(cold.makespan) +
            " below the proved optimum " +
            util::format_number(warm.makespan);
      return false;
    }
    if (cold.proved_optimal && cold.bound_factor < kInf &&
        cold.makespan > cold.bound_factor * warm.makespan + tol) {
      why = "cold makespan " + util::format_number(cold.makespan) +
            " outside its proved factor " +
            util::format_number(cold.bound_factor) + " of the optimum " +
            util::format_number(warm.makespan);
      return false;
    }
    return true;
  }
  return true;  // neither proof is exact: nothing to cross-check
}

double skip_pct(std::uint64_t warm_expanded, std::uint64_t cold_expanded) {
  if (cold_expanded == 0) return warm_expanded == 0 ? 100.0 : 0.0;
  return 100.0 * (1.0 - static_cast<double>(warm_expanded) /
                            static_cast<double>(cold_expanded));
}

}  // namespace

std::string ChurnCase::to_string() const {
  std::string out = base.to_string();
  for (const auto& pert : chain) out += " | " + pert.to_string();
  return out;
}

std::vector<ChurnCase> parse_churn_corpus(std::istream& in) {
  std::vector<ChurnCase> out;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    line = util::trim(line);
    if (line.empty()) continue;
    try {
      // Split on '|': scenario segment first, then the perturbation chain.
      std::vector<std::string> segments;
      std::size_t start = 0;
      while (true) {
        const auto bar = line.find('|', start);
        segments.push_back(util::trim(
            line.substr(start, bar == std::string::npos ? bar : bar - start)));
        if (bar == std::string::npos) break;
        start = bar + 1;
      }
      OPTSCHED_REQUIRE(!segments[0].empty(),
                       "churn line needs a scenario before the first '|'");
      // The scenario segment goes through the corpus reader so a
      // `seeds=A..B` token expands to one case per seed (same chain).
      std::istringstream seg(segments[0]);
      const std::vector<ScenarioSpec> specs = parse_corpus(seg);
      std::vector<PerturbationSpec> chain;
      for (std::size_t i = 1; i < segments.size(); ++i) {
        OPTSCHED_REQUIRE(!segments[i].empty(), "empty perturbation segment");
        chain.push_back(PerturbationSpec::parse(segments[i]));
      }
      for (const auto& spec : specs) out.push_back({spec, chain});
    } catch (const util::Error& e) {
      throw util::Error("churn corpus line " + std::to_string(line_no) +
                        ": " + e.what());
    }
  }
  return out;
}

std::vector<ChurnCase> load_churn_corpus_file(const std::string& path) {
  std::ifstream in(path);
  OPTSCHED_REQUIRE(in.good(), "cannot open churn corpus file '" + path + "'");
  return parse_churn_corpus(in);
}

ChurnReport run_churn(const std::vector<ChurnCase>& corpus,
                      const ChurnConfig& config) {
  const auto [engine_name, engine_options] =
      api::parse_engine_spec(config.engine);
  // Fail fast on an unknown engine, before any instance is built.
  (void)api::SolverRegistry::instance().info(engine_name);

  ChurnReport report;
  report.engine = config.engine;
  report.cases = corpus.size();
  util::Timer wall;

  for (std::size_t case_index = 0; case_index < corpus.size(); ++case_index) {
    if (config.cancel.cancelled()) break;
    const ChurnCase& churn_case = corpus[case_index];
    try {
      const Instance instance = churn_case.base.materialize();
      api::SolveSession session(engine_name, engine_options);

      ChurnRecord first;
      first.case_index = case_index;
      first.spec = instance.name;
      {
        api::SolveRequest request(instance.graph, instance.machine,
                                  instance.comm);
        request.limits = config.limits;
        request.cancel = config.cancel;
        util::Timer timer;
        const api::SolveResult cold = session.solve(request);
        first.warm_time_ms = first.cold_time_ms = timer.millis();
        first.warm_makespan = first.cold_makespan = cold.makespan;
        first.warm_proved = first.cold_proved = cold.proved_optimal;
        first.warm = first.cold = cold.stats;
      }
      report.records.push_back(first);
      if (config.on_record) config.on_record(report.records.back());

      for (std::size_t k = 0; k < churn_case.chain.size(); ++k) {
        if (config.cancel.cancelled()) break;
        const PerturbationSpec& pert = churn_case.chain[k];
        ChurnRecord rec;
        rec.case_index = case_index;
        rec.step = k + 1;
        rec.spec = pert.to_string();

        util::Timer warm_timer;
        const api::SolveResult warm = session.resolve(pert.delta);
        rec.warm_time_ms = warm_timer.millis();

        // Independent cold solve of the same perturbed instance (the
        // session's graph/machine now reflect the applied delta).
        api::SolveRequest cold_request(session.graph(), session.machine(),
                                       instance.comm);
        cold_request.limits = config.limits;
        cold_request.cancel = config.cancel;
        cold_request.options = engine_options;
        util::Timer cold_timer;
        const api::SolveResult cold =
            api::solve(engine_name, cold_request);
        rec.cold_time_ms = cold_timer.millis();

        rec.warm_makespan = warm.makespan;
        rec.cold_makespan = cold.makespan;
        rec.warm_proved = warm.proved_optimal;
        rec.cold_proved = cold.proved_optimal;
        rec.warm = warm.stats;
        rec.cold = cold.stats;
        rec.search_skipped_pct =
            skip_pct(warm.stats.search.expanded, cold.stats.search.expanded);

        std::string why;
        rec.oracle_ok =
            oracle_check(warm, cold, config.oracle_tolerance, why);
        if (!rec.oracle_ok)
          report.mismatches.push_back(
              "case " + std::to_string(case_index) + " step " +
              std::to_string(rec.step) + " (" + rec.spec + "): " + why);

        report.records.push_back(std::move(rec));
        if (config.on_record) config.on_record(report.records.back());
      }
    } catch (const std::exception& e) {
      report.errors.push_back("case " + std::to_string(case_index) + " (" +
                              churn_case.to_string() + "): " + e.what());
    }
  }

  // Per-step aggregates (step >= 1). Steps are dense from 1 up to the
  // longest chain; cases with shorter chains simply stop contributing.
  std::size_t max_step = 0;
  for (const auto& r : report.records) max_step = std::max(max_step, r.step);
  const auto mean = [](const util::Accumulator& a) {
    return a.sum() / static_cast<double>(a.count());
  };
  for (std::size_t s = 1; s <= max_step; ++s) {
    util::Accumulator warm_exp, cold_exp, skip, warm_ms, cold_ms;
    for (const auto& r : report.records) {
      if (r.step != s) continue;
      warm_exp.add(static_cast<double>(r.warm.search.expanded));
      cold_exp.add(static_cast<double>(r.cold.search.expanded));
      skip.add(r.search_skipped_pct);
      warm_ms.add(r.warm_time_ms);
      cold_ms.add(r.cold_time_ms);
    }
    if (skip.count() > 0)
      report.by_step.push_back({s, skip.count(), mean(warm_exp),
                                mean(cold_exp), mean(skip), mean(warm_ms),
                                mean(cold_ms)});
  }
  if (!report.by_step.empty() && report.by_step.front().step == 1)
    report.single_delta_skip_mean_pct = report.by_step.front().skip_mean_pct;

  report.cancelled = config.cancel.cancelled();
  report.wall_ms = wall.millis();
  return report;
}

std::string ChurnReport::summary() const {
  std::ostringstream out;
  out << "churn: " << cases << " cases, " << records.size()
      << " step records, engine " << engine << (ok() ? "" : " [FAILED]")
      << (cancelled ? " (CANCELLED)" : "") << "\n";
  if (!by_step.empty()) {
    out << "  step  cases  warm-exp(mean)  cold-exp(mean)  skipped%\n";
    for (const auto& s : by_step) {
      out << "  " << s.step << "  " << s.cases << "  "
          << util::format_number(s.warm_expanded_mean) << "  "
          << util::format_number(s.cold_expanded_mean) << "  "
          << util::format_number(s.skip_mean_pct) << "\n";
    }
    out << "  single-delta mean skipped: "
        << util::format_number(single_delta_skip_mean_pct) << "%\n";
  }
  for (const auto& m : mismatches) out << "  ORACLE MISMATCH: " << m << "\n";
  for (const auto& e : errors) out << "  ERROR: " << e << "\n";
  return out.str();
}

void write_churn_csv(const ChurnReport& report, std::ostream& out) {
  util::write_records_csv(report.records, out);
}

void write_churn_json(const ChurnReport& report, std::ostream& out) {
  out << "{\n  \"cases\": " << report.cases << ", \"engine\": \""
      << util::json_escape(report.engine) << "\", \"ok\": "
      << (report.ok() ? "true" : "false") << ", \"cancelled\": "
      << (report.cancelled ? "true" : "false")
      << ",\n  \"single_delta_skip_mean_pct\": "
      << util::format_number(report.single_delta_skip_mean_pct)
      << ",\n  \"by_step\": [";
  for (std::size_t i = 0; i < report.by_step.size(); ++i) {
    const auto& s = report.by_step[i];
    out << (i ? ",\n" : "\n") << "    {\"step\": " << s.step
        << ", \"cases\": " << s.cases << ", \"warm_expanded_mean\": "
        << util::format_number(s.warm_expanded_mean)
        << ", \"cold_expanded_mean\": "
        << util::format_number(s.cold_expanded_mean)
        << ", \"skip_mean_pct\": " << util::format_number(s.skip_mean_pct)
        << ", \"warm_time_ms_mean\": "
        << util::format_number(s.warm_time_ms_mean)
        << ", \"cold_time_ms_mean\": "
        << util::format_number(s.cold_time_ms_mean) << "}";
  }
  out << "\n  ],\n  \"mismatches\": "
      << util::json_string_array(report.mismatches)
      << ",\n  \"errors\": " << util::json_string_array(report.errors)
      << ",\n  \"records\": [";
  for (std::size_t i = 0; i < report.records.size(); ++i) {
    out << (i ? ",\n    {" : "\n    {");
    util::write_record_json(report.records[i], out);
    out << "}";
  }
  out << "\n  ],\n  \"wall_ms\": " << report.wall_ms << "\n}\n";
}

}  // namespace optsched::workload
