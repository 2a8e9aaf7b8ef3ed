// optsched_cli — schedule a task-graph file from the command line.
//
// The downstream-user entry point: read a graph in the text format
// (dag/io.hpp), pick a machine and an engine from the solver registry,
// print the schedule. Engines are dispatched through the unified API
// (api/registry.hpp), so anything `--list-engines` shows — including the
// portfolio meta-solver and any externally registered engine — works here
// without CLI changes.
//
//   $ ./optsched_cli graph.tg --machine clique:4 --engine astar
//   $ ./optsched_cli graph.tg --machine ring:8 --engine aeps --epsilon 0.2
//   $ ./optsched_cli graph.tg --machine mesh:2x3 --engine parallel --ppes 8
//   $ ./optsched_cli graph.tg --engine ida --opts h=composite,prune=all
//   $ ./optsched_cli --demo --engine portfolio   # race all optimal engines
//   $ ./optsched_cli --list-engines
//
// The `suite` subcommand fans a workload corpus (workload/corpus.hpp) out
// across a thread pool, cross-checks engines with the differential oracle,
// and emits CSV/JSON reports. Exit status is nonzero on any oracle
// mismatch, validator violation, or solve error:
//
//   $ ./optsched_cli suite --corpus tests/data/corpus_smoke.txt
//       --engines astar,ida,chenyu --jobs 4 --csv report.csv
//
// The `resolve` subcommand exercises warm-start re-solve under instance
// churn (api::SolveSession): each case is one scenario plus a chain of
// perturbations; every step is solved warm through the session AND cold
// from scratch, cross-checked by the warm-vs-cold oracle. Exit status is
// nonzero on any oracle mismatch or error:
//
//   $ ./optsched_cli resolve --corpus tests/data/corpus_churn.txt
//   $ ./optsched_cli resolve --spec "family=layered layers=3 width=3"
//         --deltas "delta=taskcost node=4 cost=25; delta=procdrop proc=1"
//
// The serving subcommands run the solver as a resident service
// (server/daemon.hpp): `serve` hosts a daemon on a Unix-domain socket;
// `submit` ships a corpus to it (with an optional cold-solve
// bit-agreement oracle and a cache-hit-rate gate for CI); `status` and
// `shutdown` poke a running daemon. `suite --via-socket <path>` routes
// the whole suite runner — oracle, validator and all — through a daemon:
//
//   $ ./optsched_cli serve --socket /tmp/optsched.sock --workers 4 &
//   $ ./optsched_cli submit --socket /tmp/optsched.sock
//       --corpus tests/data/corpus_smoke.txt --engine astar --oracle
//   $ ./optsched_cli shutdown --socket /tmp/optsched.sock
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include "api/registry.hpp"
#include "dag/graph.hpp"
#include "dag/io.hpp"
#include "dag/stg.hpp"
#include "machine/spec.hpp"
#include "sched/metrics.hpp"
#include "server/client.hpp"
#include "server/daemon.hpp"
#include "util/cli.hpp"
#include "util/counters.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"
#include "workload/churn.hpp"
#include "workload/corpus.hpp"
#include "workload/suite.hpp"

using namespace optsched;

namespace {

std::string engine_help() {
  std::string names;
  for (const auto& name : api::SolverRegistry::instance().names()) {
    if (!names.empty()) names += " | ";
    names += name;
  }
  return names + " (default astar; see --list-engines)";
}

std::string verdict_for(const api::SolveResult& r) {
  if (r.proved_optimal)
    return r.bound_factor == 1.0
               ? "optimal (" + r.engine + ")"
               : "within bound factor " + std::to_string(r.bound_factor) +
                     " (" + r.engine + ")";
  if (r.reason == core::Termination::kHeuristic)
    return "heuristic (no optimality guarantee)";
  return std::string("incumbent only: ") + core::to_string(r.reason);
}

/// --budget-ms, --max-expansions and --max-memory-mb (0 = unlimited).
api::SolveLimits limits_from(const util::Cli& cli) {
  api::SolveLimits limits;
  limits.time_budget_ms = cli.get_double("budget-ms", 0.0);
  const std::int64_t max_expansions = cli.get_int("max-expansions", 0);
  OPTSCHED_REQUIRE(max_expansions >= 0, "--max-expansions must be >= 0");
  limits.max_expansions = static_cast<std::uint64_t>(max_expansions);
  const std::int64_t max_memory_mb = cli.get_int("max-memory-mb", 0);
  OPTSCHED_REQUIRE(max_memory_mb >= 0, "--max-memory-mb must be >= 0");
  limits.max_memory_bytes =
      static_cast<std::size_t>(max_memory_mb) * 1024 * 1024;
  return limits;
}

/// Write a report to the file that --<flag> names, when it is given.
template <class Write>
void write_report(const util::Cli& cli, const char* flag, Write&& write) {
  if (!cli.has(flag)) return;
  std::ofstream out(cli.get(flag, ""));
  OPTSCHED_REQUIRE(out.good(), std::string("cannot write --") + flag +
                                   " file");
  write(out);
  std::printf("wrote %s\n", cli.get(flag, "").c_str());
}

constexpr const char* kListColumnsHelp =
    "print the report columns of these counter classes "
    "(semantic,effort,run), comma-separated, and exit";

/// `--list-columns`: print Record's report columns of those classes.
template <class Record>
int print_columns(const util::Cli& cli) {
  std::vector<util::CounterClass> classes;
  for (const auto& name : util::split(cli.get("list-columns", ""), ','))
    classes.push_back(util::parse_counter_class(name));
  const auto names = util::column_names<Record>(classes);
  std::printf("%s\n", util::join(names, ",").c_str());
  return 0;
}

/// `optsched_cli suite ...` — run a scenario corpus through the workload
/// suite runner. argv[0] here is the literal "suite".
int suite_main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  cli.describe("corpus", "corpus file, one scenario spec per line (required)")
      .describe("engines", "comma-separated engine specs "
                           "name[:key=value...] (colon-separated options, "
                           "e.g. parallel:mode=ws:ppes=4), or 'optimal' "
                           "for every serial optimality-proving engine "
                           "that honors budgets/cancellation "
                           "(default optimal)")
      .describe("jobs", "worker threads sharding the corpus "
                        "(default hardware concurrency)")
      .describe("budget-ms", "per-instance time budget (default unlimited)")
      .describe("max-expansions",
                "per-instance expansion budget (default unlimited)")
      .describe("max-memory-mb",
                "per-instance search-memory cap (default unlimited)")
      .describe("no-validate", "skip ScheduleValidator on returned schedules")
      .describe("no-oracle", "skip the cross-engine differential oracle")
      .describe("via-socket",
                "route every run through a resident daemon listening on "
                "this Unix-socket path (see `optsched_cli serve`); "
                "validation and the oracle apply to the returned "
                "schedules exactly as to in-process runs")
      .describe("csv", "write the per-run report table to this file")
      .describe("json", "write the full JSON report to this file")
      .describe("progress", "print one line per finished run")
      .describe("list-columns", kListColumnsHelp);
  if (cli.maybe_print_help(
          "Run a workload corpus across engines with an oracle"))
    return 0;
  cli.validate();

  if (cli.has("list-columns"))
    return print_columns<workload::SuiteRecord>(cli);

  OPTSCHED_REQUIRE(cli.has("corpus"), "suite requires --corpus <file>");
  const auto corpus = workload::load_corpus_file(cli.get("corpus", ""));

  workload::SuiteConfig config;
  const std::string engines = cli.get("engines", "optimal");
  // The default set excludes engines that ignore limits and cancellation
  // (the brute-force `exhaustive` oracle would hang with no way to budget
  // or abort the run) and multithreaded ones (their expanded/generated/
  // peak-memory stats are timing-dependent, which would break the
  // documented rerun-and-diff determinism of the report).
  config.engines =
      engines == "optimal"
          ? api::SolverRegistry::instance().names_matching(
                [](const api::EngineCaps& caps) {
                  return caps.optimal && caps.anytime && !caps.parallel;
                })
          : util::split(engines, ',');
  const std::int64_t jobs = cli.get_int(
      "jobs", std::max(1u, std::thread::hardware_concurrency()));
  OPTSCHED_REQUIRE(jobs >= 1, "--jobs must be >= 1");
  config.jobs = static_cast<unsigned>(jobs);
  config.limits = limits_from(cli);
  config.validate_schedules = !cli.get_bool("no-validate");
  config.differential_oracle = !cli.get_bool("no-oracle");
  if (cli.has("via-socket")) {
    // One Client (one connection) per suite worker thread; the daemon
    // multiplexes them onto its own bounded pool.
    const std::string socket_path = cli.get("via-socket", "");
    config.remote_solve = [socket_path](const workload::Instance& instance,
                                        const std::string& engine_spec,
                                        const api::SolveLimits& limits) {
      thread_local std::unique_ptr<server::Client> client;
      if (!client) client = std::make_unique<server::Client>(socket_path);
      server::SolveCommand command;
      command.spec = instance.name;
      command.engine = engine_spec;
      command.limits = limits;
      return server::rebuild_result(instance, client->solve_raw(command));
    };
  }
  if (cli.get_bool("progress"))
    config.on_record = [](const workload::SuiteRecord& rec) {
      std::fprintf(stderr, "  [%zu] %s: makespan %.2f (%s)%s\n", rec.instance,
                   rec.engine.c_str(), rec.makespan, rec.termination.c_str(),
                   rec.error.empty() ? "" : " ERROR");
    };

  const workload::SuiteReport report = workload::run_suite(corpus, config);
  std::printf("%s", report.summary().c_str());
  write_report(cli, "csv",
               [&](std::ostream& out) { workload::write_csv(report, out); });
  write_report(cli, "json",
               [&](std::ostream& out) { workload::write_json(report, out); });
  return report.ok() ? 0 : 1;
}

/// `optsched_cli resolve ...` — warm-start re-solve chains with the
/// warm-vs-cold oracle. argv[0] here is the literal "resolve".
int resolve_main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  cli.describe("corpus",
               "churn corpus file: 'scenario | delta | delta' per line")
      .describe("spec", "inline scenario spec (alternative to --corpus)")
      .describe("deltas",
                "with --spec: ';'-separated perturbation chain, e.g. "
                "\"delta=taskcost node=3 cost=25; delta=procdrop proc=1\"")
      .describe("engine", "engine spec name[:key=value...] (default astar)")
      .describe("budget-ms", "per-solve time budget (default unlimited)")
      .describe("max-expansions",
                "per-solve expansion budget (default unlimited)")
      .describe("csv", "write the per-step report table to this file")
      .describe("json", "write the full JSON report to this file")
      .describe("progress", "print one line per finished step")
      .describe("list-columns", kListColumnsHelp);
  if (cli.maybe_print_help(
          "Warm-start re-solve under churn, with a warm-vs-cold oracle"))
    return 0;
  cli.validate();

  if (cli.has("list-columns"))
    return print_columns<workload::ChurnRecord>(cli);

  std::vector<workload::ChurnCase> corpus;
  if (cli.has("corpus")) {
    corpus = workload::load_churn_corpus_file(cli.get("corpus", ""));
  } else {
    OPTSCHED_REQUIRE(cli.has("spec"),
                     "resolve requires --corpus <file> or --spec <scenario>");
    workload::ChurnCase churn_case;
    churn_case.base = workload::ScenarioSpec::parse(cli.get("spec", ""));
    for (const auto& part : util::split(cli.get("deltas", ""), ';')) {
      const std::string text = util::trim(part);
      if (text.empty()) continue;
      churn_case.chain.push_back(workload::PerturbationSpec::parse(text));
    }
    OPTSCHED_REQUIRE(!churn_case.chain.empty(),
                     "--deltas needs at least one perturbation");
    corpus.push_back(std::move(churn_case));
  }

  workload::ChurnConfig config;
  config.engine = cli.get("engine", "astar");
  config.limits = limits_from(cli);
  if (cli.get_bool("progress"))
    config.on_record = [](const workload::ChurnRecord& rec) {
      std::fprintf(stderr,
                   "  [case %zu step %zu] warm %.2f / cold %.2f, "
                   "expanded %llu vs %llu (%.1f%% skipped)%s\n",
                   rec.case_index, rec.step, rec.warm_makespan,
                   rec.cold_makespan,
                   static_cast<unsigned long long>(rec.warm.search.expanded),
                   static_cast<unsigned long long>(rec.cold.search.expanded),
                   rec.search_skipped_pct,
                   rec.oracle_ok ? "" : " MISMATCH");
    };

  const workload::ChurnReport report = workload::run_churn(corpus, config);
  std::printf("%s", report.summary().c_str());
  write_report(cli, "csv", [&](std::ostream& out) {
    workload::write_churn_csv(report, out);
  });
  write_report(cli, "json", [&](std::ostream& out) {
    workload::write_churn_json(report, out);
  });
  return report.ok() ? 0 : 1;
}

/// Bitwise double comparison for the cache-soundness oracle: a cached
/// reply must reproduce the cold solve exactly, not within tolerance.
bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// `optsched_cli serve --socket <path> ...` — host the resident daemon.
int serve_main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  cli.describe("socket", "Unix-domain socket path to listen on (required)")
      .describe("workers", "solver worker threads (default 2)")
      .describe("queue-cap", "max queued jobs before typed overload "
                             "rejects (default 64)")
      .describe("cache-mb", "result-cache byte budget in MiB, 0 disables "
                            "(default 64)")
      .describe("memory-budget-mb",
                "global search-memory governor across in-flight jobs in "
                "MiB, 0 disables (default 1024)")
      .describe("job-memory-mb",
                "per-job search-memory cap when a command sets none; also "
                "its governor reservation (default 128)")
      .describe("budget-ms",
                "per-job time budget when a command sets none (default "
                "unlimited)");
  if (cli.maybe_print_help("Run the solver as a resident daemon")) return 0;
  cli.validate();

  OPTSCHED_REQUIRE(cli.has("socket"), "serve requires --socket <path>");
  server::DaemonConfig config;
  config.socket_path = cli.get("socket", "");
  const std::int64_t workers = cli.get_int("workers", 2);
  OPTSCHED_REQUIRE(workers >= 1, "--workers must be >= 1");
  config.workers = static_cast<unsigned>(workers);
  const std::int64_t queue_cap = cli.get_int("queue-cap", 64);
  OPTSCHED_REQUIRE(queue_cap >= 1, "--queue-cap must be >= 1");
  config.queue_cap = static_cast<std::size_t>(queue_cap);
  auto mib = [&cli](const char* flag, std::int64_t fallback) {
    const std::int64_t v = cli.get_int(flag, fallback);
    OPTSCHED_REQUIRE(v >= 0, std::string("--") + flag + " must be >= 0");
    return static_cast<std::size_t>(v) * 1024 * 1024;
  };
  config.cache_bytes = mib("cache-mb", 64);
  config.memory_budget = mib("memory-budget-mb", 1024);
  config.default_job_memory = mib("job-memory-mb", 128);
  config.default_budget_ms = cli.get_double("budget-ms", 0.0);

  server::Daemon daemon(std::move(config));
  daemon.start();
  // One flushed readiness line so scripts can wait for it before
  // connecting (CI greps for "listening on").
  std::printf("listening on %s (workers %u, queue cap %zu, cache %zu MiB, "
              "memory budget %zu MiB)\n",
              daemon.config().socket_path.c_str(), daemon.config().workers,
              daemon.config().queue_cap, daemon.config().cache_bytes >> 20,
              daemon.config().memory_budget >> 20);
  std::fflush(stdout);
  daemon.wait();
  const server::StatusReply status = daemon.status();
  std::printf("daemon stopped: %llu accepted, %llu completed, %llu "
              "rejected, %llu cache hits served\n",
              static_cast<unsigned long long>(status.accepted),
              static_cast<unsigned long long>(status.completed),
              static_cast<unsigned long long>(status.rejected),
              static_cast<unsigned long long>(status.cache_hits_served));
  return 0;
}

/// `optsched_cli submit ...` — ship a corpus to a running daemon, with
/// the cache-soundness oracle (a daemon reply must bit-agree with a cold
/// in-process solve) and a cache-hit-rate gate for CI warm passes.
int submit_main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  cli.describe("socket", "daemon socket path (required)")
      .describe("corpus", "corpus file, one scenario spec per line")
      .describe("spec", "inline scenario spec (alternative to --corpus)")
      .describe("engine", "engine spec name[:key=value...] (default astar)")
      .describe("budget-ms", "per-job time budget (default daemon's)")
      .describe("max-expansions", "per-job expansion budget (default none)")
      .describe("max-memory-mb", "per-job search-memory cap "
                                 "(default daemon's)")
      .describe("no-cache", "force fresh solves (skip the daemon's cache)")
      .describe("oracle", "cold-solve each instance in-process and require "
                          "bit-agreement with the daemon's reply")
      .describe("min-hit-rate", "fail unless at least this fraction of "
                                "replies were cache hits (e.g. 0.9)")
      .describe("csv", "write the per-run report table to this file")
      .describe("progress", "print one line per reply");
  if (cli.maybe_print_help("Submit scenarios to a resident daemon")) return 0;
  cli.validate();

  OPTSCHED_REQUIRE(cli.has("socket"), "submit requires --socket <path>");
  std::vector<workload::ScenarioSpec> corpus;
  if (cli.has("corpus")) {
    corpus = workload::load_corpus_file(cli.get("corpus", ""));
  } else {
    OPTSCHED_REQUIRE(cli.has("spec"),
                     "submit requires --corpus <file> or --spec <scenario>");
    corpus.push_back(workload::ScenarioSpec::parse(cli.get("spec", "")));
  }

  server::SolveCommand base;
  base.engine = cli.get("engine", "astar");
  base.limits = limits_from(cli);
  base.no_cache = cli.get_bool("no-cache");
  const bool oracle = cli.get_bool("oracle");
  const double min_hit_rate = cli.get_double("min-hit-rate", 0.0);
  OPTSCHED_REQUIRE(min_hit_rate >= 0.0 && min_hit_rate <= 1.0,
                   "--min-hit-rate must be in [0, 1]");

  server::Client client(cli.get("socket", ""));
  const auto [engine_name, engine_options] =
      api::parse_engine_spec(base.engine);
  workload::SuiteConfig config;
  config.engines = {base.engine};
  config.jobs = 1;
  config.limits = base.limits;
  config.remote_solve = [&](const workload::Instance& instance,
                            const std::string&, const api::SolveLimits&) {
    server::SolveCommand command = base;
    command.spec = instance.name;
    api::SolveResult result =
        server::rebuild_result(instance, client.solve_raw(command));
    if (!oracle) return result;
    // Cold in-process reference: the daemon's reply — cached or fresh —
    // must reproduce it bit for bit.
    api::SolveRequest request(instance.graph, instance.machine,
                              instance.comm);
    request.limits = base.limits;
    request.options = engine_options;
    const api::SolveResult cold = api::solve(engine_name, request);
    if (!bits_equal(result.makespan, cold.makespan))
      throw util::Error("oracle: makespan " +
                        util::format_number(result.makespan) + " != cold " +
                        util::format_number(cold.makespan));
    for (dag::NodeId n = 0; n < instance.graph.num_nodes(); ++n) {
      const auto& got = result.schedule.placement(n);
      const auto& want = cold.schedule.placement(n);
      if (got.proc != want.proc || !bits_equal(got.start, want.start) ||
          !bits_equal(got.finish, want.finish))
        throw util::Error(
            "oracle: node " + std::to_string(n) + " placed (" +
            std::to_string(got.proc) + ", " +
            util::format_number(got.start) + ") but cold solve says (" +
            std::to_string(want.proc) + ", " +
            util::format_number(want.start) + ")");
    }
    return result;
  };
  if (cli.get_bool("progress"))
    config.on_record = [](const workload::SuiteRecord& rec) {
      std::fprintf(stderr, "  [%zu] %s: makespan %.2f (%s)%s%s\n",
                   rec.instance, rec.spec.c_str(), rec.makespan,
                   rec.termination.c_str(),
                   rec.stats.cache_hit ? " [cache]" : "",
                   rec.error.empty() ? "" : " ERROR");
    };
  const workload::SuiteReport report = workload::run_suite(corpus, config);

  std::size_t hits = 0, failures = 0;
  double queue_wait_total = 0.0;
  for (const workload::SuiteRecord& rec : report.records) {
    if (rec.stats.cache_hit) ++hits;
    if (!rec.error.empty() || !rec.valid) ++failures;
    queue_wait_total += rec.stats.queue_wait_ms;
  }
  const std::size_t runs = report.records.size();
  const double hit_rate =
      runs ? static_cast<double>(hits) / static_cast<double>(runs) : 0.0;
  std::printf("submit: %zu runs via %s, %zu cache hits (%.0f%%), %zu "
              "failures, mean queue wait %.2f ms%s\n",
              runs, base.engine.c_str(), hits, hit_rate * 100.0, failures,
              runs ? queue_wait_total / static_cast<double>(runs) : 0.0,
              oracle ? ", oracle: bit-agreement checked" : "");

  // The suite CSV schema: CI diffs passes after stripping the run-class
  // columns (`suite --list-columns=run`) by name.
  write_report(cli, "csv",
               [&](std::ostream& out) { workload::write_csv(report, out); });

  if (failures) return 1;
  if (hit_rate < min_hit_rate) {
    std::fprintf(stderr, "error: cache hit rate %.2f below --min-hit-rate "
                         "%.2f\n",
                 hit_rate, min_hit_rate);
    return 1;
  }
  return 0;
}

/// `optsched_cli status --socket <path>` — one status round-trip.
int status_main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  cli.describe("socket", "daemon socket path (required)");
  if (cli.maybe_print_help("Query a resident daemon")) return 0;
  cli.validate();
  OPTSCHED_REQUIRE(cli.has("socket"), "status requires --socket <path>");
  server::Client client(cli.get("socket", ""));
  const server::StatusReply s = client.status();
  std::printf("jobs: %llu accepted, %llu completed, %llu rejected; queue "
              "%zu/%zu, %zu in flight on %u workers\n",
              static_cast<unsigned long long>(s.accepted),
              static_cast<unsigned long long>(s.completed),
              static_cast<unsigned long long>(s.rejected), s.queue_depth,
              s.queue_cap, s.in_flight, s.workers);
  std::printf("memory governor: %zu/%zu MiB reserved\n",
              s.memory_reserved >> 20, s.memory_budget >> 20);
  std::printf("cache: %llu/%llu hits, %zu entries (%zu/%zu KiB), %llu "
              "insertions, %llu evictions\n",
              static_cast<unsigned long long>(s.cache.hits),
              static_cast<unsigned long long>(s.cache.lookups),
              s.cache.entries, s.cache.bytes >> 10,
              s.cache.byte_budget >> 10,
              static_cast<unsigned long long>(s.cache.insertions),
              static_cast<unsigned long long>(s.cache.evictions));
  return 0;
}

/// `optsched_cli shutdown --socket <path>` — ask a daemon to drain.
int shutdown_main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  cli.describe("socket", "daemon socket path (required)");
  if (cli.maybe_print_help("Shut a resident daemon down")) return 0;
  cli.validate();
  OPTSCHED_REQUIRE(cli.has("socket"), "shutdown requires --socket <path>");
  server::Client client(cli.get("socket", ""));
  client.shutdown();
  std::printf("daemon at %s acknowledged shutdown\n",
              cli.get("socket", "").c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  if (argc >= 2 && std::string(argv[1]) == "suite")
    return suite_main(argc - 1, argv + 1);
  if (argc >= 2 && std::string(argv[1]) == "resolve")
    return resolve_main(argc - 1, argv + 1);
  if (argc >= 2 && std::string(argv[1]) == "serve")
    return serve_main(argc - 1, argv + 1);
  if (argc >= 2 && std::string(argv[1]) == "submit")
    return submit_main(argc - 1, argv + 1);
  if (argc >= 2 && std::string(argv[1]) == "status")
    return status_main(argc - 1, argv + 1);
  if (argc >= 2 && std::string(argv[1]) == "shutdown")
    return shutdown_main(argc - 1, argv + 1);
  util::Cli cli(argc, argv);
  cli.describe("machine", "target machine, kind:size (default clique:4)")
      .describe("engine", engine_help())
      .describe("opts", "engine options, key=value[,key=value...] "
                        "(see --list-engines)")
      .describe("epsilon", "shorthand for --opts epsilon=...")
      .describe("ppes", "shorthand for --opts ppes=...")
      .describe("budget-ms", "search budget (default unlimited)")
      .describe("max-expansions", "state-expansion budget (default unlimited)")
      .describe("progress", "print progress lines during the search")
      .describe("hop-scaled", "scale comm costs by topology hop distance")
      .describe("gantt", "print the ASCII Gantt chart (default true)")
      .describe("stg", "input is in STG format (Kasahara suite)")
      .describe("stg-ccr", "synthesize STG comm costs at this CCR (default 0)")
      .describe("metrics", "print schedule quality metrics (default true)")
      .describe("demo", "schedule the paper's Figure 1 example")
      .describe("list-engines", "list registered engines and exit")
      .describe("markdown", "with --list-engines: emit a markdown table");
  if (cli.maybe_print_help("Schedule a task-graph file (also: "
                           "`optsched_cli suite --help` for corpus runs)"))
    return 0;
  cli.validate();

  if (cli.get_bool("list-engines")) {
    if (cli.get_bool("markdown")) {
      std::printf("%s", api::format_engine_table(true).c_str());
    } else {
      std::printf("registered engines:\n%s",
                  api::format_engine_table(false).c_str());
    }
    return 0;
  }

  dag::TaskGraph graph = [&] {
    if (cli.get_bool("demo")) return dag::paper_figure1();
    OPTSCHED_REQUIRE(!cli.positional().empty(),
                     "usage: optsched_cli <graph.tg> [flags] (or --demo)");
    if (cli.get_bool("stg")) {
      dag::StgOptions opt;
      opt.ccr = cli.get_double("stg-ccr", 0.0);
      return dag::read_stg_file(cli.positional().front(), opt);
    }
    return dag::read_text_file(cli.positional().front());
  }();

  const machine::Machine machine = machine::machine_from_spec(
      cli.get("machine", cli.get_bool("demo") ? "ring:3" : "clique:4"));
  const auto comm = cli.get_bool("hop-scaled")
                        ? machine::CommMode::kHopScaled
                        : machine::CommMode::kUnitDistance;
  const std::string engine = cli.get("engine", "astar");

  api::SolveRequest request(graph, machine, comm);
  request.limits = limits_from(cli);
  request.options = api::parse_options(cli.get("opts", ""));
  if (cli.has("epsilon")) request.options["epsilon"] = cli.get("epsilon", "");
  if (cli.has("ppes")) request.options["ppes"] = cli.get("ppes", "");
  if (cli.get_bool("progress"))
    request.progress = [](const core::ProgressEvent& e) {
      std::fprintf(stderr,
                   "  ... %llu expanded, bound >= %.1f, incumbent %.1f "
                   "(%.1fs)\n",
                   static_cast<unsigned long long>(e.expanded),
                   e.lower_bound, e.incumbent, e.elapsed_seconds);
    };

  std::printf("graph: %zu tasks, %zu edges, CCR %.2f | machine: %s (%u "
              "procs) | engine: %s\n\n",
              graph.num_nodes(), graph.num_edges(), graph.ccr(),
              machine.topology_name().c_str(), machine.num_procs(),
              engine.c_str());

  const api::SolveResult result = api::solve(engine, request);

  sched::validate(result.schedule);
  std::printf("schedule length: %.2f  [%s]\n", result.makespan,
              verdict_for(result).c_str());
  // Every counter the engine reported, in counter-table order; zero and
  // empty ones are counters this engine does not track or never hit.
  api::SolveStats::visit([](const util::Counter& c, const auto& v) {
    const std::string text = util::counter_text(v);
    if (!text.empty() && text != "0")
      std::printf("  %-24s %s\n", c.name, text.c_str());
  }, result.stats);
  // Sorted descending: per-thread attribution is timing-dependent.
  std::string per_ppe;
  for (const auto n : result.stats.expanded_per_ppe)
    per_ppe += (per_ppe.empty() ? "" : "/") + std::to_string(n);
  if (!per_ppe.empty())
    std::printf("  %-24s %s\n", "expanded_per_ppe", per_ppe.c_str());
  std::printf("\n");
  if (cli.get_bool("gantt", true))
    std::printf("%s", sched::render_gantt(result.schedule).c_str());
  if (cli.get_bool("metrics", true))
    std::printf("\n%s",
                sched::format_metrics(sched::compute_metrics(result.schedule))
                    .c_str());
  return 0;
} catch (const optsched::util::Error& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
