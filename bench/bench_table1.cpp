// Table 1 reproduction: running times of (a) Chen & Yu's branch-and-bound,
// (b) A* without the §3.2 pruning techniques ("A* full"), and (c) A* with
// all prunings, on the §4.1 random workloads for CCR in {0.1, 1.0, 10.0}.
//
// All three columns run through the unified solver API — the same
// engine-name + option-string path the CLI uses ("chenyu", "astar" with
// prune=none, "astar") — so this bench doubles as a smoke test of the
// public surface.
//
// The paper (§4.2) reports times growing steeply with v and with CCR,
// Chen & Yu the slowest (expensive per-state underestimate) and pruning
// buying A* a further reduction. This bench does not assert that shape:
// each CCR table ends with two counts computed from its rows — the solved
// cells where pruned A* expanded no more states than A*full (naming those
// where it expanded more) and the cells where Chen & Yu ran slower than
// pruned A*. Absolute values are
// hardware-bound — the paper's Paragon needed 120 s for a v=10 cell that a
// modern core finishes in milliseconds; conversely its v=32 cells took up
// to 7 *days*, which no laptop bench reproduces. Per-cell instance
// selection (see bench_common.hpp) keeps every printed row comparable:
// each cell uses the first §4.1 instance the pruned A* can prove within
// the probe budget, and all three algorithms run on that instance.
//
//   $ ./bench_table1 [--vmax N] [--budget-ms MS] [--full] [--csv]
#include <cstdio>
#include <iostream>
#include <string>

#include "api/registry.hpp"
#include "bench_common.hpp"
#include "util/timer.hpp"

using namespace optsched;

namespace {

struct Cell {
  double seconds = 0.0;
  bool timed_out = false;
  std::uint64_t expanded = 0;
};

Cell run(const std::string& engine, const api::Options& options,
         const dag::TaskGraph& graph, const machine::Machine& machine,
         double budget_ms) {
  api::SolveRequest request(graph, machine);
  request.limits.time_budget_ms = budget_ms;
  request.options = options;
  util::Timer t;
  const auto r = api::solve(engine, request);
  return {t.seconds(), !r.proved_optimal, r.stats.search.expanded};
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  auto opt = bench::parse_sweep(cli, /*default_vmax=*/16,
                                /*default_budget_ms=*/2000.0);
  if (cli.maybe_print_help(
          "Reproduce Table 1: Chen&Yu B&B vs A*-full vs pruned A* runtimes"))
    return 0;
  cli.validate();

  std::printf("== Table 1: serial scheduling times ==\n");
  std::printf("per-cell probe budget %.0f ms (others get 4x); 'TIMEOUT' = "
              "no tractable instance found, like the paper's '-'\n\n",
              opt.budget_ms);

  for (const double ccr : bench::kPaperCcrs) {
    util::Table table({"v", "Chen", "A*full", "A*", "exp(Chen)",
                       "exp(A*full)", "exp(A*)", "inst"});
    int cells = 0, chen_slower = 0, solved = 0, pruned_no_more = 0;
    std::string pruned_fails;
    for (std::uint32_t v = opt.vmin; v <= opt.vmax; v += opt.vstep) {
      const auto machine = bench::paper_machine(v);
      Cell probe_cell;
      const int attempt = bench::select_tractable_instance(
          ccr, v, [&](const dag::TaskGraph& graph) {
            probe_cell = run("astar", {}, graph, machine, opt.budget_ms);
            return !probe_cell.timed_out;
          });

      auto& row = table.row().cell(static_cast<int>(v));
      if (attempt < 0) {
        row.cell("TIMEOUT").cell("TIMEOUT").cell("TIMEOUT");
        row.cell("-").cell("-").cell("-").cell("-");
        continue;
      }
      const auto graph =
          bench::paper_workload(ccr, v, static_cast<std::uint32_t>(attempt));
      const Cell chen =
          run("chenyu", {}, graph, machine, 4 * opt.budget_ms);
      const Cell full = run("astar", {{"prune", "none"}}, graph, machine,
                            4 * opt.budget_ms);

      ++cells;
      if (chen.seconds > probe_cell.seconds) ++chen_slower;
      if (!full.timed_out) {
        ++solved;
        if (probe_cell.expanded <= full.expanded)
          ++pruned_no_more;
        else
          pruned_fails += " v=" + std::to_string(v);
      }

      row.cell(bench::cell_time(chen.seconds, chen.timed_out))
          .cell(bench::cell_time(full.seconds, full.timed_out))
          .cell(bench::cell_time(probe_cell.seconds, false))
          .cell(chen.expanded)
          .cell(full.expanded)
          .cell(probe_cell.expanded)
          .cell(attempt);
    }
    char title[96];
    std::snprintf(title, sizeof title, "CCR = %.1f", ccr);
    table.print(std::cout, title);
    if (opt.csv) table.write_csv(std::cout);
    std::printf("pruned A* expanded no more states than A*full on %d of %d "
                "solved cells (more on:%s); Chen & Yu ran slower than A* on "
                "%d of %d cells\n\n",
                pruned_no_more, solved,
                pruned_fails.empty() ? " none" : pruned_fails.c_str(),
                chen_slower, cells);
  }
  return 0;
}
