// Figure 6 reproduction: speedup of the parallel A* over the serial A*
// with 2/4/8/16 PPEs for CCR in {0.1, 1.0, 10.0}.
//
// Both columns run through the unified solver API ("astar" and "parallel"
// with a ppes=... option), the same path the CLI uses.
//
// Expected shape (paper §4.3): moderately sub-linear speedup, slightly
// degrading with graph size and more irregular at high CCR. NOTE on
// substitution: the paper measured wall-clock on a 16-node Intel Paragon;
// PPEs here are threads, so wall-clock speedup saturates at the host's
// hardware-thread count (printed below). The work ratio (parallel/serial
// expansions, the paper's "extra states"), the transfer ratio (states
// shipped between PPEs per parallel expansion) and the PPE load balance
// carry the machine-independent signal.
//
//   $ ./bench_fig6 [--vmax N] [--budget-ms MS] [--ppes 2,4,8,16] [--full]
#include <cstdio>
#include <iostream>
#include <sstream>
#include <thread>

#include "api/registry.hpp"
#include "bench_common.hpp"
#include "util/timer.hpp"

using namespace optsched;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  auto opt = bench::parse_sweep(cli, /*default_vmax=*/12,
                                /*default_budget_ms=*/4000.0);
  cli.describe("ppes", "comma-separated PPE counts (default 2,4,8,16)");
  if (cli.maybe_print_help("Reproduce Figure 6: parallel A* speedups"))
    return 0;
  cli.validate();

  std::vector<std::uint32_t> ppe_counts;
  {
    std::stringstream ss(cli.get("ppes", "2,4,8,16"));
    for (std::string tok; std::getline(ss, tok, ',');)
      ppe_counts.push_back(static_cast<std::uint32_t>(std::stoul(tok)));
  }

  std::printf("== Figure 6: parallel A* speedup (host has %u hardware "
              "threads) ==\n\n",
              std::thread::hardware_concurrency());

  for (const double ccr : bench::kPaperCcrs) {
    std::vector<std::string> header{"v", "serial"};
    for (const auto q : ppe_counts) {
      header.push_back("S(" + std::to_string(q) + ")");
      header.push_back("work(" + std::to_string(q) + ")");
      header.push_back("xfer(" + std::to_string(q) + ")");
    }
    util::Table table(header);

    for (std::uint32_t v = opt.vmin; v <= opt.vmax; v += opt.vstep) {
      const auto machine = bench::paper_machine(v);

      // Pick a cell instance the serial search can prove (see
      // bench_common.hpp), preferring ones that are not trivially fast so
      // the speedup measurement has signal.
      double serial_time = 0.0;
      double serial_makespan = 0.0;
      std::uint64_t serial_expanded = 0;
      const int attempt = bench::select_tractable_instance(
          ccr, v, [&](const dag::TaskGraph& graph) {
            api::SolveRequest request(graph, machine);
            request.limits.time_budget_ms = opt.budget_ms;
            util::Timer t;
            const auto serial = api::solve("astar", request);
            serial_time = t.seconds();
            serial_makespan = serial.makespan;
            serial_expanded = serial.stats.search.expanded;
            return serial.proved_optimal;
          });

      auto& row = table.row().cell(static_cast<int>(v));
      if (attempt < 0) {
        row.cell("TIMEOUT");
        for (std::size_t k = 0; k < ppe_counts.size(); ++k)
          row.cell("-").cell("-").cell("-");
        continue;
      }
      const auto graph =
          bench::paper_workload(ccr, v, static_cast<std::uint32_t>(attempt));
      row.cell(bench::cell_time(serial_time, false));
      for (const auto q : ppe_counts) {
        api::SolveRequest request(graph, machine);
        request.limits.time_budget_ms = opt.budget_ms;
        request.options["ppes"] = std::to_string(q);
        util::Timer t;
        const auto r = api::solve("parallel", request);
        const double elapsed = t.seconds();
        if (!r.proved_optimal) {
          row.cell("-").cell("-").cell("-");
          continue;
        }
        if (r.makespan != serial_makespan) {
          row.cell("MISMATCH").cell("-").cell("-");
          continue;
        }
        const auto ratio = [](std::uint64_t num, std::uint64_t den) {
          return den ? static_cast<double>(num) / static_cast<double>(den)
                     : 0.0;
        };
        row.cell(serial_time / elapsed, 2)
            .cell(ratio(r.stats.search.expanded, serial_expanded), 2)
            .cell(ratio(r.stats.states_transferred, r.stats.search.expanded),
                  2);
      }
    }
    char title[160];
    std::snprintf(title, sizeof title,
                  "CCR = %.1f   (S(q) = wall speedup, work(q) = parallel/"
                  "serial expansions, xfer(q) = states transferred per "
                  "parallel expansion)",
                  ccr);
    table.print(std::cout, title);
    if (opt.csv) table.write_csv(std::cout);
    std::printf("\n");
  }
  return 0;
}
