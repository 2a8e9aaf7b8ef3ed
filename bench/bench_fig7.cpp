// Figure 7 reproduction: the parallel Aε* with ε = 0.2 and ε = 0.5 —
// percentage deviation from the optimal schedule length (plots a, c) and
// the Aε*/A* scheduling-time ratio (plots b, d), per CCR and graph size.
//
// All runs go through the unified solver API: the `parallel` engine with
// ppes=... for the exact baseline, plus epsilon=... for the approximate
// variant.
//
// The paper (§4.4) reports deviations well below the 100ε% guarantee
// (often 0 for small graphs) and time ratios well below 1 (10-40% savings
// at ε=0.2 and 50-70% at ε=0.5). This bench asserts no timing: after the
// tables of each ε it prints counts computed from their rows — the solved
// cells whose deviation is within the bound, and those whose time ratio
// is below 1, listing the cells above 1. The guarantee itself is checked:
// the bench exits 1 if a proved Aε* makespan exceeds (1+ε) times the
// optimum.
//
//   $ ./bench_fig7 [--vmax N] [--budget-ms MS] [--ppes Q] [--full]
#include <cstdio>
#include <iostream>
#include <string>

#include "api/registry.hpp"
#include "bench_common.hpp"
#include "util/timer.hpp"

using namespace optsched;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  auto opt = bench::parse_sweep(cli, /*default_vmax=*/12,
                                /*default_budget_ms=*/4000.0);
  cli.describe("ppes", "PPE count (paper: 16)");
  if (cli.maybe_print_help(
          "Reproduce Figure 7: parallel Aepsilon* deviation and time ratio"))
    return 0;
  cli.validate();
  const auto ppes = static_cast<std::uint32_t>(cli.get_int("ppes", 16));

  std::printf("== Figure 7: parallel Aepsilon* with %u PPEs ==\n\n", ppes);

  int violations = 0;  // proved Aeps* makespans above (1+eps) * optimal
  for (const double eps : {0.2, 0.5}) {
    int solved = 0, within_bound = 0, faster = 0;
    std::string slower;  // the cells with time ratio >= 1
    for (const double ccr : bench::kPaperCcrs) {
      util::Table table({"v", "optimal", "Aeps SL", "deviation%", "bound%",
                         "time(A*)", "time(Aeps)", "ratio"});
      for (std::uint32_t v = opt.vmin; v <= opt.vmax; v += opt.vstep) {
        const auto machine = bench::paper_machine(v);

        // Cell instance: first one the serial search can prove (the
        // deviation column needs a known optimum).
        const int attempt = bench::select_tractable_instance(
            ccr, v, [&](const dag::TaskGraph& graph) {
              api::SolveRequest request(graph, machine);
              request.limits.time_budget_ms = opt.budget_ms;
              return api::solve("astar", request).proved_optimal;
            });

        auto& row = table.row().cell(static_cast<int>(v));
        if (attempt < 0) {
          row.cell("TIMEOUT").cell("-").cell("-").cell("-").cell("-")
              .cell("-").cell("-");
          continue;
        }
        const auto graph =
            bench::paper_workload(ccr, v, static_cast<std::uint32_t>(attempt));

        api::SolveRequest exact_request(graph, machine);
        exact_request.limits.time_budget_ms = 4 * opt.budget_ms;
        exact_request.options["ppes"] = std::to_string(ppes);
        util::Timer t_exact;
        const auto exact = api::solve("parallel", exact_request);
        const double exact_time = t_exact.seconds();

        api::SolveRequest eps_request = exact_request;
        eps_request.options["epsilon"] = std::to_string(eps);
        util::Timer t_eps;
        const auto approx = api::solve("parallel", eps_request);
        const double eps_time = t_eps.seconds();

        if (!exact.proved_optimal) {
          row.cell("TIMEOUT").cell("-").cell("-").cell("-").cell("-")
              .cell("-").cell("-");
          continue;
        }
        const double deviation =
            100.0 * (approx.makespan - exact.makespan) / exact.makespan;
        const double ratio = eps_time / exact_time;
        ++solved;
        if (deviation <= 100.0 * eps + 1e-9) ++within_bound;
        if (approx.proved_optimal &&
            approx.makespan > (1.0 + eps) * exact.makespan + 1e-9)
          ++violations;
        if (ratio < 1.0) {
          ++faster;
        } else {
          char cell[64];
          std::snprintf(cell, sizeof cell, " CCR %.1f v=%u (%.2f)", ccr, v,
                        ratio);
          slower += cell;
        }
        row.cell(exact.makespan, 0)
            .cell(approx.makespan, 0)
            .cell(deviation, 2)
            .cell(100.0 * eps, 0)
            .cell(util::format_seconds(exact_time))
            .cell(util::format_seconds(eps_time))
            .cell(ratio, 2);
      }
      char title[96];
      std::snprintf(title, sizeof title, "epsilon = %.1f, CCR = %.1f", eps,
                    ccr);
      table.print(std::cout, title);
      if (opt.csv) table.write_csv(std::cout);
      std::printf("\n");
    }
    std::printf("epsilon = %.1f: deviation within bound on %d of %d solved "
                "cells; time ratio < 1 on %d of %d (1 or above:%s)\n\n",
                eps, within_bound, solved, faster, solved,
                slower.empty() ? " none" : slower.c_str());
  }
  if (violations > 0) {
    std::fprintf(stderr,
                 "FAIL: %d proved Aepsilon* makespan(s) above (1+epsilon) * "
                 "optimal\n",
                 violations);
    return 1;
  }
  return 0;
}
