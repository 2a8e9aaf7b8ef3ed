// SolverRegistry under concurrent access — the daemon's connection threads
// read the registry (contains/info/solve) from several threads while
// other code may still be registering engines. The registry serializes
// writers and shares readers (std::shared_mutex); this smoke test drives
// both sides at once under TSan-visible contention.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/registry.hpp"
#include "dag/graph.hpp"
#include "machine/machine.hpp"
#include "sched/list_scheduler.hpp"

namespace optsched::api {
namespace {

class UpperBoundSolver : public Solver {
 public:
  SolveResult solve(const SolveRequest& request) const override {
    SolveResult out{sched::upper_bound_schedule(*request.graph,
                                                *request.machine,
                                                request.comm)};
    out.makespan = out.schedule.makespan();
    out.reason = core::Termination::kHeuristic;
    return out;
  }
};

TEST(RegistryThreads, ConcurrentReadersAndWriters) {
  auto& registry = SolverRegistry::instance();
  const dag::TaskGraph graph = dag::paper_figure1();
  const machine::Machine machine = machine::Machine::paper_ring3();

  constexpr int kReaders = 6;
  constexpr int kWriters = 2;
  constexpr int kEnginesPerWriter = 8;
  std::atomic<bool> go{false};
  std::atomic<int> read_errors{0};

  std::vector<std::thread> threads;
  // Writers register fresh uniquely-named engines throughout the run.
  for (int w = 0; w < kWriters; ++w)
    threads.emplace_back([&registry, &go, w] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < kEnginesPerWriter; ++i) {
        registry.add({"threads-test-" + std::to_string(w) + "-" +
                          std::to_string(i),
                      "concurrency test double",
                      {},
                      {},
                      [] { return std::make_unique<UpperBoundSolver>(); }});
      }
    });
  // Readers hammer every const entry point, including full solves.
  for (int r = 0; r < kReaders; ++r)
    threads.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < 200; ++i) {
        if (!registry.contains("astar")) read_errors.fetch_add(1);
        if (registry.info("ida").name != "ida") read_errors.fetch_add(1);
        if (registry.names().empty()) read_errors.fetch_add(1);
        if (registry.names_matching([](const EngineCaps& c) {
              return c.optimal;
            }).empty())
          read_errors.fetch_add(1);
        if (i % 50 == 0) {
          SolveRequest request(graph, machine);
          const SolveResult result = registry.solve("blevel", request);
          if (result.makespan <= 0.0) read_errors.fetch_add(1);
        }
      }
    });

  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  EXPECT_EQ(read_errors.load(), 0);
  // Every registration landed exactly once.
  for (int w = 0; w < kWriters; ++w)
    for (int i = 0; i < kEnginesPerWriter; ++i)
      EXPECT_TRUE(registry.contains("threads-test-" + std::to_string(w) +
                                    "-" + std::to_string(i)));
}

}  // namespace
}  // namespace optsched::api
