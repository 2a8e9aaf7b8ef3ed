// Cross-cutting controls through the unified API: cancellation tokens,
// wall-clock deadlines, expansion limits, memory caps, and progress
// callbacks. Engines are selected from the registry by capability
// (caps.anytime), so every current and future anytime engine is covered:
// a limited/cancelled solve must still return a *valid* complete schedule
// with proved_optimal = false and the right termination reason.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "api/registry.hpp"
#include "dag/generators.hpp"
#include "machine/machine.hpp"
#include "sched/schedule.hpp"

namespace optsched::api {
namespace {

using machine::Machine;

/// Big enough that no engine can prove optimality within the tests'
/// budgets; high CCR makes the state space particularly unforgiving.
dag::TaskGraph hard_graph() {
  dag::RandomDagParams p;
  p.num_nodes = 26;
  p.ccr = 10.0;
  p.seed = 99;
  return dag::random_dag(p);
}

std::vector<std::string> anytime_engines() {
  std::vector<std::string> out;
  for (const auto& name : SolverRegistry::instance().names())
    if (SolverRegistry::instance().info(name).caps.anytime) out.push_back(name);
  return out;
}

/// The portfolio's default members: every other optimal anytime engine.
std::vector<std::string> portfolio_members() {
  std::vector<std::string> out;
  for (const auto& name : SolverRegistry::instance().names()) {
    const EngineCaps caps = SolverRegistry::instance().info(name).caps;
    if (name != "portfolio" && caps.optimal && caps.anytime)
      out.push_back(name);
  }
  return out;
}

class AnytimeEngine : public ::testing::TestWithParam<std::string> {};

TEST_P(AnytimeEngine, PreCancelledReturnsValidIncumbent) {
  const dag::TaskGraph graph = hard_graph();
  const Machine machine = Machine::fully_connected(4);

  SolveRequest request(graph, machine);
  request.cancel.cancel();  // cancelled before the search starts

  const SolveResult result = solve(GetParam(), request);
  EXPECT_EQ(result.reason, core::Termination::kCancelled) << GetParam();
  EXPECT_FALSE(result.proved_optimal);
  EXPECT_GT(result.makespan, 0.0);
  sched::validate(result.schedule);  // still a complete, valid schedule
}

TEST_P(AnytimeEngine, CancelFromAnotherThreadStopsTheSearch) {
  const dag::TaskGraph graph = hard_graph();
  const Machine machine = Machine::fully_connected(4);

  SolveRequest request(graph, machine);
  std::thread canceller([token = request.cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    token.cancel();
  });
  const SolveResult result = solve(GetParam(), request);
  canceller.join();

  // The instance is intractable, so the only way out is the cancellation.
  EXPECT_EQ(result.reason, core::Termination::kCancelled) << GetParam();
  EXPECT_FALSE(result.proved_optimal);
  sched::validate(result.schedule);
}

TEST_P(AnytimeEngine, DeadlineReturnsValidIncumbent) {
  const dag::TaskGraph graph = hard_graph();
  const Machine machine = Machine::fully_connected(4);

  SolveRequest request(graph, machine);
  request.limits.time_budget_ms = 30.0;

  const SolveResult result = solve(GetParam(), request);
  EXPECT_EQ(result.reason, core::Termination::kTimeLimit) << GetParam();
  EXPECT_FALSE(result.proved_optimal);
  sched::validate(result.schedule);
}

TEST_P(AnytimeEngine, ExpansionLimitReturnsValidIncumbent) {
  const dag::TaskGraph graph = hard_graph();
  const Machine machine = Machine::fully_connected(4);

  SolveRequest request(graph, machine);
  request.limits.max_expansions = 10;

  const SolveResult result = solve(GetParam(), request);
  EXPECT_FALSE(result.proved_optimal);
  sched::validate(result.schedule);
  if (GetParam() != "portfolio") {
    EXPECT_EQ(result.reason, core::Termination::kExpansionLimit)
        << GetParam();
    return;
  }
  // Every member gets the limit and the portfolio returns the best
  // member's incumbent, so its reason is whichever limit that member
  // stopped on: one of the reasons the members report when run alone.
  std::vector<core::Termination> member_reasons;
  for (const std::string& member : portfolio_members()) {
    const SolveResult alone = solve(member, request);
    EXPECT_FALSE(alone.proved_optimal) << member;
    member_reasons.push_back(alone.reason);
  }
  EXPECT_NE(std::find(member_reasons.begin(), member_reasons.end(),
                      result.reason),
            member_reasons.end())
      << core::to_string(result.reason);
}

INSTANTIATE_TEST_SUITE_P(
    AllAnytimeEngines, AnytimeEngine, ::testing::ValuesIn(anytime_engines()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(Controls, MemoryCapStopsBestFirstEngines) {
  const dag::TaskGraph graph = hard_graph();
  const Machine machine = Machine::fully_connected(4);
  for (const char* engine : {"astar", "chenyu", "parallel"}) {
    SolveRequest request(graph, machine);
    request.limits.max_memory_bytes = 512 * 1024;
    const SolveResult result = solve(engine, request);
    EXPECT_EQ(result.reason, core::Termination::kMemoryLimit) << engine;
    EXPECT_FALSE(result.proved_optimal);
    sched::validate(result.schedule);
  }
}

TEST(Controls, ProgressCallbackObservesTheSearch) {
  const dag::TaskGraph graph = hard_graph();
  const Machine machine = Machine::fully_connected(4);

  for (const char* engine : {"astar", "ida", "chenyu"}) {
    std::vector<core::ProgressEvent> events;
    SolveRequest request(graph, machine);
    request.limits.max_expansions = 2000;
    request.progress_every = 100;
    request.progress = [&events](const core::ProgressEvent& e) {
      events.push_back(e);
    };
    const SolveResult result = solve(engine, request);
    (void)result;
    ASSERT_GE(events.size(), 2u) << engine;
    for (std::size_t i = 1; i < events.size(); ++i)
      EXPECT_GE(events[i].expanded, events[i - 1].expanded) << engine;
    EXPECT_GT(events.back().incumbent, 0.0) << engine;
  }
}

TEST(Controls, ParallelProgressIsSerialized) {
  const dag::TaskGraph graph = hard_graph();
  const Machine machine = Machine::fully_connected(4);

  std::atomic<int> concurrent{0};
  std::atomic<int> max_concurrent{0};
  std::atomic<std::uint64_t> calls{0};
  SolveRequest request(graph, machine);
  request.limits.max_expansions = 5000;
  request.progress_every = 50;
  request.options["ppes"] = "4";
  request.progress = [&](const core::ProgressEvent&) {
    const int now = ++concurrent;
    int seen = max_concurrent.load();
    while (now > seen && !max_concurrent.compare_exchange_weak(seen, now)) {
    }
    ++calls;
    --concurrent;
  };
  const SolveResult result = solve("parallel", request);
  (void)result;
  EXPECT_GT(calls.load(), 0u);
  EXPECT_EQ(max_concurrent.load(), 1) << "progress must be serialized";
}

}  // namespace
}  // namespace optsched::api
