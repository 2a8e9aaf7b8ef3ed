// SolveSession: the warm-start re-solve lifecycle through the public API —
// resolve() must bit-agree with a cold registry solve of the perturbed
// instance, stats must report the reuse, non-warm engines must degrade to
// cold re-solves, and the PR's parallel guardrails (up-front shard memory
// budget, effective-PPE clamp on tiny instances) must be visible here.
#include "api/session.hpp"

#include <gtest/gtest.h>

#include "dag/generators.hpp"
#include "parallel/ws_transport.hpp"
#include "sched/validator.hpp"
#include "util/assert.hpp"
#include "workload/scenario.hpp"

namespace optsched::api {
namespace {

using core::DeltaKind;
using core::InstanceDelta;
using workload::Instance;
using workload::ScenarioSpec;

Instance make_instance(const std::string& spec) {
  return ScenarioSpec::parse(spec).materialize();
}

/// Cold reference: one-shot registry solve of the session's current
/// instance (what resolve() must bit-agree with).
SolveResult cold_solve(const std::string& engine, const SolveSession& s,
                       machine::CommMode comm) {
  SolveRequest request(s.graph(), s.machine(), comm);
  return SolverRegistry::instance().solve(engine, request);
}

TEST(SolveSession, ResolveBeforeSolveThrows) {
  SolveSession session("astar");
  EXPECT_THROW(session.resolve({}), InvalidRequest);
  EXPECT_FALSE(session.has_result());
  EXPECT_THROW(session.graph(), util::Error);
}

TEST(SolveSession, UnknownEngineRejectedAtConstruction) {
  EXPECT_THROW(SolveSession("no-such-engine"), InvalidRequest);
}

TEST(SolveSession, WarmResolveChainBitAgreesWithCold) {
  const Instance inst =
      make_instance("family=random nodes=8 ccr=1 machine=clique:3 seed=21");
  SolveSession session("astar");
  EXPECT_TRUE(session.warm_capable());

  SolveRequest request(inst.graph, inst.machine, inst.comm);
  const SolveResult first = session.solve(request);
  EXPECT_TRUE(first.proved_optimal);
  // The initial solve is cold by definition.
  EXPECT_FALSE(first.stats.warm_start_used);
  EXPECT_EQ(first.stats.states_retained, 0u);

  const InstanceDelta chain[] = {
      {.kind = DeltaKind::kTaskCost, .node = 2, .value = 57.0},
      {.kind = DeltaKind::kTaskCost, .node = 6, .value = 3.0},
      {.kind = DeltaKind::kProcAdd, .value = 1.0},
      {.kind = DeltaKind::kTaskCost, .node = 4, .value = 29.0},
  };
  for (const InstanceDelta& delta : chain) {
    const SolveResult warm = session.resolve(delta);
    const SolveResult cold = cold_solve("astar", session, inst.comm);
    ASSERT_TRUE(cold.proved_optimal);
    EXPECT_TRUE(warm.proved_optimal) << to_string(delta.kind);
    EXPECT_NEAR(warm.makespan, cold.makespan, 1e-9) << to_string(delta.kind);
    EXPECT_NO_THROW(sched::validate(warm.schedule));
    // A machine change invalidates every stored state, and the repaired
    // seed may not beat the fresh static bound — reuse is then honestly
    // reported as absent. Graph-only deltas must reuse the arena.
    if (delta.kind != DeltaKind::kProcAdd) {
      EXPECT_TRUE(warm.stats.warm_start_used) << to_string(delta.kind);
    }
    EXPECT_EQ(session.last().makespan, warm.makespan);
  }
  // ProcAdd grew the machine inside the session.
  EXPECT_EQ(session.machine().num_procs(), inst.machine.num_procs() + 1);
}

TEST(SolveSession, SkippedPctReportedOnCostOnlyChurn) {
  // A chain stays sequential under any cost change: the repaired seed
  // matches the critical-path bound and the re-solve is an instant proof.
  const Instance inst =
      make_instance("family=chain length=8 machine=clique:2 seed=1");
  SolveSession session("astar");
  SolveRequest request(inst.graph, inst.machine, inst.comm);
  ASSERT_TRUE(session.solve(request).proved_optimal);

  const SolveResult warm = session.resolve(
      {.kind = DeltaKind::kTaskCost, .node = 3, .value = 55.0});
  EXPECT_TRUE(warm.proved_optimal);
  EXPECT_TRUE(warm.stats.warm_start_used);
  EXPECT_EQ(warm.stats.search.expanded, 0u);
  EXPECT_DOUBLE_EQ(warm.stats.search_skipped_pct, 100.0);
}

TEST(SolveSession, NonWarmEngineDegradesToColdResolve) {
  const Instance inst =
      make_instance("family=random nodes=7 ccr=1 machine=clique:2 seed=5");
  for (const std::string engine : {"ida", "chenyu"}) {
    ASSERT_FALSE(SolverRegistry::instance().info(engine).caps.warm_start);
    SolveSession session(engine);
    EXPECT_FALSE(session.warm_capable());
    SolveRequest request(inst.graph, inst.machine, inst.comm);
    ASSERT_TRUE(session.solve(request).proved_optimal) << engine;

    const SolveResult warm = session.resolve(
        {.kind = DeltaKind::kTaskCost, .node = 3, .value = 48.0});
    const SolveResult cold = cold_solve(engine, session, inst.comm);
    EXPECT_FALSE(warm.stats.warm_start_used) << engine;
    EXPECT_EQ(warm.stats.states_retained, 0u) << engine;
    EXPECT_NEAR(warm.makespan, cold.makespan, 1e-9) << engine;
    EXPECT_TRUE(warm.proved_optimal) << engine;
  }
}

TEST(SolveSession, ParallelEngineUsesSeededBound) {
  const Instance inst =
      make_instance("family=random nodes=8 ccr=1 machine=clique:3 seed=31");
  SolveSession session("parallel", {{"ppes", "2"}});
  ASSERT_TRUE(session.warm_capable());
  SolveRequest request(inst.graph, inst.machine, inst.comm);
  ASSERT_TRUE(session.solve(request).proved_optimal);

  const SolveResult warm = session.resolve(
      {.kind = DeltaKind::kTaskCost, .node = 5, .value = 44.0});
  const SolveResult cold = cold_solve("astar", session, inst.comm);
  ASSERT_TRUE(cold.proved_optimal);
  EXPECT_TRUE(warm.proved_optimal);
  EXPECT_NEAR(warm.makespan, cold.makespan, 1e-9);
  // The parallel engine reuses the repaired-incumbent bound (no arena).
  EXPECT_TRUE(warm.stats.warm_start_used);
  EXPECT_EQ(warm.stats.states_retained, 0u);
}

// PR satellite: the work-stealing shard table's memory must fit the
// budget *before* the shards are allocated, as a typed InvalidRequest.
TEST(ParallelGuardrails, ShardBudgetCheckedUpFront) {
  const Instance inst =
      make_instance("family=random nodes=8 ccr=1 machine=clique:2 seed=3");
  SolveRequest request(inst.graph, inst.machine, inst.comm);
  request.options = {{"mode", "ws"}, {"ppes", "4"}};
  request.limits.max_memory_bytes = 1024;  // far below any shard table
  EXPECT_THROW(SolverRegistry::instance().solve("parallel", request),
               InvalidRequest);
  // The check sizes the table the ws transport builds for 4 PPEs: one
  // byte below its fixed allocation is refused, naming the table; a
  // budget equal to it passes the check (the search may then stop on its
  // memory limit, with a valid schedule).
  const std::size_t fixed =
      par::ShardedSignatureTable::estimate_bytes(par::ws_shard_count(4));
  request.limits.max_memory_bytes = fixed - 1;
  try {
    SolverRegistry::instance().solve("parallel", request);
    ADD_FAILURE() << "expected InvalidRequest";
  } catch (const InvalidRequest& e) {
    EXPECT_NE(std::string(e.what()).find("dedup table"), std::string::npos)
        << e.what();
  }
  request.limits.max_memory_bytes = fixed;
  EXPECT_NO_THROW(sched::validate(
      SolverRegistry::instance().solve("parallel", request).schedule));
  // A workable budget solves fine.
  request.limits.max_memory_bytes = 64u << 20;
  const SolveResult r = SolverRegistry::instance().solve("parallel", request);
  EXPECT_TRUE(r.proved_optimal);
}

// PR satellite: ws mode on a tiny instance clamps the PPE count to what
// the initial frontier can feed instead of reporting idle PPEs as skew.
TEST(ParallelGuardrails, EffectivePpesClampedOnTinyInstances) {
  const Instance inst =
      make_instance("family=chain length=4 machine=clique:2 seed=1");
  SolveRequest request(inst.graph, inst.machine, inst.comm);
  request.options = {{"mode", "ws"}, {"ppes", "8"}};
  const SolveResult r = SolverRegistry::instance().solve("parallel", request);
  EXPECT_TRUE(r.proved_optimal);
  ASSERT_GT(r.stats.effective_ppes, 0u);
  EXPECT_LT(r.stats.effective_ppes, 8u);  // a 4-chain cannot feed 8 PPEs
  EXPECT_LE(r.stats.expanded_per_ppe.size(), r.stats.effective_ppes);
}

}  // namespace
}  // namespace optsched::api
