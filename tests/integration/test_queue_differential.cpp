// Bucket-vs-heap differential suite: the bucketed OPEN list must be a
// drop-in replacement for the 4-ary heap — same pop order, therefore the
// same expansion count and a bit-identical makespan on every instance it
// is admissible for. Instances are drawn from the workload scenario
// families across comm modes and machine shapes (the PR-4 fuzz recipe);
// queue=auto must select the bucket queue exactly when the instance's
// cost atoms land on an exact fixed-point grid, and fall back to the
// heap (reported, not asserted) otherwise.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/astar.hpp"
#include "core/bucket_queue.hpp"
#include "core/problem.hpp"
#include "parallel/parallel_astar.hpp"
#include "workload/scenario.hpp"

namespace optsched {
namespace {

using workload::Instance;
using workload::ScenarioSpec;

class QueueDifferential : public ::testing::TestWithParam<std::string> {};

TEST_P(QueueDifferential, BucketMatchesHeapBitForBit) {
  const Instance instance = ScenarioSpec::parse(GetParam()).materialize();
  const core::SearchProblem problem(instance.graph, instance.machine,
                                    instance.comm);

  for (const core::HFunction h :
       {core::HFunction::kPaper, core::HFunction::kPath,
        core::HFunction::kComposite}) {
    core::SearchConfig heap_cfg;
    heap_cfg.h = h;
    heap_cfg.queue = core::QueueSelect::kHeap;
    core::SearchConfig bucket_cfg = heap_cfg;
    bucket_cfg.queue = core::QueueSelect::kAuto;  // bucket where admissible

    const core::SearchResult hr = core::astar_schedule(problem, heap_cfg);
    const core::SearchResult br = core::astar_schedule(problem, bucket_cfg);

    // Bit-identical makespan and identical search trajectory.
    EXPECT_EQ(hr.makespan, br.makespan) << GetParam();
    EXPECT_EQ(hr.stats.expanded, br.stats.expanded) << GetParam();
    EXPECT_EQ(hr.stats.generated, br.stats.generated) << GetParam();
    EXPECT_TRUE(hr.proved_optimal);
    EXPECT_TRUE(br.proved_optimal);

    EXPECT_STREQ(hr.stats.queue_kind, "heap");
    const core::QueueChoice choice = core::choose_queue(problem, bucket_cfg);
    EXPECT_STREQ(br.stats.queue_kind,
                 choice.use_bucket ? "bucket" : "heap");
    if (choice.use_bucket) {
      EXPECT_GT(br.stats.bucket_peak, 0u);
    }
  }
}

/// The same differential through the parallel engine: expansion counts are
/// timing-dependent there (incumbent arrival order), so only the result
/// contract is asserted — bit-identical optimal makespans on both OPEN
/// structures, for both transports.
TEST_P(QueueDifferential, ParallelBucketMatchesHeapMakespan) {
  const Instance instance = ScenarioSpec::parse(GetParam()).materialize();
  const core::SearchProblem problem(instance.graph, instance.machine,
                                    instance.comm);
  par::ParallelConfig config;
  config.num_ppes = 2;

  for (const par::TransportMode mode :
       {par::TransportMode::kRing, par::TransportMode::kWorkStealing}) {
    config.mode = mode;
    config.search.queue = core::QueueSelect::kHeap;
    const par::ParallelResult hr =
        par::parallel_astar_schedule(problem, config);
    config.search.queue = core::QueueSelect::kAuto;
    const par::ParallelResult br =
        par::parallel_astar_schedule(problem, config);
    EXPECT_EQ(hr.result.makespan, br.result.makespan)
        << GetParam() << " mode=" << par::to_string(mode);
    EXPECT_TRUE(hr.result.proved_optimal);
    EXPECT_TRUE(br.result.proved_optimal);
  }
}

/// Instances with speed-3 processors are off every binary grid: queue=auto
/// must never select the bucket queue there, and must say why.
TEST(QueueAutoFallback, NonRepresentableInstanceFallsBackToHeap) {
  const Instance instance =
      ScenarioSpec::parse(
          "family=random nodes=7 ccr=1 machine=clique:2@1,3 seed=5")
          .materialize();
  const core::SearchProblem problem(instance.graph, instance.machine,
                                    instance.comm);
  EXPECT_FALSE(problem.key_scale().exact);

  const core::SearchResult r = core::astar_schedule(problem);
  EXPECT_STREQ(r.stats.queue_kind, "heap");
  EXPECT_STREQ(r.stats.queue_fallback, "granularity");
  EXPECT_EQ(r.stats.bucket_peak, 0u);
  EXPECT_TRUE(r.proved_optimal);
}

/// The PR-4 scenario families crossed with comm modes and machine shapes.
/// Power-of-two speed sets keep the heterogeneous cases representable so
/// the bucket path is actually exercised (the speed-3 fallback has its own
/// test above).
std::vector<std::string> differential_specs() {
  std::vector<std::string> specs;
  const char* machines[] = {
      "machine=clique:2", "machine=clique:3", "machine=ring:3",
      "machine=clique:3@1,2,4",
  };
  const char* comms[] = {"", " comm=hop"};
  const char* shapes[] = {
      "family=random nodes=8 ccr=0.1", "family=random nodes=8 ccr=1",
      "family=random nodes=8 ccr=10",  "family=forkjoin width=4 jitter=1",
      "family=outtree branch=2 depth=3 jitter=1",
      "family=intree branch=2 depth=3 jitter=1",
      "family=diamond half=3 jitter=1", "family=chain length=7 jitter=1",
      "family=gauss dim=3 jitter=1",
      "family=layered layers=3 width=3 jitter=1",
  };
  std::uint64_t seed = 40;
  for (const char* shape : shapes)
    for (const char* machine : machines)
      for (const char* comm : comms)
        specs.push_back(std::string(shape) + " " + machine + comm +
                        " seed=" + std::to_string(++seed));
  return specs;
}

INSTANTIATE_TEST_SUITE_P(Families, QueueDifferential,
                         ::testing::ValuesIn(differential_specs()),
                         [](const auto& info) {
                           return "case" + std::to_string(info.index);
                         });

}  // namespace
}  // namespace optsched
