// Seeded workload inputs for the benchmark driver.
//
// Optimal search cost is exponential and heavy-tailed in the instance: two
// §4.1 random graphs of the same size can differ 1000x in A* expansions.
// A run-to-run comparable benchmark therefore cannot draw fresh heavy
// instances per seed. The heavy workloads (search-heavy, dist-heavy,
// resolve-churn) use a fixed committed base list, and the run seed draws
// a random relabelling of every task graph (and of every delta in a
// chain): the program sees different node ids, tie orders, and dist hash
// placements each seed, while the optimal makespans, which the committed
// references record per base item, are unchanged by construction.
// serve-mix, whose requests are milliseconds each, draws fresh scenario
// lines from the seed instead; its references are committed for the
// default seed and computed, untimed, for any other.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/delta.hpp"
#include "workload/scenario.hpp"

namespace perfbench {

using optsched::workload::Instance;

/// One solve request of a heavy workload: the relabelled instance plus
/// the base spec line that keys its committed reference.
struct HeavyItem {
  std::string key;
  Instance instance;
};

/// The committed heavy tier: base spec lines sized so that serial A*
/// needs roughly 0.2-2 s each on a 4-core x86 host.
const std::vector<std::string>& heavy_tier();
/// The dist-heavy subset of heavy_tier().
const std::vector<std::string>& dist_tier();

/// A resolve-churn chain: the base instance plus its delta chain, both
/// relabelled by the run seed.
struct ChainItem {
  std::string key;
  Instance instance;
  std::vector<optsched::core::InstanceDelta> deltas;
};

/// serve-mix request stream. `specs` holds the distinct scenario lines;
/// each request names one of them. A repeat re-sends a line first sent
/// at least kRepeatLag requests earlier, so with a closed loop of a few
/// clients its first solve has normally finished and it hits the cache.
struct ServeStream {
  std::vector<std::string> specs;
  std::vector<std::size_t> requests;  ///< index into specs
  std::size_t repeats = 0;            ///< requests that re-send a line
};

inline constexpr std::size_t kServeRequests = 2000;
inline constexpr std::size_t kRepeatLag = 16;
/// Below one half on purpose: with hits near 50% the median latency
/// would sit on the gap between cache hits (~0.05 ms) and misses and
/// jump between the two from seed to seed.
inline constexpr double kRepeatShare = 0.4;

/// Parse and materialize one scenario line, adding the time spent in
/// ScenarioSpec::materialize to `materialize_ms`.
Instance materialize(const std::string& spec_line, double& materialize_ms);

std::vector<HeavyItem> heavy_inputs(const std::vector<std::string>& tier,
                                    std::uint64_t seed,
                                    double& materialize_ms);
std::vector<ChainItem> churn_inputs(std::uint64_t seed,
                                    double& materialize_ms);
ServeStream serve_inputs(std::uint64_t seed);

/// Fixed instances for warm-up solves (about 20 ms of A*) and for the
/// fixed-cost probes (a trivial chain).
const std::string& warmup_spec();
const std::string& trivial_spec();

}  // namespace perfbench
