#include "inputs.hpp"

#include <algorithm>
#include <numeric>

#include "util/rng.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace core = optsched::core;
namespace dag = optsched::dag;
namespace util = optsched::util;
using optsched::workload::ScenarioSpec;

const std::vector<std::string>& heavy_tier() {
  // §4.1 random recipe at v = 12-14 across the CCR sweep on clique:3, a
  // heterogeneous-speed machine, and two jittered structured families.
  // The scenario seeds were picked once, offline, for serial A* times in
  // 0.2-2 s and search memory below 200 MB; nothing here solves to pick.
  static const std::vector<std::string> tier = {
      "family=random nodes=12 ccr=1 machine=clique:3 seed=8",
      "family=random nodes=13 ccr=10 machine=clique:3 seed=6",
      "family=random nodes=14 ccr=0.1 machine=clique:3 seed=4",
      "family=random nodes=14 ccr=10 machine=clique:3 seed=4",
      "family=random nodes=12 ccr=1 machine=clique:3@1,2,4 seed=4",
      "family=layered layers=5 width=3 jitter=1 machine=clique:3 seed=1",
      "family=diamond half=4 jitter=1 machine=clique:3 seed=1",
  };
  return tier;
}

const std::vector<std::string>& dist_tier() {
  // The five lighter items: a dist solve's time varies by 10-20% from run
  // to run with message timing, so a round of several similar solves
  // gives steadier medians than a few long ones.
  static const std::vector<std::string> tier = {
      heavy_tier()[1], heavy_tier()[2], heavy_tier()[3], heavy_tier()[4],
      heavy_tier()[6]};
  return tier;
}

namespace {

// Mid-size resolve-churn bases: cold serial A* in roughly 20-200 ms.
const std::vector<std::string>& churn_tier() {
  static const std::vector<std::string> tier = {
      "family=random nodes=10 ccr=1 machine=clique:3 seed=1",
      "family=random nodes=11 ccr=1 machine=clique:3 seed=4",
      "family=random nodes=11 ccr=1 machine=clique:3 seed=2",
      "family=random nodes=11 ccr=0.5 machine=clique:3 seed=4",
      "family=layered layers=3 width=4 jitter=1 machine=clique:3 seed=4",
      "family=layered layers=4 width=3 jitter=1 machine=clique:3 seed=2",
      "family=layered layers=4 width=3 jitter=1 machine=clique:3 seed=1",
      "family=random nodes=10 ccr=1 machine=clique:3 seed=4",
      "family=gauss dim=5 jitter=1 machine=clique:3 seed=3",
      "family=random nodes=10 ccr=1 machine=clique:3@1,2,4 seed=2",
  };
  return tier;
}

// corpus_bench-scale shapes for serve-mix; each new line fills in a
// seed. Shapes whose serial A* time has a heavy tail at this scale
// (random v >= 8, forkjoin width=7, diamond half=4: up to 5-170 ms and
// several MB of search state) are left out so that per-request layers,
// not the few longest searches of a seed, set the latency and the
// daemon's peak memory; every kept shape solves in under ~5 ms.
const std::vector<std::string>& serve_shapes() {
  static const std::vector<std::string> shapes = {
      "family=random nodes=7 ccr=0.1 machine=clique:3",
      "family=random nodes=7 ccr=1 machine=clique:3",
      "family=random nodes=6 ccr=10 machine=clique:3",
      "family=random nodes=7 ccr=1 machine=clique:3@1,2,4",
      "family=layered layers=4 width=2 jitter=1 machine=ring:3 comm=hop",
      "family=forkjoin width=5 jitter=1 machine=clique:3",
      "family=outtree branch=2 depth=3 jitter=1 machine=mesh:2x2 comm=hop",
      "family=intree branch=2 depth=3 jitter=1 machine=hypercube:2",
      "family=diamond half=3 jitter=1 machine=clique:2",
      "family=gauss dim=4 jitter=1 machine=clique:2",
  };
  return shapes;
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  return util::splitmix64(seed ^ util::splitmix64(salt));
}

struct Edge {
  dag::NodeId src, dst;
};

std::vector<Edge> edges_of(const dag::TaskGraph& g) {
  std::vector<Edge> out;
  for (dag::NodeId n = 0; n < g.num_nodes(); ++n)
    for (const auto& a : g.children(n)) out.push_back({n, a.node});
  return out;
}

// One valid delta for `g`: cost changes, or an edge added forward in
// topological order (never a cycle) or removed.
core::InstanceDelta draw_delta(const dag::TaskGraph& g, util::Rng& rng) {
  core::InstanceDelta d;
  const auto cost = [&rng] { return static_cast<double>(rng.uniform_u64(1, 79)); };
  const std::vector<Edge> edges = edges_of(g);
  const std::uint64_t kind = rng.uniform_u64(0, 9);
  if (kind >= 4 && kind < 7 && !edges.empty()) {
    const Edge e = edges[rng.uniform_u64(0, edges.size() - 1)];
    d.kind = core::DeltaKind::kCommCost;
    d.src = e.src;
    d.dst = e.dst;
    d.value = cost();
    return d;
  }
  if (kind == 7 && edges.size() > 1) {
    const Edge e = edges[rng.uniform_u64(0, edges.size() - 1)];
    d.kind = core::DeltaKind::kEdgeRemove;
    d.src = e.src;
    d.dst = e.dst;
    return d;
  }
  if (kind >= 8) {
    const auto topo = g.topo_order();
    for (int attempt = 0; attempt < 64; ++attempt) {
      std::size_t i = rng.uniform_u64(0, topo.size() - 1);
      std::size_t j = rng.uniform_u64(0, topo.size() - 1);
      if (i == j) continue;
      if (i > j) std::swap(i, j);
      bool exists = false;
      for (const auto& a : g.children(topo[i])) exists |= a.node == topo[j];
      if (exists) continue;
      d.kind = core::DeltaKind::kEdgeAdd;
      d.src = topo[i];
      d.dst = topo[j];
      d.value = cost();
      return d;
    }
  }
  d.kind = core::DeltaKind::kTaskCost;
  d.node = static_cast<dag::NodeId>(rng.uniform_u64(0, g.num_nodes() - 1));
  d.value = cost();
  return d;
}

// Rebuild `instance` with its nodes renumbered by a permutation drawn
// from `seed`; `to_new[old] = new`.
Instance relabel(const Instance& instance, std::uint64_t seed,
                 std::vector<dag::NodeId>& to_new) {
  const dag::TaskGraph& g = instance.graph;
  std::vector<dag::NodeId> to_old(g.num_nodes());
  std::iota(to_old.begin(), to_old.end(), dag::NodeId{0});
  util::Rng rng(seed);
  for (std::size_t i = to_old.size(); i > 1; --i)
    std::swap(to_old[i - 1], to_old[rng.uniform_u64(0, i - 1)]);
  to_new.assign(to_old.size(), dag::kInvalidNode);
  for (dag::NodeId n = 0; n < to_old.size(); ++n) to_new[to_old[n]] = n;

  Instance out{instance.name + " relabel=" + std::to_string(seed), {},
               instance.machine, instance.comm};
  for (const dag::NodeId old : to_old) out.graph.add_node(g.weight(old));
  for (const dag::NodeId old : to_old)
    for (const auto& a : g.children(old))
      out.graph.add_edge(to_new[old], to_new[a.node], a.cost);
  out.graph.finalize();
  return out;
}

}  // namespace

Instance materialize(const std::string& spec_line, double& materialize_ms) {
  const ScenarioSpec spec = ScenarioSpec::parse(spec_line);
  const util::Timer timer;
  Instance instance = spec.materialize();
  materialize_ms += timer.millis();
  return instance;
}

std::vector<HeavyItem> heavy_inputs(const std::vector<std::string>& tier,
                                    std::uint64_t seed,
                                    double& materialize_ms) {
  std::vector<HeavyItem> items;
  std::vector<dag::NodeId> to_new;
  for (std::size_t i = 0; i < tier.size(); ++i) {
    const Instance base = materialize(tier[i], materialize_ms);
    items.push_back({tier[i], relabel(base, mix(seed, i), to_new)});
  }
  return items;
}

std::vector<ChainItem> churn_inputs(std::uint64_t seed,
                                    double& materialize_ms) {
  std::vector<ChainItem> items;
  std::vector<dag::NodeId> to_new;
  const auto& tier = churn_tier();
  for (std::size_t i = 0; i < tier.size(); ++i) {
    const Instance base = materialize(tier[i], materialize_ms);
    // The chain is a fixed function of the base item, so its per-step
    // references can be committed; only the relabelling is seeded.
    util::Rng rng(util::splitmix64(i + 1));
    const std::size_t length = 8 + rng.uniform_u64(0, 8);
    std::vector<core::InstanceDelta> chain;
    dag::TaskGraph g = base.graph;
    for (std::size_t k = 0; k < length; ++k) {
      chain.push_back(draw_delta(g, rng));
      g = core::apply_delta(g, base.machine, chain.back()).graph;
    }
    ChainItem item{tier[i], relabel(base, mix(seed, 100 + i), to_new), {}};
    for (core::InstanceDelta d : chain) {
      for (dag::NodeId* n : {&d.node, &d.src, &d.dst})
        if (*n != dag::kInvalidNode) *n = to_new[*n];
      item.deltas.push_back(d);
    }
    items.push_back(std::move(item));
  }
  return items;
}

ServeStream serve_inputs(std::uint64_t seed) {
  ServeStream stream;
  util::Rng rng(mix(seed, 7));
  // Exactly kRepeatShare of the requests after the first kRepeatLag
  // repeat, at seeded positions.
  std::vector<std::uint8_t> repeat(kServeRequests, 0);
  const std::size_t open = kServeRequests - kRepeatLag;
  std::fill_n(repeat.begin() + kRepeatLag,
              static_cast<std::size_t>(kRepeatShare * static_cast<double>(open)),
              std::uint8_t{1});
  for (std::size_t i = open; i > 1; --i)
    std::swap(repeat[kRepeatLag + i - 1],
              repeat[kRepeatLag + rng.uniform_u64(0, i - 1)]);
  const auto& shapes = serve_shapes();
  for (std::size_t i = 0; i < kServeRequests; ++i) {
    if (repeat[i]) {
      const std::size_t earlier = rng.uniform_u64(0, i - kRepeatLag);
      stream.requests.push_back(stream.requests[earlier]);
      ++stream.repeats;
      continue;
    }
    // Shapes rotate, so every seed sends each shape equally often.
    const std::string& shape = shapes[stream.specs.size() % shapes.size()];
    stream.requests.push_back(stream.specs.size());
    stream.specs.push_back(shape + " seed=" +
                           std::to_string(rng.uniform_u64(1, 1u << 30)));
  }
  return stream;
}

const std::string& warmup_spec() {
  static const std::string spec =
      "family=random nodes=10 ccr=1 machine=clique:3 seed=1";
  return spec;
}

const std::string& trivial_spec() {
  static const std::string spec = "family=chain length=3 machine=clique:2";
  return spec;
}

}  // namespace perfbench
