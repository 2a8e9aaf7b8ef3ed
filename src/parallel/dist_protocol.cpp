#include "parallel/dist_protocol.hpp"

#include <type_traits>

namespace optsched::par {

using util::Json;

namespace {

/// Write every mergeable (numeric) counter of `s` into the JSON object
/// `out`, keyed by its report name.
template <class S>
void counters_to_json(const S& s, Json& out) {
  S::visit([&](const util::Counter& c, const auto& v) {
    if constexpr (std::is_arithmetic_v<std::decay_t<decltype(v)>>)
      if (c.merge != util::Merge::kNone) out[c.name] = v;
  }, s);
}

/// Inverse of counters_to_json. Every counter it wrote is required: an
/// absent key throws util::Error rather than reading as 0.
template <class S>
void counters_from_json(const Json& in, S& s) {
  S::visit([&](const util::Counter& c, auto& v) {
    using T = std::decay_t<decltype(v)>;
    if constexpr (std::is_arithmetic_v<T>) {
      if (c.merge == util::Merge::kNone) return;
      const Json& j = in.at(c.name);
      if constexpr (std::is_floating_point_v<T>)
        v = j.as_number();
      else
        v = j.as_count<T>(c.name);
    }
  }, s);
}

}  // namespace

Json graph_to_json(const dag::TaskGraph& graph) {
  Json weights{Json::Array{}};
  for (dag::NodeId n = 0; n < graph.num_nodes(); ++n)
    weights.push_back(graph.weight(n));
  Json edges{Json::Array{}};
  for (dag::NodeId n = 0; n < graph.num_nodes(); ++n)
    for (const auto& [child, cost] : graph.children(n))
      edges.push_back(Json(Json::Array{Json(n), Json(child), Json(cost)}));
  Json out;
  out["w"] = std::move(weights);
  out["e"] = std::move(edges);
  return out;
}

dag::TaskGraph graph_from_json(const Json& j) {
  dag::TaskGraph graph;
  for (const auto& w : j.at("w").as_array()) graph.add_node(w.as_number());
  for (const auto& e : j.at("e").as_array()) {
    const auto& triple = e.as_array();
    OPTSCHED_REQUIRE(triple.size() == 3, "edge must be [src, dst, cost]");
    graph.add_edge(triple[0].as_count<dag::NodeId>("edge src"),
                   triple[1].as_count<dag::NodeId>("edge dst"),
                   triple[2].as_number());
  }
  graph.finalize();
  return graph;
}

Json machine_to_json(const machine::Machine& machine) {
  Json adjacency{Json::Array{}};
  Json speeds{Json::Array{}};
  for (machine::ProcId p = 0; p < machine.num_procs(); ++p) {
    Json row{Json::Array{}};
    for (const machine::ProcId q : machine.neighbors(p)) row.push_back(q);
    adjacency.push_back(std::move(row));
    speeds.push_back(machine.speed(p));
  }
  Json out;
  out["adj"] = std::move(adjacency);
  out["speed"] = std::move(speeds);
  out["name"] = machine.topology_name();
  return out;
}

machine::Machine machine_from_json(const Json& j) {
  std::vector<std::vector<machine::ProcId>> adjacency;
  for (const auto& row : j.at("adj").as_array()) {
    std::vector<machine::ProcId> neighbors;
    for (const auto& q : row.as_array())
      neighbors.push_back(q.as_count<machine::ProcId>("neighbor"));
    adjacency.push_back(std::move(neighbors));
  }
  std::vector<double> speeds;
  for (const auto& s : j.at("speed").as_array())
    speeds.push_back(s.as_number());
  return machine::Machine(std::move(adjacency), std::move(speeds),
                          j.at("name").as_string());
}

Json search_config_to_json(const core::SearchConfig& config) {
  Json prune;
  prune["iso"] = config.prune.processor_isomorphism;
  prune["equiv"] = config.prune.node_equivalence;
  prune["ub"] = config.prune.upper_bound;
  prune["dup"] = config.prune.duplicate_detection;
  prune["strict"] = config.prune.strict_upper_bound;
  Json out;
  out["prune"] = std::move(prune);
  out["h"] = static_cast<int>(config.h);
  out["queue"] = static_cast<int>(config.queue);
  out["eps"] = config.epsilon;
  return out;
}

core::SearchConfig search_config_from_json(const Json& j) {
  core::SearchConfig config;
  const Json& prune = j.at("prune");
  config.prune.processor_isomorphism = prune.at("iso").as_bool();
  config.prune.node_equivalence = prune.at("equiv").as_bool();
  config.prune.upper_bound = prune.at("ub").as_bool();
  config.prune.duplicate_detection = prune.at("dup").as_bool();
  config.prune.strict_upper_bound = prune.at("strict").as_bool();
  const std::uint32_t h = j.at("h").as_count<std::uint32_t>("h function");
  OPTSCHED_REQUIRE(h <= static_cast<std::uint32_t>(core::HFunction::kComposite),
                   "unknown h function code");
  config.h = static_cast<core::HFunction>(h);
  const auto queue = j.at("queue").as_count<std::uint32_t>("queue select");
  OPTSCHED_REQUIRE(
      queue <= static_cast<std::uint32_t>(core::QueueSelect::kHeap),
      "unknown queue select code");
  config.queue = static_cast<core::QueueSelect>(queue);
  config.epsilon = j.at("eps").as_number();
  return config;
}

Json assignments_to_json(
    const std::vector<std::pair<dag::NodeId, machine::ProcId>>& seq) {
  Json out{Json::Array{}};
  for (const auto& [node, proc] : seq)
    out.push_back(Json(Json::Array{Json(node), Json(proc)}));
  return out;
}

std::vector<std::pair<dag::NodeId, machine::ProcId>> assignments_from_json(
    const Json& j) {
  std::vector<std::pair<dag::NodeId, machine::ProcId>> seq;
  for (const auto& pair : j.as_array()) {
    const auto& np = pair.as_array();
    OPTSCHED_REQUIRE(np.size() == 2, "assignment must be [node, proc]");
    seq.emplace_back(np[0].as_count<dag::NodeId>("node"),
                     np[1].as_count<machine::ProcId>("proc"));
  }
  return seq;
}

Json encode_bye(const core::SearchStats& search, const ParallelStats& wire) {
  Json bye;
  bye["t"] = "bye";
  counters_to_json(search, bye);
  counters_to_json(wire, bye);
  return bye;
}

void decode_bye(const Json& bye, core::SearchStats& search,
                ParallelStats& wire) {
  counters_from_json(bye, search);
  counters_from_json(bye, wire);
}

AbstractOwner::AbstractOwner(const std::vector<dag::NodeId>& node_by_rank,
                             std::uint32_t stride, std::uint32_t procs)
    : is_feature_(node_by_rank.size(), 0), procs_(procs) {
  OPTSCHED_REQUIRE(stride >= 1 && procs >= 1,
                   "owner rule needs a positive stride and worker count");
  for (std::size_t r = 0; r < node_by_rank.size(); r += stride) {
    is_feature_[node_by_rank[r]] = 1;
    features_.push_back(node_by_rank[r]);
  }
}

}  // namespace optsched::par
