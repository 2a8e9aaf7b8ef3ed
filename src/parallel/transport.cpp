#include "parallel/transport.hpp"

#include "core/problem.hpp"
#include "parallel/parallel_astar.hpp"
#include "parallel/ring_transport.hpp"
#include "parallel/ws_transport.hpp"

namespace optsched::par {

const char* to_string(TransportMode mode) {
  switch (mode) {
    case TransportMode::kRing: return "ring";
    case TransportMode::kWorkStealing: return "ws";
    case TransportMode::kDistributed: return "dist";
  }
  return "?";
}

std::unique_ptr<Transport> make_transport(const ParallelConfig& config,
                                          const core::SearchProblem& problem,
                                          std::atomic<bool>& done) {
  OPTSCHED_ASSERT(config.mode != TransportMode::kDistributed);
  if (config.mode == TransportMode::kWorkStealing)
    return std::make_unique<WsTransport>(
        config.num_ppes, WsTransport::kStealBatch,
        ws_shard_count(config.num_ppes), done);
  return std::make_unique<RingTransport>(
      config.num_ppes, config.topology,
      static_cast<std::uint32_t>(problem.num_nodes()), done);
}

}  // namespace optsched::par
