#include "server/client.hpp"

#include <cmath>

#include "util/socket.hpp"
#include "util/strings.hpp"

namespace optsched::server {

namespace {

core::Termination termination_from_string(const std::string& text) {
  for (const core::Termination t :
       {core::Termination::kOptimal, core::Termination::kBoundedOptimal,
        core::Termination::kExpansionLimit, core::Termination::kTimeLimit,
        core::Termination::kMemoryLimit, core::Termination::kCancelled,
        core::Termination::kHeuristic})
    if (text == core::to_string(t)) return t;
  throw util::Error("unknown termination '" + text + "' on the wire");
}

}  // namespace

Client::Client(const std::string& socket_path)
    : stream_(util::UnixStream::connect(socket_path)) {}

std::string Client::round_trip(const std::string& frame) {
  try {
    stream_.write_line(frame);
    std::string reply;
    OPTSCHED_REQUIRE(stream_.read_line(reply),
                     "daemon closed the connection without replying");
    return reply;
  } catch (const ProtocolError&) {
    throw;
  } catch (const util::Error& e) {
    throw ProtocolError(ErrorCode::kTransport, e.what());
  }
}

SolveReply Client::solve_raw(const SolveCommand& command) {
  Command wrapped;
  wrapped.verb = Verb::kSolve;
  wrapped.solve = command;
  return parse_solve_reply(round_trip(encode_command(wrapped)));
}

StatusReply Client::status() {
  Command command;
  command.verb = Verb::kStatus;
  return parse_status_reply(round_trip(encode_command(command)));
}

void Client::shutdown() {
  Command command;
  command.verb = Verb::kShutdown;
  parse_reply(round_trip(encode_command(command)));  // throws on !ok
}

api::SolveResult rebuild_result(const workload::Instance& instance,
                                const SolveReply& reply) {
  const SolveOutcome& outcome = reply.outcome;
  OPTSCHED_REQUIRE(
      outcome.schedule.size() == instance.graph.num_nodes(),
      "wire schedule has " + std::to_string(outcome.schedule.size()) +
          " placements for a " +
          std::to_string(instance.graph.num_nodes()) + "-task instance");

  sched::Schedule schedule(instance.graph, instance.machine, instance.comm);
  for (const auto& placement : outcome.schedule) {
    OPTSCHED_REQUIRE(placement.node < instance.graph.num_nodes() &&
                         placement.proc < instance.machine.num_procs(),
                     "wire placement out of range");
    schedule.place(placement.node, placement.proc, placement.start);
    // Transport integrity: place() recomputes finish from the exec-time
    // model; the start time round-tripped exactly, so any difference
    // means the wire outcome and this instance disagree.
    const auto& placed = schedule.placement(placement.node);
    OPTSCHED_REQUIRE(placed.finish == placement.finish,
                     "wire finish time " +
                         util::format_number(placement.finish) +
                         " does not replay (got " +
                         util::format_number(placed.finish) + ") for node " +
                         std::to_string(placement.node));
  }

  api::SolveResult result(std::move(schedule));
  result.makespan = outcome.makespan;
  result.proved_optimal = outcome.proved_optimal;
  result.bound_factor = outcome.bound_factor;
  result.reason = termination_from_string(outcome.termination);
  result.engine = outcome.engine;
  result.stats = outcome.stats;
  result.stats.cache_hit = reply.cache_hit;
  result.stats.cache_lookups = reply.cache_lookups;
  result.stats.cache_bytes = reply.cache_bytes;
  result.stats.queue_wait_ms = reply.queue_wait_ms;
  return result;
}

}  // namespace optsched::server
