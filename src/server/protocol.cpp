#include "server/protocol.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>

#include "core/bucket_queue.hpp"
#include "util/strings.hpp"

namespace optsched::server {

namespace {

using util::Json;

/// Wrap every util::Error from Json decoding into a typed kBadRequest —
/// the daemon replies with it and keeps the connection alive.
template <typename Fn>
auto decoding(Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const ProtocolError&) {
    throw;  // already typed
  } catch (const util::Error& e) {
    throw ProtocolError(ErrorCode::kBadRequest, e.what());
  }
}

Json limits_to_json(const api::SolveLimits& limits) {
  Json out;
  out["budget_ms"] = limits.time_budget_ms;
  out["max_expansions"] = limits.max_expansions;
  out["max_memory_mb"] =
      static_cast<double>(limits.max_memory_bytes) / (1024.0 * 1024.0);
  return out;
}

api::SolveLimits limits_from_json(const Json& frame) {
  api::SolveLimits limits;
  limits.time_budget_ms = frame.get_number("budget_ms", 0.0);
  limits.max_expansions = frame.get_u64("max_expansions", 0);
  const double mb = frame.get_number("max_memory_mb", 0.0);
  OPTSCHED_REQUIRE(mb >= 0, "max_memory_mb must be >= 0");
  limits.max_memory_bytes =
      static_cast<std::size_t>(mb * 1024.0 * 1024.0);
  return limits;
}

/// Every counter off its default as space-separated `name=value` fields:
/// one JSON string costs about half as much to build and parse as a
/// 15-member object, and every request pays both.
std::string stats_to_text(const api::SolveStats& stats) {
  static const api::SolveStats kDefaults{};
  std::string out;
  api::SolveStats::visit(
      [&](const util::Counter& c, const auto& v, const auto& d) {
        if (util::counter_equal(v, d)) return;
        ((out += out.empty() ? "" : " ") += c.name) += '=';
        out += util::counter_text(v);
      },
      stats, kDefaults);
  return out;
}

/// Inverse of stats_to_text: an absent counter keeps its default; an
/// unknown name or queue label, or a malformed value, is rejected.
api::SolveStats stats_from_text(std::string_view text) {
  api::SolveStats stats;
  while (!text.empty()) {
    const std::string_view field = text.substr(0, text.find(' '));
    text.remove_prefix(std::min(text.size(), field.size() + 1));
    const std::size_t eq = field.find('=');
    OPTSCHED_REQUIRE(eq != std::string_view::npos && eq > 0,
                     "malformed stats field " + std::string(field));
    const std::string_view name = field.substr(0, eq);
    const std::string_view value = field.substr(eq + 1);
    bool known = false;
    api::SolveStats::visit([&](const util::Counter& c, auto& v) {
      using T = std::decay_t<decltype(v)>;
      // Most names differ in their first letter: test it before a strcmp.
      if (known || name[0] != c.name[0] || name != c.name) return;
      known = true;
      if constexpr (std::is_same_v<T, const char*>) {
        v = core::find_queue_label(value);  // outlives `text`
        OPTSCHED_REQUIRE(v, "unknown " + std::string(field));
      } else if constexpr (std::is_same_v<T, std::string>) {
        v = value;
      } else if constexpr (std::is_floating_point_v<T>) {
        v = Json::parse(value).as_number();
      } else {
        const std::uint64_t x = util::parse_u64(value, name);
        OPTSCHED_REQUIRE(x <= std::numeric_limits<T>::max(),  // bools: 0, 1
                         "stats counter out of range: " + std::string(field));
        v = static_cast<T>(x);
      }
    }, stats);
    OPTSCHED_REQUIRE(known, "unknown stats counter " + std::string(field));
  }
  return stats;
}

Json outcome_to_json(const SolveOutcome& outcome) {
  Json out;
  out["spec"] = outcome.spec;
  out["engine_spec"] = outcome.engine_spec;
  out["engine"] = outcome.engine;
  out["makespan"] = outcome.makespan;
  out["proved_optimal"] = outcome.proved_optimal;
  // JSON has no inf literal and Json::dump rejects non-finite numbers;
  // "no guarantee" travels as an explicit null (decoded back below).
  if (std::isfinite(outcome.bound_factor))
    out["bound_factor"] = outcome.bound_factor;
  else
    out["bound_factor"] = Json();
  out["termination"] = outcome.termination;
  out["stats"] = stats_to_text(outcome.stats);
  Json schedule{Json::Array{}};
  for (const auto& p : outcome.schedule)
    schedule.push_back(Json(Json::Array{Json(p.node), Json(p.proc),
                                        Json(p.start), Json(p.finish)}));
  out["schedule"] = std::move(schedule);
  return out;
}

SolveOutcome outcome_from_json(const Json& frame) {
  SolveOutcome outcome;
  outcome.spec = frame.at("spec").as_string();
  outcome.engine_spec = frame.at("engine_spec").as_string();
  outcome.engine = frame.at("engine").as_string();
  outcome.makespan = frame.at("makespan").as_number();
  outcome.proved_optimal = frame.at("proved_optimal").as_bool();
  // bound_factor is null on the wire when non-finite (JSON has no inf).
  outcome.bound_factor = frame.at("bound_factor").is_null()
                             ? std::numeric_limits<double>::infinity()
                             : frame.at("bound_factor").as_number();
  outcome.termination = frame.at("termination").as_string();
  outcome.stats = stats_from_text(frame.at("stats").as_string());
  for (const auto& entry : frame.at("schedule").as_array()) {
    const auto& quad = entry.as_array();
    OPTSCHED_REQUIRE(quad.size() == 4,
                     "schedule entries must be [node,proc,start,finish]");
    WirePlacement p;
    p.node = quad[0].as_count<std::uint32_t>("schedule node");
    p.proc = quad[1].as_count<std::uint32_t>("schedule proc");
    p.start = quad[2].as_number();
    p.finish = quad[3].as_number();
    outcome.schedule.push_back(p);
  }
  return outcome;
}

Json cache_stats_to_json(const CacheStats& cache) {
  Json out;
  out["lookups"] = cache.lookups;
  out["hits"] = cache.hits;
  out["insertions"] = cache.insertions;
  out["evictions"] = cache.evictions;
  out["entries"] = cache.entries;
  out["bytes"] = cache.bytes;
  out["byte_budget"] = cache.byte_budget;
  return out;
}

CacheStats cache_stats_from_json(const Json& frame) {
  CacheStats cache;
  cache.lookups = frame.get_u64("lookups", 0);
  cache.hits = frame.get_u64("hits", 0);
  cache.insertions = frame.get_u64("insertions", 0);
  cache.evictions = frame.get_u64("evictions", 0);
  cache.entries = frame.get_u64("entries", 0);
  cache.bytes = frame.get_u64("bytes", 0);
  cache.byte_budget = frame.get_u64("byte_budget", 0);
  return cache;
}

}  // namespace

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadRequest: return "bad-request";
    case ErrorCode::kUnknownVerb: return "unknown-verb";
    case ErrorCode::kBadSpec: return "bad-spec";
    case ErrorCode::kUnknownEngine: return "unknown-engine";
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kMemory: return "memory";
    case ErrorCode::kShuttingDown: return "shutting-down";
    case ErrorCode::kSolveFailed: return "solve-failed";
    case ErrorCode::kTransport: return "transport";
  }
  return "?";
}

ErrorCode error_code_from_string(const std::string& text) {
  for (const ErrorCode code :
       {ErrorCode::kBadRequest, ErrorCode::kUnknownVerb, ErrorCode::kBadSpec,
        ErrorCode::kUnknownEngine, ErrorCode::kOverloaded, ErrorCode::kMemory,
        ErrorCode::kShuttingDown, ErrorCode::kSolveFailed,
        ErrorCode::kTransport})
    if (text == to_string(code)) return code;
  throw util::Error("unknown protocol error code '" + text + "'");
}

Command parse_command(const std::string& line) {
  return decoding([&] {
    const Json frame = Json::parse(line);
    OPTSCHED_REQUIRE(frame.is_object(), "command frame must be an object");
    const std::string verb = frame.at("verb").as_string();
    Command command;
    if (verb == "solve") {
      command.verb = Verb::kSolve;
      command.solve.spec = frame.at("spec").as_string();
      command.solve.engine = frame.get_string("engine", "astar");
      command.solve.limits = limits_from_json(frame);
      command.solve.no_cache = frame.get_bool("no_cache", false);
      OPTSCHED_REQUIRE(!command.solve.spec.empty(), "empty scenario spec");
    } else if (verb == "status") {
      command.verb = Verb::kStatus;
    } else if (verb == "shutdown") {
      command.verb = Verb::kShutdown;
    } else {
      throw ProtocolError(ErrorCode::kUnknownVerb,
                          "unknown verb '" + verb + "'");
    }
    return command;
  });
}

std::string encode_command(const Command& command) {
  Json frame;
  switch (command.verb) {
    case Verb::kSolve: {
      frame["verb"] = "solve";
      frame["spec"] = command.solve.spec;
      frame["engine"] = command.solve.engine;
      Json limits = limits_to_json(command.solve.limits);
      for (const auto& [key, value] : limits.as_object()) frame[key] = value;
      frame["no_cache"] = command.solve.no_cache;
      break;
    }
    case Verb::kStatus: frame["verb"] = "status"; break;
    case Verb::kShutdown: frame["verb"] = "shutdown"; break;
  }
  return frame.dump();
}

std::string encode_error(ErrorCode code, const std::string& message) {
  Json frame;
  frame["ok"] = false;
  frame["error"] = to_string(code);
  frame["message"] = message;
  return frame.dump();
}

std::string encode_solve_reply(const SolveReply& reply) {
  Json frame;
  frame["ok"] = true;
  frame["verb"] = "solve";
  frame["cache_hit"] = reply.cache_hit;
  frame["cache_lookups"] = reply.cache_lookups;
  frame["cache_bytes"] = reply.cache_bytes;
  frame["queue_wait_ms"] = reply.queue_wait_ms;
  frame["solve_ms"] = reply.solve_ms;
  frame["result"] = outcome_to_json(reply.outcome);
  return frame.dump();
}

std::string encode_status_reply(const StatusReply& reply) {
  Json frame;
  frame["ok"] = true;
  frame["verb"] = "status";
  frame["accepted"] = reply.accepted;
  frame["completed"] = reply.completed;
  frame["rejected"] = reply.rejected;
  frame["cache_hits_served"] = reply.cache_hits_served;
  frame["queue_depth"] = reply.queue_depth;
  frame["queue_cap"] = reply.queue_cap;
  frame["in_flight"] = reply.in_flight;
  frame["workers"] = reply.workers;
  frame["memory_reserved"] = reply.memory_reserved;
  frame["memory_budget"] = reply.memory_budget;
  frame["cache"] = cache_stats_to_json(reply.cache);
  return frame.dump();
}

std::string encode_ack(Verb verb) {
  Json frame;
  frame["ok"] = true;
  frame["verb"] = verb == Verb::kShutdown  ? "shutdown"
                  : verb == Verb::kStatus ? "status"
                                          : "solve";
  return frame.dump();
}

util::Json parse_reply(const std::string& line) {
  return decoding([&] {
    const Json frame = Json::parse(line);
    OPTSCHED_REQUIRE(frame.is_object(), "reply frame must be an object");
    if (!frame.at("ok").as_bool()) {
      const std::string code_text = frame.get_string("error", "bad-request");
      throw ProtocolError(error_code_from_string(code_text),
                          "daemon rejected request [" + code_text + "]: " +
                              frame.get_string("message", ""));
    }
    return frame;
  });
}

SolveReply parse_solve_reply(const std::string& line) {
  const Json frame = parse_reply(line);
  return decoding([&] {
    OPTSCHED_REQUIRE(frame.get_string("verb", "") == "solve",
                     "expected a solve reply");
    SolveReply reply;
    reply.cache_hit = frame.get_bool("cache_hit", false);
    reply.cache_lookups = frame.get_u64("cache_lookups", 0);
    reply.cache_bytes = frame.get_u64("cache_bytes", 0);
    reply.queue_wait_ms = frame.get_number("queue_wait_ms", 0.0);
    reply.solve_ms = frame.get_number("solve_ms", 0.0);
    reply.outcome = outcome_from_json(frame.at("result"));
    return reply;
  });
}

StatusReply parse_status_reply(const std::string& line) {
  const Json frame = parse_reply(line);
  return decoding([&] {
    OPTSCHED_REQUIRE(frame.get_string("verb", "") == "status",
                     "expected a status reply");
    StatusReply reply;
    reply.accepted = frame.get_u64("accepted", 0);
    reply.completed = frame.get_u64("completed", 0);
    reply.rejected = frame.get_u64("rejected", 0);
    reply.cache_hits_served = frame.get_u64("cache_hits_served", 0);
    reply.queue_depth = frame.get_u64("queue_depth", 0);
    reply.queue_cap = frame.get_u64("queue_cap", 0);
    reply.in_flight = frame.get_u64("in_flight", 0);
    reply.workers = static_cast<unsigned>(frame.get_u64("workers", 0));
    reply.memory_reserved = frame.get_u64("memory_reserved", 0);
    reply.memory_budget = frame.get_u64("memory_budget", 0);
    if (frame.has("cache")) reply.cache = cache_stats_from_json(frame.at("cache"));
    return reply;
  });
}

}  // namespace optsched::server
