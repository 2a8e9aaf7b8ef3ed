// Wire protocol round-trips and malformed-frame handling. The daemon's
// contract is that *any* byte sequence on the socket produces either a
// valid command or a ProtocolError with a typed code — never UB, a
// crash, or a silent default. These tests cover both directions of the
// codec plus a corpus of hostile frames.
#include "server/protocol.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>

namespace optsched::server {
namespace {

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

SolveOutcome sample_outcome() {
  SolveOutcome outcome;
  outcome.spec = "family=random nodes=6 ccr=1 machine=clique:2 seed=7";
  outcome.engine_spec = "astar";
  outcome.engine = "astar";
  outcome.makespan = 0.1 + 0.2;  // 0.30000000000000004 — no short form
  outcome.proved_optimal = true;
  outcome.bound_factor = 1.0;
  outcome.termination = "optimal";
  outcome.stats.search.expanded = 123;
  outcome.stats.search.generated = 456;
  outcome.stats.search.peak_memory_bytes = 1u << 20;
  outcome.schedule = {{0, 1, 0.0, 2.5}, {1, 0, 2.5, 1.0 / 3.0}};
  return outcome;
}

TEST(Protocol, SolveCommandRoundTrip) {
  Command command;
  command.verb = Verb::kSolve;
  command.solve.spec = "family=chain length=5 machine=ring:3 seed=1";
  command.solve.engine = "parallel:mode=ws:ppes=4";
  command.solve.limits.time_budget_ms = 1500.5;
  command.solve.limits.max_expansions = 100000;
  command.solve.limits.max_memory_bytes = 64u << 20;
  command.solve.no_cache = true;

  const Command back = parse_command(encode_command(command));
  EXPECT_EQ(back.verb, Verb::kSolve);
  EXPECT_EQ(back.solve.spec, command.solve.spec);
  EXPECT_EQ(back.solve.engine, command.solve.engine);
  EXPECT_EQ(back.solve.limits.time_budget_ms, 1500.5);
  EXPECT_EQ(back.solve.limits.max_expansions, 100000u);
  EXPECT_EQ(back.solve.limits.max_memory_bytes, 64u << 20);
  EXPECT_TRUE(back.solve.no_cache);
}

TEST(Protocol, StatusAndShutdownCommandsRoundTrip) {
  for (const Verb verb : {Verb::kStatus, Verb::kShutdown}) {
    Command command;
    command.verb = verb;
    EXPECT_EQ(parse_command(encode_command(command)).verb, verb);
  }
}

TEST(Protocol, SolveReplyRoundTripsBitExactly) {
  SolveReply reply;
  reply.outcome = sample_outcome();
  reply.cache_hit = true;
  reply.cache_lookups = 42;
  reply.cache_bytes = 9999;
  reply.queue_wait_ms = 0.125;
  reply.solve_ms = 17.5;

  const SolveReply back = parse_solve_reply(encode_solve_reply(reply));
  EXPECT_EQ(back.outcome, reply.outcome);  // defaulted ==: exact doubles
  EXPECT_TRUE(bits_equal(back.outcome.makespan, 0.1 + 0.2));
  EXPECT_TRUE(bits_equal(back.outcome.schedule[1].finish, 1.0 / 3.0));
  EXPECT_TRUE(back.cache_hit);
  EXPECT_EQ(back.cache_lookups, 42u);
  EXPECT_EQ(back.cache_bytes, 9999u);
  EXPECT_EQ(back.queue_wait_ms, 0.125);
  EXPECT_EQ(back.solve_ms, 17.5);
}

/// Stats with a distinct non-default value in every counter. The labels
/// point into the caller's strings, not at the static label set, so a
/// round trip shows the decoder matches them by text.
api::SolveStats every_counter_set(const std::string& kind,
                                  const std::string& fallback) {
  api::SolveStats stats;
  double next = 0.1 + 0.2;  // no short decimal form
  api::SolveStats::visit([&](const util::Counter&, auto& v) {
    using T = std::decay_t<decltype(v)>;
    if constexpr (std::is_same_v<T, bool>) {
      v = true;
    } else if constexpr (std::is_same_v<T, std::string>) {
      v = "dist";
    } else if constexpr (std::is_arithmetic_v<T>) {
      next += 1.0;
      v = std::is_floating_point_v<T> ? static_cast<T>(next)
                                      : static_cast<T>(std::floor(next));
    }
  }, stats);
  stats.search.queue_kind = kind.c_str();
  stats.search.queue_fallback = fallback.c_str();
  return stats;
}

TEST(Protocol, SolveReplyCarriesEveryCounter) {
  const std::string kind = "heap", fallback = "granularity";
  SolveReply reply;
  reply.outcome = sample_outcome();
  reply.outcome.stats = every_counter_set(kind, fallback);
  const api::SolveStats defaults;
  api::SolveStats::visit(
      [&](const util::Counter& c, const auto& set, const auto& d) {
        EXPECT_FALSE(util::counter_equal(set, d)) << c.name;
      },
      reply.outcome.stats, defaults);

  const SolveReply back = parse_solve_reply(encode_solve_reply(reply));
  EXPECT_EQ(back.outcome, reply.outcome);
  EXPECT_STREQ(back.outcome.stats.search.queue_kind, "heap");
  EXPECT_STREQ(back.outcome.stats.search.queue_fallback, "granularity");
  EXPECT_EQ(back.outcome.stats.parallel_mode, "dist");
}

TEST(Protocol, UnknownCounterOrLabelIsABadRequest) {
  SolveReply reply;
  reply.outcome = sample_outcome();
  const std::string good = encode_solve_reply(reply);
  // An unknown name or label, then fields that are not name=value with a
  // value of the counter's type.
  for (const char* field :
       {"expandedd=1", "queue_kind=fifo", "fallback_reason=weighted",
        "generated", "=5", "expanded=-1", "expanded=1.5", "shards=4294967296",
        "cache_hit=2", "elapsed_seconds=x"}) {
    util::Json frame = util::Json::parse(good);
    frame["result"]["stats"] =
        frame["result"]["stats"].as_string() + " " + field;
    try {
      parse_solve_reply(frame.dump());
      ADD_FAILURE() << "expected kBadRequest for " << field;
    } catch (const ProtocolError& e) {
      EXPECT_EQ(e.code, ErrorCode::kBadRequest) << field;
    }
  }
}

TEST(Protocol, InfiniteBoundFactorSurvivesTheWire) {
  // bound_factor is infinity for no-guarantee results; JSON has no
  // Infinity literal, so it crosses as null and decodes back to infinity.
  SolveReply reply;
  reply.outcome = sample_outcome();
  reply.outcome.proved_optimal = false;
  reply.outcome.bound_factor = std::numeric_limits<double>::infinity();
  const SolveReply back = parse_solve_reply(encode_solve_reply(reply));
  EXPECT_TRUE(std::isinf(back.outcome.bound_factor));
}

TEST(Protocol, StatusReplyRoundTrip) {
  StatusReply status;
  status.accepted = 10;
  status.completed = 8;
  status.rejected = 2;
  status.cache_hits_served = 5;
  status.queue_depth = 1;
  status.queue_cap = 64;
  status.in_flight = 2;
  status.workers = 4;
  status.memory_reserved = 128u << 20;
  status.memory_budget = 1u << 30;
  status.cache.lookups = 7;
  status.cache.hits = 5;
  status.cache.insertions = 2;
  status.cache.evictions = 1;
  status.cache.entries = 1;
  status.cache.bytes = 4096;
  status.cache.byte_budget = 64u << 20;

  const StatusReply back = parse_status_reply(encode_status_reply(status));
  EXPECT_EQ(back.accepted, 10u);
  EXPECT_EQ(back.completed, 8u);
  EXPECT_EQ(back.rejected, 2u);
  EXPECT_EQ(back.cache_hits_served, 5u);
  EXPECT_EQ(back.queue_depth, 1u);
  EXPECT_EQ(back.queue_cap, 64u);
  EXPECT_EQ(back.in_flight, 2u);
  EXPECT_EQ(back.workers, 4u);
  EXPECT_EQ(back.memory_reserved, 128u << 20);
  EXPECT_EQ(back.memory_budget, 1u << 30);
  EXPECT_EQ(back.cache.lookups, 7u);
  EXPECT_EQ(back.cache.hits, 5u);
  EXPECT_EQ(back.cache.bytes, 4096u);
}

TEST(Protocol, ErrorFramesRematerializeTypedCodes) {
  for (const ErrorCode code :
       {ErrorCode::kBadRequest, ErrorCode::kUnknownVerb, ErrorCode::kBadSpec,
        ErrorCode::kUnknownEngine, ErrorCode::kOverloaded, ErrorCode::kMemory,
        ErrorCode::kShuttingDown, ErrorCode::kSolveFailed}) {
    const std::string frame = encode_error(code, "details here");
    try {
      parse_reply(frame);
      FAIL() << "error frame did not throw: " << frame;
    } catch (const ProtocolError& e) {
      EXPECT_EQ(e.code, code);
      EXPECT_NE(std::string(e.what()).find("details here"),
                std::string::npos);
    }
  }
}

TEST(Protocol, ErrorCodeStringsRoundTrip) {
  for (const ErrorCode code :
       {ErrorCode::kBadRequest, ErrorCode::kUnknownVerb, ErrorCode::kBadSpec,
        ErrorCode::kUnknownEngine, ErrorCode::kOverloaded, ErrorCode::kMemory,
        ErrorCode::kShuttingDown, ErrorCode::kSolveFailed,
        ErrorCode::kTransport}) {
    EXPECT_EQ(error_code_from_string(to_string(code)), code);
  }
  EXPECT_THROW(error_code_from_string("no-such-code"), util::Error);
}

TEST(Protocol, MalformedCommandFramesThrowBadRequest) {
  for (const char* frame : {
           "",                                  // empty line
           "not json at all",                   // unparsable
           "{\"verb\":\"solve\"",               // truncated JSON
           "[1,2,3]",                           // non-object frame
           "42",                                // scalar frame
           "{}",                                // missing verb
           "{\"verb\":42}",                     // mistyped verb
           "{\"verb\":\"solve\"}",              // solve without spec
           "{\"verb\":\"solve\",\"spec\":17}",  // mistyped spec
           "{\"verb\":\"solve\",\"spec\":\"x\","
           "\"budget_ms\":\"soon\"}",           // mistyped limit
       }) {
    try {
      parse_command(frame);
      FAIL() << "frame parsed: " << frame;
    } catch (const ProtocolError& e) {
      EXPECT_EQ(e.code, ErrorCode::kBadRequest) << "frame: " << frame;
    }
  }
}

TEST(Protocol, UnknownVerbThrowsItsOwnCode) {
  try {
    parse_command("{\"verb\":\"frobnicate\"}");
    FAIL() << "unknown verb parsed";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code, ErrorCode::kUnknownVerb);
  }
}

TEST(Protocol, MalformedReplyFramesThrowBadRequest) {
  for (const char* frame :
       {"", "garbage", "{\"ok\":\"yes\"}", "{}",
        "{\"ok\":false}" /* error frame without a code */,
        "{\"ok\":true,\"verb\":\"solve\"}" /* solve reply, no result */}) {
    EXPECT_THROW(parse_solve_reply(frame), ProtocolError)
        << "frame: " << frame;
  }
}

TEST(Protocol, FuzzedFrameBytesNeverCrashTheParser) {
  // Deterministic byte soup: every frame must either parse or throw a
  // typed error; nothing else (no crash, no hang) is acceptable.
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  const std::string alphabet =
      "{}[]\",:truefalsnu0123456789.eE+-verbspecolimit\\ \t";
  for (int round = 0; round < 2000; ++round) {
    std::string frame;
    const std::size_t len = next() % 48;
    for (std::size_t i = 0; i < len; ++i)
      frame += alphabet[next() % alphabet.size()];
    try {
      parse_command(frame);
    } catch (const ProtocolError&) {
      // expected for nearly every frame
    }
  }
  SUCCEED();
}

}  // namespace
}  // namespace optsched::server
