// api::canonical_engine_spec — the engine half of the server's result
// cache key. Two specs that configure bit-identical solves must
// canonicalize to the same string; anything else would split (or worse,
// merge) cache entries.
#include <gtest/gtest.h>

#include "api/solver.hpp"

namespace optsched::api {
namespace {

TEST(CanonicalEngineSpec, BareNamePassesThrough) {
  EXPECT_EQ(canonical_engine_spec("astar"), "astar");
  EXPECT_EQ(canonical_engine_spec("chenyu"), "chenyu");
}

TEST(CanonicalEngineSpec, OptionsSortByKey) {
  EXPECT_EQ(canonical_engine_spec("parallel:ppes=4:mode=ws"),
            "parallel:mode=ws:ppes=4");
  EXPECT_EQ(canonical_engine_spec("parallel:mode=ws:ppes=4"),
            "parallel:mode=ws:ppes=4");
}

TEST(CanonicalEngineSpec, NumericValuesNormalize) {
  // Leading zeros, trailing fraction zeros, and scientific notation all
  // denote the same configuration — one canonical spelling each.
  EXPECT_EQ(canonical_engine_spec("parallel:ppes=08"),
            canonical_engine_spec("parallel:ppes=8"));
  EXPECT_EQ(canonical_engine_spec("aeps:epsilon=0.20"),
            canonical_engine_spec("aeps:epsilon=0.2"));
  EXPECT_EQ(canonical_engine_spec("aeps:epsilon=2e-1"),
            canonical_engine_spec("aeps:epsilon=0.2"));
  // ...but numerically distinct values stay distinct.
  EXPECT_NE(canonical_engine_spec("aeps:epsilon=0.2"),
            canonical_engine_spec("aeps:epsilon=0.25"));
}

TEST(CanonicalEngineSpec, NonNumericValuesPassThroughVerbatim) {
  EXPECT_EQ(canonical_engine_spec("parallel:mode=ws"), "parallel:mode=ws");
  EXPECT_EQ(canonical_engine_spec("portfolio:engines=astar+ida"),
            "portfolio:engines=astar+ida");
}

TEST(CanonicalEngineSpec, Idempotent) {
  for (const char* spec :
       {"astar", "parallel:ppes=04:mode=ws",
        "aeps:epsilon=0.20", "portfolio:engines=astar+ida"}) {
    const std::string once = canonical_engine_spec(spec);
    EXPECT_EQ(canonical_engine_spec(once), once) << "spec: " << spec;
  }
}

TEST(CanonicalEngineSpec, RoundTripsThroughParse) {
  // The canonical form must itself parse back to the same (name, options)
  // pair the original spec parsed to.
  const char* spec = "parallel:ppes=4:mode=ws";
  const auto original = parse_engine_spec(spec);
  const auto canonical = parse_engine_spec(canonical_engine_spec(spec));
  EXPECT_EQ(original.first, canonical.first);
  EXPECT_EQ(original.second, canonical.second);
}

TEST(CanonicalEngineSpec, MalformedSpecThrows) {
  // Purely syntactic failures (a name unknown to the registry is the
  // daemon's job to reject, not this function's).
  EXPECT_THROW(canonical_engine_spec("astar:notkv"), util::Error);
  EXPECT_THROW(canonical_engine_spec("astar:=v"), util::Error);
}

}  // namespace
}  // namespace optsched::api
