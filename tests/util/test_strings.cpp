#include "util/strings.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "util/jsonl.hpp"

namespace optsched::util {
namespace {

TEST(Strings, TrimStripsBothEnds) {
  EXPECT_EQ(trim("  hello \t"), "hello");
  EXPECT_EQ(trim("hello"), "hello");
  EXPECT_EQ(trim("\r\n"), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("  a b  "), "a b");
}

TEST(Strings, SplitOnDelimiter) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a", ','), (std::vector<std::string>{"a"}));
  EXPECT_TRUE(split("", ',').empty());
  // Empty fields are preserved, matching e.g. "a,,b".
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(split("a,", ','), (std::vector<std::string>{"a", ""}));
}

TEST(Strings, SplitWsSkipsRuns) {
  EXPECT_EQ(split_ws("  a \t b  c "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(split_ws("   ").empty());
  EXPECT_EQ(split_ws("one"), (std::vector<std::string>{"one"}));
}

TEST(Strings, JoinRoundTripsSplit) {
  const std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(join(parts, ","), "x,y,z");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(split(join(parts, ","), ','), parts);
}

TEST(Strings, FormatNumberShortestExactForm) {
  EXPECT_EQ(format_number(14.0), "14");
  EXPECT_EQ(format_number(0.1), "0.1");
  EXPECT_EQ(format_number(-3.5), "-3.5");
}

TEST(Strings, FormatNumberRejectsNonFinite) {
  // Regression: format_number used to emit "inf"/"nan" tokens straight
  // into wire formats whose parsers reject them (jsonl, scenario specs).
  // Non-finite input is now a typed error at the encode site.
  EXPECT_THROW(format_number(std::numeric_limits<double>::infinity()),
               util::Error);
  EXPECT_THROW(format_number(-std::numeric_limits<double>::infinity()),
               util::Error);
  EXPECT_THROW(format_number(std::nan("")), util::Error);
}

TEST(Strings, FormatNumberLenientSpellsOutSentinels) {
  // The human-facing reports keep ±inf/NaN as readable tokens.
  EXPECT_EQ(format_number_lenient(std::numeric_limits<double>::infinity()),
            "inf");
  EXPECT_EQ(format_number_lenient(-std::numeric_limits<double>::infinity()),
            "-inf");
  EXPECT_EQ(format_number_lenient(std::nan("")), "nan");
  EXPECT_EQ(format_number_lenient(2.5), format_number(2.5));
}

TEST(Strings, CsvEscapeQuotesOnlyWhenNeeded) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("two\nlines"), "\"two\nlines\"");
}

TEST(Strings, JsonEscapeEncodesEveryControlCharacter) {
  EXPECT_EQ(json_escape("\r\x01"), "\\u000d\\u0001");
  EXPECT_EQ(json_escape("q\"b\\n\nt\t"), "q\\\"b\\\\n\\nt\\t");
  std::string all;
  for (int c = 1; c < 0x80; ++c) all += static_cast<char>(c);
  EXPECT_EQ(Json::parse("\"" + json_escape(all) + "\"").as_string(), all);
  EXPECT_EQ(Json::parse("\"" + json_escape("\r\x01") + "\"").as_string(),
            "\r\x01");
}

TEST(Strings, JsonNumberWritesNullForNonFinite) {
  EXPECT_EQ(json_number(2.5), "2.5");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(std::nan("")), "null");
}

}  // namespace
}  // namespace optsched::util
