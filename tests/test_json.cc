#include "util/json.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "stats/rng.h"

namespace infoflow {
namespace {

/// The writer's number format as a precision search: the first %.{p}g,
/// p = 1…16, that strtod maps back to v, else %.17g (integers up to 2^53
/// as %.0f, non-finite as null). The production writer derives the digit
/// count from std::to_chars instead; this stays as its byte-for-byte
/// reference.
std::string ReferenceNumber(double v) {
  constexpr double kMaxExactInteger = 9007199254740992.0;  // 2^53
  char buf[32];
  if (std::isfinite(v) && v == std::floor(v) &&
      std::fabs(v) <= kMaxExactInteger) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  if (!std::isfinite(v)) return "null";
  for (int precision = 1; precision < 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) return buf;
  }
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(ParseJson("null")->is_null());
  EXPECT_TRUE(ParseJson("true")->AsBool());
  EXPECT_FALSE(ParseJson("false")->AsBool());
  EXPECT_DOUBLE_EQ(ParseJson("42")->AsNumber(), 42.0);
  EXPECT_DOUBLE_EQ(ParseJson("-3.25e2")->AsNumber(), -325.0);
  EXPECT_EQ(ParseJson("\"hi\"")->AsString(), "hi");
  EXPECT_DOUBLE_EQ(ParseJson("  7  ")->AsNumber(), 7.0);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(ParseJson(R"("a\"b\\c\nd\te")")->AsString(), "a\"b\\c\nd\te");
  EXPECT_EQ(ParseJson(R"("A")")->AsString(), "A");
}

TEST(JsonParse, NestedContainers) {
  auto v = ParseJson(R"({"id":"q1","sources":[0,3],"nested":{"x":true}})");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->Find("id")->AsString(), "q1");
  const auto& sources = v->Find("sources")->AsArray();
  ASSERT_EQ(sources.size(), 2u);
  EXPECT_DOUBLE_EQ(sources[1].AsNumber(), 3.0);
  EXPECT_TRUE(v->Find("nested")->Find("x")->AsBool());
  EXPECT_EQ(v->Find("missing"), nullptr);
}

TEST(JsonParse, EmptyContainers) {
  EXPECT_TRUE(ParseJson("[]")->AsArray().empty());
  EXPECT_TRUE(ParseJson("{}")->AsObject().empty());
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1,").ok());
  EXPECT_FALSE(ParseJson("[1] trailing").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("{\"a\" 1}").ok());
  EXPECT_FALSE(ParseJson("{1: 2}").ok());
  EXPECT_FALSE(ParseJson("tru").ok());
  EXPECT_FALSE(ParseJson("1.2.3").ok());
  EXPECT_EQ(ParseJson("[x]").status().code(), StatusCode::kParseError);
}

TEST(JsonParse, RejectsAbsurdNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(ParseJson(deep).ok());
}

TEST(JsonDump, RoundTripsStructuredValues) {
  const std::string text =
      R"({"a":[1,2.5,true,null],"b":{"c":"x\"y"},"d":-0.125})";
  auto v = ParseJson(text);
  ASSERT_TRUE(v.ok());
  // Dump is key-sorted + compact, and the original was written that way.
  EXPECT_EQ(v->Dump(), text);
  // A second parse of the dump is identical again.
  EXPECT_EQ(ParseJson(v->Dump())->Dump(), text);
}

TEST(JsonDump, NumbersRoundTrip) {
  for (const double x : {0.0, 1.0, -7.0, 0.1, 1e-9, 12345.6789, 1e15}) {
    const JsonValue v(x);
    auto back = ParseJson(v.Dump());
    ASSERT_TRUE(back.ok()) << v.Dump();
    EXPECT_DOUBLE_EQ(back->AsNumber(), x) << v.Dump();
  }
}

TEST(JsonDump, LargeMagnitudeDoublesRoundTripExactly) {
  // Every value must survive Dump → strtod bit-exactly: whole-number
  // doubles (accumulated counters) print as plain integers up to 2^53,
  // and anything larger or fractional gets up-to-17-significant-digit
  // output. Regression for streamed metrics snapshots, where totals grow
  // without bound.
  const double big[] = {
      9007199254740992.0,   // 2^53: last exactly-representable integer
      9007199254740991.0,   // 2^53 - 1
      -9007199254740992.0,
      9007199254740994.0,   // 2^53 + 2: past the integer fast path
      1.8446744073709552e19,  // 2^64
      1e300,
      -1e300,
      4e18,                 // uint64-scale counter territory (inexact range)
      123456789012345678.0,
      0.1 + 0.2,            // classic shortest-representation case
      1.7976931348623157e308,  // DBL_MAX
  };
  for (const double x : big) {
    const JsonValue v(x);
    auto back = ParseJson(v.Dump());
    ASSERT_TRUE(back.ok()) << v.Dump();
    EXPECT_EQ(back->AsNumber(), x) << v.Dump();  // bit-exact, not NEAR
  }
  // Integer-valued doubles inside the exact range print with no fraction
  // or exponent (wire compatibility for counters).
  EXPECT_EQ(JsonValue(9007199254740991.0).Dump(), "9007199254740991");
  EXPECT_EQ(JsonValue(4e15).Dump(), "4000000000000000");
}

TEST(JsonDump, NumbersMatchThePrecisionSearchReference) {
  Rng rng(20120401);
  std::vector<double> corpus;
  // Random bit patterns: every exponent, NaN/inf included.
  for (int i = 0; i < 30000; ++i) {
    corpus.push_back(std::bit_cast<double>(rng.NextU64()));
  }
  // U(0,1) draws and products of them: the estimates and path products
  // the serve daemon writes.
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.NextDouble();
    corpus.push_back(u);
    corpus.push_back(u * rng.NextDouble() * rng.NextDouble());
  }
  // Where %g switches between fixed and exponent notation, and where the
  // integer fast path ends: walk ulps on both sides.
  for (const double edge : {1e-5, 1e-4, 1e15, 1e16, 1e17, 9007199254740992.0}) {
    double up = edge;
    double down = edge;
    for (int k = 0; k < 300; ++k) {
      corpus.push_back(up);
      corpus.push_back(down);
      up = std::nextafter(up, std::numeric_limits<double>::infinity());
      down = std::nextafter(down, 0.0);
    }
  }
  corpus.push_back(9007199254740991.0);  // 2^53 - 1
  corpus.push_back(9007199254740994.0);  // 2^53 + 2: 2^53 + 1 rounds down
  // Every power of two and its neighbours: there the rounding interval is
  // lopsided and the shortest digits can miss the nearest decimal.
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    corpus.push_back(p);
    corpus.push_back(std::nextafter(p, 0.0));
    corpus.push_back(std::nextafter(p, std::numeric_limits<double>::infinity()));
  }
  // Subnormals.
  for (int i = 0; i < 10000; ++i) {
    corpus.push_back(std::bit_cast<double>(rng.NextU64() >> 12));
  }
  corpus.push_back(std::numeric_limits<double>::denorm_min());
  corpus.push_back(std::numeric_limits<double>::min());
  corpus.push_back(0.0);
  // Negative values: the whole corpus mirrored (-0.0 included).
  const std::size_t positives = corpus.size();
  for (std::size_t i = 0; i < positives; ++i) corpus.push_back(-corpus[i]);

  std::size_t mismatches = 0;
  for (const double x : corpus) {
    const std::string got = JsonValue(x).Dump();
    const std::string want = ReferenceNumber(x);
    if (got != want && ++mismatches <= 10) {
      ADD_FAILURE() << "bits " << std::bit_cast<std::uint64_t>(x)
                    << ": dumped " << got << ", reference " << want;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << corpus.size() << " values";
}

TEST(JsonDump, BuilderStyleConstruction) {
  JsonValue obj{JsonValue::Object{}};
  obj.MutableObject()["ok"] = JsonValue(true);
  obj.MutableObject()["list"] = JsonValue{JsonValue::Array{}};
  obj.MutableObject()["list"].MutableArray().push_back(JsonValue(3));
  EXPECT_EQ(obj.Dump(), R"({"list":[3],"ok":true})");
}

}  // namespace
}  // namespace infoflow
