// The number codec under every exporter: JsonNumber must emit exactly the bytes of
// the printf/strtod loop it replaced (so traces written before and after are
// byte-identical), and the strict readers must accept exactly the tokens a
// re-serialization reproduces.

#include "src/obs/json_format.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

namespace jockey {
namespace {

// The original formatter, kept verbatim as the oracle: %.15g, %.16g, %.17g via
// snprintf, the first that strtod reads back exactly.
std::string OracleJsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buffer[32];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) {
      break;
    }
  }
  return buffer;
}

double FromBits(uint64_t bits) {
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

uint64_t ToBits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// Byte equality with the oracle, plus an exact (bitwise) read-back for finite values.
void ExpectMatchesOracle(double value) {
  std::string text = JsonNumber(value);
  ASSERT_EQ(text, OracleJsonNumber(value)) << "bits " << std::hex << ToBits(value);
  if (std::isfinite(value)) {
    double parsed = 0.0;
    ASSERT_TRUE(ParseJsonNumber(text, parsed)) << text;
    ASSERT_EQ(ToBits(parsed), ToBits(value)) << text;
  }
}

TEST(JsonNumberTest, EdgeValuesMatchTheSnprintfOracle) {
  std::vector<double> values = {
      0.0,
      -0.0,
      1.0,
      -1.0,
      0.1,
      1.0 / 3.0,
      2.5,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      DBL_MIN,
      std::nextafter(DBL_MIN, 0.0),  // largest subnormal
      DBL_MAX,
      -DBL_MAX,
      DBL_EPSILON,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::nan(""),
  };
  // Integers up to 2^53, where every integer is exactly representable.
  for (int e = 0; e <= 53; ++e) {
    double p = std::ldexp(1.0, e);
    for (double v : {p - 1.0, p, p + 1.0}) {
      values.push_back(v);
      values.push_back(-v);
    }
  }
  // Powers of ten (and their neighbours) across the whole range, which covers the
  // %g switch between fixed and scientific notation at 1e-5/1e-4 and at 1e15-1e17.
  for (int e = -324; e <= 308; ++e) {
    double p = std::pow(10.0, e);
    for (double v : {std::nextafter(p, 0.0), p, std::nextafter(p, DBL_MAX)}) {
      values.push_back(v);
      values.push_back(-v);
    }
  }
  for (double v : values) {
    ExpectMatchesOracle(v);
  }
}

TEST(JsonNumberTest, RandomBitPatternsMatchTheSnprintfOracle) {
  std::mt19937_64 rng(20120410);
  for (int i = 0; i < 1'000'000; ++i) {
    ExpectMatchesOracle(FromBits(rng()));
  }
}

// Uniform bit patterns rarely land in the fixed-notation range the simulators
// produce; also sample simulated-time-like values there.
TEST(JsonNumberTest, TraceLikeValuesMatchTheSnprintfOracle) {
  std::mt19937_64 rng(7919);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int i = 0; i < 200'000; ++i) {
    double scale = std::pow(10.0, static_cast<int>(rng() % 12) - 4);
    ExpectMatchesOracle(unit(rng) * scale);
    ExpectMatchesOracle(std::round(unit(rng) * 1e6) / 1024.0);
  }
}

TEST(JsonNumberTest, AppendExtendsTheBuffer) {
  std::string out = "x=";
  AppendJsonNumber(out, 0.5);
  AppendJsonNumber(out, std::nan(""));
  EXPECT_EQ(out, "x=0.5null");
}

TEST(ParseJsonNumberTest, AcceptsFiniteDecimalTokens) {
  double v = 0.0;
  EXPECT_TRUE(ParseJsonNumber("1", v));
  EXPECT_EQ(v, 1.0);
  EXPECT_TRUE(ParseJsonNumber("-2.5e-3", v));
  EXPECT_EQ(v, -2.5e-3);
  EXPECT_TRUE(ParseJsonNumber("1.7976931348623157e+308", v));
  EXPECT_EQ(v, DBL_MAX);
}

TEST(ParseJsonNumberTest, RejectsEverythingElseAndLeavesTheOutputAlone) {
  for (const char* text : {"", "+1", "1x", "1 ", " 1", "0x10", "nan", "inf", "-inf",
                           "infinity", "1e999", "-1e999", "null", "true", "\"1\"", "."}) {
    double v = 42.0;
    EXPECT_FALSE(ParseJsonNumber(text, v)) << text;
    EXPECT_EQ(v, 42.0) << text;
  }
}

TEST(ParseJsonIntTest, AcceptsInRangeIntegerTokensOnly) {
  int i = 0;
  EXPECT_TRUE(ParseJsonInt("-17", i));
  EXPECT_EQ(i, -17);
  EXPECT_TRUE(ParseJsonInt("2147483647", i));
  EXPECT_EQ(i, 2147483647);
  for (const char* text : {"", "1.75", "1e3", "1e300", "2147483648", "-2147483649", "+1",
                           "0x1", " 1", "1 ", "nan"}) {
    int out = 7;
    EXPECT_FALSE(ParseJsonInt(text, out)) << text;
    EXPECT_EQ(out, 7) << text;
  }
  uint64_t u = 0;
  EXPECT_TRUE(ParseJsonInt("18446744073709551615", u));
  EXPECT_EQ(u, UINT64_MAX);
  EXPECT_FALSE(ParseJsonInt("-5", u));
  EXPECT_FALSE(ParseJsonInt("18446744073709551616", u));
  int64_t wide = 0;
  EXPECT_TRUE(ParseJsonInt("-9223372036854775808", wide));
  EXPECT_EQ(wide, INT64_MIN);
}

}  // namespace
}  // namespace jockey
