// Unit tests for src/common: checks, units, RNG, statistics.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/check.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/units.h"

namespace ncdrf {
namespace {

TEST(Check, PassingConditionDoesNothing) {
  EXPECT_NO_THROW(NCDRF_CHECK(1 + 1 == 2, "math"));
}

TEST(Check, FailingConditionThrowsWithContext) {
  try {
    NCDRF_CHECK(false, "custom context");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("custom context"), std::string::npos);
    EXPECT_NE(what.find("common_test.cc"), std::string::npos);
  }
}

TEST(Units, ConversionsAreConsistent) {
  EXPECT_DOUBLE_EQ(megabits(100.0), 1e8);
  EXPECT_DOUBLE_EQ(gbps(1.0), 1e9);
  EXPECT_DOUBLE_EQ(megabytes(5.0), 4e7);
  EXPECT_DOUBLE_EQ(to_megabytes(megabytes(5.0)), 5.0);
  EXPECT_DOUBLE_EQ(to_gbps(gbps(2.5)), 2.5);
  EXPECT_DOUBLE_EQ(milliseconds(250.0), 0.25);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next_u64() == b.next_u64();
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(3, 8));
  EXPECT_EQ(seen, (std::set<std::int64_t>{3, 4, 5, 6, 7, 8}));
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, ParetoRespectsScale) {
  Rng rng(19);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(rng.pareto(3.0, 1.5), 3.0);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, WeightedIndexFollowsWeights) {
  Rng rng(29);
  std::vector<double> weights{1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) counts[rng.weighted_index(weights)] += 1;
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.01);
}

TEST(Rng, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(31);
  for (int trial = 0; trial < 100; ++trial) {
    const std::vector<int> s = rng.sample_without_replacement(20, 8);
    std::set<int> distinct(s.begin(), s.end());
    EXPECT_EQ(distinct.size(), 8u);
    for (const int v : s) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, 20);
    }
  }
}

TEST(Rng, SampleWithoutReplacementRejectsBadArgs) {
  Rng rng(37);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), CheckError);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 2.5);
}

TEST(Stats, SummaryOnKnownSample) {
  const Summary s = summarize({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_EQ(s.count, 8u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.stddev, 2.0);  // classic textbook sample
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
}

TEST(Stats, SummaryEmptyIsZeroed) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(WeightedCdfTest, QuantilesRespectWeights) {
  WeightedCdf cdf;
  cdf.add(1.0, 9.0);
  cdf.add(10.0, 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.9), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.95), 10.0);
  EXPECT_DOUBLE_EQ(cdf.max(), 10.0);
  EXPECT_DOUBLE_EQ(cdf.min(), 1.0);
  EXPECT_DOUBLE_EQ(cdf.mean(), 1.9);
}

TEST(WeightedCdfTest, CdfAtAccumulates) {
  WeightedCdf cdf;
  cdf.add(1.0, 1.0);
  cdf.add(2.0, 1.0);
  cdf.add(3.0, 2.0);
  EXPECT_DOUBLE_EQ(cdf.cdf_at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.cdf_at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.cdf_at(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.cdf_at(3.0), 1.0);
}

TEST(WeightedCdfTest, ZeroWeightIgnoredNegativeThrows) {
  WeightedCdf cdf;
  cdf.add(5.0, 0.0);
  EXPECT_TRUE(cdf.empty());
  EXPECT_THROW(cdf.add(1.0, -1.0), CheckError);
}

TEST(WeightedCdfTest, CurveIsMonotone) {
  WeightedCdf cdf;
  for (int i = 0; i < 50; ++i) cdf.add((i * 37) % 11, 1.0 + i % 3);
  const auto curve = cdf.curve();
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LT(curve[i - 1].first, curve[i].first);
    EXPECT_LE(curve[i - 1].second, curve[i].second);
  }
  EXPECT_NEAR(curve.back().second, 1.0, 1e-12);
}

TEST(AsciiTableTest, RendersAlignedRows) {
  AsciiTable table({"Policy", "Mean"});
  table.add_row({"NC-DRF", AsciiTable::fmt(5.75)});
  table.add_row({"DRF", AsciiTable::fmt(3.36)});
  const std::string out = table.render();
  EXPECT_NE(out.find("| Policy | Mean |"), std::string::npos);
  EXPECT_NE(out.find("| NC-DRF | 5.75 |"), std::string::npos);
  EXPECT_NE(out.find("| DRF    | 3.36 |"), std::string::npos);
}

TEST(AsciiTableTest, RowWidthMismatchThrows) {
  AsciiTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), CheckError);
}

TEST(JsonTest, ParsesIntoTheDom) {
  JsonValue root;
  ASSERT_EQ(parse_json(R"({"n": 18446744073709551615, "a": [true, null]})",
                       &root),
            "");
  ASSERT_TRUE(root.is_object());
  const JsonValue& n = root.object().at("n");
  ASSERT_TRUE(n.is_number());
  // The token is kept verbatim: the double alone would round to 2^64.
  EXPECT_EQ(n.number_token(), "18446744073709551615");
  EXPECT_EQ(n.number(), 18446744073709551615.0);
  const JsonArray& a = root.object().at("a").array();
  ASSERT_EQ(a.size(), 2u);
  EXPECT_TRUE(a[0].is_bool() && a[0].boolean());
  EXPECT_FALSE(a[1].is_bool() || a[1].is_number() || a[1].is_string());
}

TEST(JsonTest, DecodesEscapesToUtf8) {
  JsonValue root;
  ASSERT_EQ(parse_json(R"("\u00e9\u20ac\ud83d\ude00\n\/")", &root), "");
  EXPECT_EQ(root.string(), "\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80\n/");
  EXPECT_NE(parse_json(R"("\ud83dx")", &root), "");
  EXPECT_NE(parse_json(R"("\ud83d\u0041")", &root), "");
  EXPECT_NE(parse_json(R"("\u12g4")", &root), "");
}

TEST(JsonTest, ErrorsNameTheOffset) {
  JsonValue root;
  EXPECT_EQ(parse_json(R"({"a": 1, "a": 2})", &root),
            "duplicate key \"a\" at offset 12");
  EXPECT_EQ(parse_json("[1e999]", &root), "number out of range at offset 6");
}

TEST(JsonTest, QuoteRoundTripsEveryByte) {
  EXPECT_EQ(json_quote("a\"b\\c\nd\te\x01"),
            "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
  std::string all;
  for (int c = 1; c < 256; ++c) all.push_back(static_cast<char>(c));
  all.push_back('\0');
  JsonValue root;
  ASSERT_EQ(parse_json(json_quote(all), &root), "");
  EXPECT_EQ(root.string(), all);
}

}  // namespace
}  // namespace ncdrf
