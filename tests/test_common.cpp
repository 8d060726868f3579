// Unit tests for src/common: RNG determinism and distributions, statistics
// accumulators, the table printer, and the CLI flag parser.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/flags.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace graybox {
namespace {

// --- Rng ---------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, ReseedRestartsSequence) {
  Rng a(7);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 16; ++i) first.push_back(a.next());
  a.reseed(7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next(), first[i]);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, UniformSingletonRange) {
  Rng rng(4);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform(5, 5), 5u);
}

TEST(Rng, UniformCoversFullRange) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform(0, 7));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, Uniform01InUnitInterval) {
  Rng rng(6);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng rng(7);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(8);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng(9);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i)
    if (rng.chance(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ExponentialMeanApproximatesParameter) {
  Rng rng(10);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.exponential(50.0));
  EXPECT_NEAR(sum / n, 50.0, 1.0);
}

TEST(Rng, ExponentialZeroMeanIsZero) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.exponential(0.0), 0u);
}

TEST(Rng, IndexInRange) {
  Rng rng(12);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.index(13), 13u);
}

TEST(Rng, PickReturnsElementOfVector) {
  Rng rng(13);
  const std::vector<int> v{4, 8, 15, 16, 23, 42};
  for (int i = 0; i < 100; ++i) {
    const int x = rng.pick(v);
    EXPECT_NE(std::find(v.begin(), v.end(), x), v.end());
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(14);
  Rng child = a.split();
  // The child stream should not reproduce the parent's continuation.
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == child.next()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Rng>);
  SUCCEED();
}

// --- Accumulator -------------------------------------------------------

TEST(Accumulator, EmptyDefaults) {
  Accumulator acc;
  EXPECT_TRUE(acc.empty());
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(acc.percentile(50), 0.0);
}

TEST(Accumulator, SingleValue) {
  Accumulator acc;
  acc.add(7.0);
  EXPECT_EQ(acc.count(), 1u);
  EXPECT_DOUBLE_EQ(acc.mean(), 7.0);
  EXPECT_DOUBLE_EQ(acc.min(), 7.0);
  EXPECT_DOUBLE_EQ(acc.max(), 7.0);
  EXPECT_DOUBLE_EQ(acc.stddev(), 0.0);
}

TEST(Accumulator, MeanAndStddev) {
  Accumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  // Sample stddev of this classic dataset: sqrt(32/7).
  EXPECT_NEAR(acc.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Accumulator, MinMaxSum) {
  Accumulator acc;
  for (double x : {3.0, -1.0, 10.0, 5.5}) acc.add(x);
  EXPECT_DOUBLE_EQ(acc.min(), -1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 10.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 17.5);
}

TEST(Accumulator, PercentileNearestRank) {
  Accumulator acc;
  for (int i = 1; i <= 100; ++i) acc.add(i);
  EXPECT_DOUBLE_EQ(acc.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(acc.percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(acc.percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(acc.percentile(1), 1.0);
}

TEST(Accumulator, MedianOfUnsortedInput) {
  Accumulator acc;
  for (double x : {9.0, 1.0, 5.0}) acc.add(x);
  EXPECT_DOUBLE_EQ(acc.median(), 5.0);
}

TEST(Accumulator, MeanPmStddevFormatting) {
  Accumulator acc;
  acc.add(1.0);
  acc.add(3.0);
  EXPECT_EQ(mean_pm_stddev(acc, 1), "2.0 ± 1.4");
}

// --- Table ---------------------------------------------------------------

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "23456"});
  const std::string out = t.to_string();
  // Header, rule, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
  // All lines (except the rule) must start flush-left with the cell text.
  EXPECT_NE(out.find("longer-name  23456"), std::string::npos);
}

TEST(Table, PadsShortRows) {
  Table t({"a", "b", "c"});
  t.add_row({"1"});
  EXPECT_NO_THROW(t.to_string());
}

TEST(Table, RowConvenienceFormatsNumbers) {
  Table t({"n", "flag", "text"});
  t.row(42, true, "hello");
  const std::string out = t.to_string();
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_NE(out.find("yes"), std::string::npos);
  EXPECT_NE(out.find("hello"), std::string::npos);
}

TEST(Table, HandlesUtf8WidthInStatsCells) {
  Table t({"metric", "value"});
  t.add_row({"latency", "12.3 ± 0.4"});
  t.add_row({"count", "7"});
  const std::string out = t.to_string();
  // The ± must not break alignment: both data lines have the same prefix
  // width before the value column.
  EXPECT_NE(out.find("12.3 ± 0.4"), std::string::npos);
}

TEST(Table, RowCount) {
  Table t({"h"});
  EXPECT_EQ(t.rows(), 0u);
  t.add_row({"x"});
  t.add_row({"y"});
  EXPECT_EQ(t.rows(), 2u);
}

// --- Flags ---------------------------------------------------------------

TEST(Flags, ParsesEqualsForm) {
  const char* argv[] = {"prog", "--seed=42"};
  Flags flags(2, argv, {{"seed", "RNG seed"}});
  EXPECT_TRUE(flags.has("seed"));
  EXPECT_EQ(flags.get_int("seed", 0), 42);
}

TEST(Flags, ParsesSpaceForm) {
  const char* argv[] = {"prog", "--trials", "17"};
  Flags flags(3, argv, {{"trials", ""}});
  EXPECT_EQ(flags.get_int("trials", 0), 17);
}

TEST(Flags, BareFlagIsTrue) {
  const char* argv[] = {"prog", "--verbose"};
  Flags flags(2, argv, {{"verbose", ""}});
  EXPECT_TRUE(flags.get_bool("verbose", false));
}

TEST(Flags, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  Flags flags(1, argv, {{"n", ""}, {"rate", ""}, {"on", ""}});
  EXPECT_EQ(flags.get_int("n", 5), 5);
  EXPECT_DOUBLE_EQ(flags.get_double("rate", 0.25), 0.25);
  EXPECT_FALSE(flags.get_bool("on", false));
  EXPECT_EQ(flags.get("n", "dflt"), "dflt");
}

TEST(Flags, BooleanFalseSpellings) {
  const char* argv[] = {"prog", "--a=false", "--b=0", "--c=no", "--d=yes"};
  Flags flags(5, argv, {{"a", ""}, {"b", ""}, {"c", ""}, {"d", ""}});
  EXPECT_FALSE(flags.get_bool("a", true));
  EXPECT_FALSE(flags.get_bool("b", true));
  EXPECT_FALSE(flags.get_bool("c", true));
  EXPECT_TRUE(flags.get_bool("d", false));
}

TEST(Flags, IgnoresBenchmarkFlags) {
  const char* argv[] = {"prog", "--benchmark_filter=all", "--n=3"};
  Flags flags(3, argv, {{"n", ""}});
  EXPECT_EQ(flags.get_int("n", 0), 3);
}

TEST(Flags, DoubleParsing) {
  const char* argv[] = {"prog", "--rate=0.125"};
  Flags flags(2, argv, {{"rate", ""}});
  EXPECT_DOUBLE_EQ(flags.get_double("rate", 0), 0.125);
}

}  // namespace
}  // namespace graybox
