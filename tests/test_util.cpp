// Unit tests: util (rng, strings, table, csv).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>

#include "util/csv.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/str.h"
#include "util/table.h"

namespace {

using namespace cd;

// --- Rng ---------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.u64(), b.u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.u64() == b.u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformWithinBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
  }
}

TEST(Rng, UniformCoversAllValues) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformZeroThrows) {
  Rng rng(1);
  EXPECT_THROW((void)rng.uniform(0), InvariantError);
}

TEST(Rng, RangeInclusiveBounds) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, RealInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.real();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng(5);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, GaussianMoments) {
  Rng rng(13);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.gaussian(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(sq / n - mean * mean, 4.0, 0.3);
}

TEST(Rng, SplitIndependence) {
  Rng root(99);
  Rng a = root.split("alpha");
  Rng b = root.split("beta");
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.u64() == b.u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(21);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, SampleIndicesDistinctAndBounded) {
  Rng rng(23);
  const auto idx = rng.sample_indices(100, 17);
  EXPECT_EQ(idx.size(), 17u);
  std::set<std::size_t> unique(idx.begin(), idx.end());
  EXPECT_EQ(unique.size(), 17u);
  for (std::size_t i : idx) EXPECT_LT(i, 100u);
}

TEST(Rng, SampleIndicesClampsToN) {
  Rng rng(25);
  EXPECT_EQ(rng.sample_indices(5, 10).size(), 5u);
}

TEST(Rng, PickThrowsOnEmpty) {
  Rng rng(1);
  std::vector<int> empty;
  EXPECT_THROW((void)rng.pick(empty), InvariantError);
}

// --- str ----------------------------------------------------------------------

TEST(Str, SplitBasic) {
  EXPECT_EQ(split("a.b.c", '.'), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(Str, SplitPreservesEmptyFields) {
  EXPECT_EQ(split("a..b.", '.'),
            (std::vector<std::string>{"a", "", "b", ""}));
  EXPECT_EQ(split("", '.'), (std::vector<std::string>{""}));
}

TEST(Str, JoinInvertsSplit) {
  const std::string s = "x:y::z";
  EXPECT_EQ(join(split(s, ':'), ":"), s);
}

TEST(Str, CaseHelpers) {
  EXPECT_EQ(to_lower("AbC-9"), "abc-9");
  EXPECT_TRUE(iequals("DNS-Lab", "dns-lab"));
  EXPECT_FALSE(iequals("abc", "abd"));
  EXPECT_FALSE(iequals("abc", "abcd"));
}

TEST(Str, ParseU64) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("18446744073709551615"), UINT64_MAX);
  EXPECT_FALSE(parse_u64("18446744073709551616"));  // overflow
  EXPECT_FALSE(parse_u64(""));
  EXPECT_FALSE(parse_u64("12a"));
  EXPECT_FALSE(parse_u64("-1"));
}

TEST(Str, ParseHexU64) {
  EXPECT_EQ(parse_hex_u64("ff"), 0xFFu);
  EXPECT_EQ(parse_hex_u64("DeadBeef"), 0xDEADBEEFu);
  EXPECT_EQ(parse_hex_u64("ffffffffffffffff"), UINT64_MAX);
  EXPECT_FALSE(parse_hex_u64("10000000000000000"));  // 17 digits
  EXPECT_FALSE(parse_hex_u64("xyz"));
  EXPECT_FALSE(parse_hex_u64(""));
}

TEST(Str, ToHexRoundTrip) {
  std::string hex(8, '?');
  to_hex(0xC0A80001u, hex);
  EXPECT_EQ(hex, "c0a80001");
  hex.assign(16, '?');
  to_hex(123456789, hex);
  EXPECT_EQ(parse_hex_u64(hex), 123456789u);
}

TEST(Str, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(1234567), "1,234,567");
}

TEST(Str, Percent) {
  EXPECT_EQ(percent(1, 2), "50.0%");
  EXPECT_EQ(percent(1, 3, 2), "33.33%");
  EXPECT_EQ(percent(1, 0), "n/a");
}

// --- TextTable ------------------------------------------------------------------

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"name", "count"});
  t.set_align(1, Align::kRight);
  t.add_row({"a", "1"});
  t.add_row({"long-name", "12345"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("name      | count"), std::string::npos);
  EXPECT_NE(out.find("a         |     1"), std::string::npos);
  EXPECT_NE(out.find("long-name | 12345"), std::string::npos);
}

TEST(TextTable, MissingAndExtraCells) {
  TextTable t({"a", "b"});
  t.add_row({"only"});
  t.add_row({"x", "y", "dropped"});
  const std::string out = t.to_string();
  EXPECT_EQ(out.find("dropped"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

// --- CsvWriter --------------------------------------------------------------------

TEST(Csv, EscapeRules) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesFile) {
  const std::string path = "test_csv_out.csv";
  {
    CsvWriter csv(path);
    csv.write_row({"h1", "h,2"});
    csv.write_row({"1", "2"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "h1,\"h,2\"");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::remove(path.c_str());
}

TEST(Csv, ThrowsOnBadPath) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir-xyz/file.csv"), Error);
}

}  // namespace
