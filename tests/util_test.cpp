#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/random.h"
#include "util/sorted.h"
#include "util/table.h"

namespace lcs {
namespace {

TEST(Check, PassesOnTrueCondition) {
  EXPECT_NO_THROW(LCS_CHECK(1 + 1 == 2, "arithmetic"));
}

TEST(Sorted, KeysItemsAndElementsComeBackInKeyOrder) {
  std::unordered_map<int, std::string> m = {{3, "c"}, {1, "a"}, {2, "b"}};
  EXPECT_EQ(util::sorted_keys(m), (std::vector<int>{1, 2, 3}));
  const auto items = util::sorted_items(m);
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0].first, 1);
  EXPECT_EQ(items[0].second, "a");
  EXPECT_EQ(items[2].first, 3);
  EXPECT_EQ(items[2].second, "c");
  std::unordered_set<int> s = {5, 4, 6};
  EXPECT_EQ(util::sorted_elements(s), (std::vector<int>{4, 5, 6}));
}

TEST(Check, ThrowsWithLocationAndMessage) {
  try {
    LCS_CHECK(false, "custom context");
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("custom context"), std::string::npos);
    EXPECT_NE(what.find("util_test.cpp"), std::string::npos);
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowRejectsZeroBound) {
  Rng rng(7);
  EXPECT_THROW(rng.next_below(0), CheckFailure);
}

TEST(Rng, NextInCoversRangeInclusive) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_in(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 2);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, BernoulliRoughlyCalibrated) {
  Rng rng(17);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i)
    if (rng.next_bool(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(Rng, NextBoolTotalOnEdgeCaseProbabilities) {
  Rng rng(3);
  // p <= 0 and p >= 1 return without consuming the stream or hanging.
  EXPECT_FALSE(rng.next_bool(0.0));
  EXPECT_FALSE(rng.next_bool(-0.0));
  EXPECT_FALSE(rng.next_bool(-1.0));
  EXPECT_TRUE(rng.next_bool(1.0));
  EXPECT_TRUE(rng.next_bool(2.0));
  // Subnormal p: one draw, essentially always false (u < 5e-324 needs a
  // zero mantissa draw), never UB.
  constexpr double kSubnormal = 5e-324;
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(rng.next_bool(kSubnormal));
}

TEST(GeometricSkip, ExtremeProbabilitiesNeverHangOrDraw) {
  Rng rng(5);
  const std::uint64_t stream_probe = Rng(5)();
  const GeometricSkip always(1.0);
  const GeometricSkip never(0.0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(always.next(rng), 1u);
    EXPECT_EQ(never.next(rng), GeometricSkip::kNever);
  }
  // Neither consumed any randomness.
  EXPECT_EQ(rng(), stream_probe);
}

TEST(GeometricSkip, SubnormalProbabilitySaturatesToNever) {
  Rng rng(9);
  const GeometricSkip skip(5e-324);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t s = skip.next(rng);
    // Any skip this p can produce overflows the indexable range (mean
    // 1/p ~ 2e323 trials), so next() saturates instead of wrapping.
    EXPECT_EQ(s, GeometricSkip::kNever);
  }
}

TEST(GeometricSkip, RejectsOutOfRangeProbability) {
  EXPECT_THROW(GeometricSkip(-0.1), CheckFailure);
  EXPECT_THROW(GeometricSkip(1.1), CheckFailure);
}

TEST(GeometricSkip, MatchesGeometricMoments) {
  // Mean of Geometric(p) on {1, 2, ...} is 1/p; check calibration at a few
  // probabilities with a generous tolerance (n = 20000 draws).
  for (const double p : {0.5, 0.1, 0.01}) {
    SCOPED_TRACE(p);
    Rng rng(17);
    const GeometricSkip skip(p);
    const int draws = 20000;
    double sum = 0;
    std::uint64_t min_seen = GeometricSkip::kNever;
    for (int i = 0; i < draws; ++i) {
      const std::uint64_t s = skip.next(rng);
      ASSERT_GE(s, 1u);
      ASSERT_NE(s, GeometricSkip::kNever);
      min_seen = std::min(min_seen, s);
      sum += static_cast<double>(s);
    }
    EXPECT_EQ(min_seen, 1u);  // successes on the very next trial do occur
    const double mean = sum / draws;
    // 6 sigma of the sample mean: sigma = sqrt(1-p)/p / sqrt(draws).
    const double tol = 6.0 * std::sqrt(1.0 - p) / p / std::sqrt(double(draws));
    EXPECT_NEAR(mean, 1.0 / p, tol);
  }
}

TEST(GeometricSkip, DeterministicPerSeed) {
  Rng a(23), b(23);
  const GeometricSkip skip(0.037);
  for (int i = 0; i < 500; ++i) EXPECT_EQ(skip.next(a), skip.next(b));
}

TEST(Hash64, DeterministicAndSeedSensitive) {
  EXPECT_EQ(hash64(1, 2), hash64(1, 2));
  EXPECT_NE(hash64(1, 2), hash64(2, 2));
  EXPECT_NE(hash64(1, 2), hash64(1, 3));
  EXPECT_EQ(hash64(5, 6, 7), hash64(5, 6, 7));
  EXPECT_NE(hash64(5, 6, 7), hash64(5, 7, 6));
}

TEST(HashCoin, ExtremesAndCalibration) {
  EXPECT_FALSE(hash_coin(9, 1, 0.0));
  EXPECT_TRUE(hash_coin(9, 1, 1.0));
  int hits = 0;
  const int trials = 20000;
  for (int k = 0; k < trials; ++k)
    if (hash_coin(123, static_cast<std::uint64_t>(k), 0.25)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.25, 0.02);
}

TEST(HashCoin, SharedRandomnessAgreesAcrossCallers) {
  // The property the protocols rely on: any two "nodes" evaluating the coin
  // for the same (seed, part) get the same answer.
  for (std::uint64_t part = 0; part < 50; ++part)
    EXPECT_EQ(hash_coin(77, part, 0.5), hash_coin(77, part, 0.5));
}

TEST(Table, AlignsColumnsAndRejectsBadRows) {
  Table t({"name", "value"});
  t.begin_row().cell(std::string("x")).cell(std::int64_t{12});
  t.begin_row().cell(std::string("long-name")).cell(3.5);
  std::ostringstream out;
  t.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("long-name"), std::string::npos);
  EXPECT_NE(text.find("3.500"), std::string::npos);

  Table bad({"a", "b"});
  bad.begin_row().cell(std::string("only-one"));
  std::ostringstream sink;
  EXPECT_THROW(bad.print(sink), CheckFailure);
}

}  // namespace
}  // namespace lcs
