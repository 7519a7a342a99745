#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/util/check.h"
#include "src/util/extent_map.h"
#include "src/util/rng.h"
#include "src/util/summary.h"
#include "src/util/time.h"

namespace mimdraid {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformU64InRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.UniformU64(17), 17u);
  }
}

TEST(Rng, UniformU64CoversAllResidues) {
  Rng rng(7);
  std::vector<int> counts(7, 0);
  for (int i = 0; i < 7000; ++i) {
    counts[rng.UniformU64(7)]++;
  }
  for (int c : counts) {
    EXPECT_GT(c, 700);  // roughly uniform (expected 1000)
    EXPECT_LT(c, 1300);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformDoubleInHalfOpenUnit) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.UniformDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ExponentialMeanApproximatelyCorrect) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Exponential(250.0);
  }
  EXPECT_NEAR(sum / n, 250.0, 6.0);
}

TEST(Rng, NormalMomentsApproximatelyCorrect) {
  Rng rng(19);
  Summary s;
  for (int i = 0; i < 50000; ++i) {
    s.Add(rng.Normal(100.0, 15.0));
  }
  EXPECT_NEAR(s.mean(), 100.0, 0.5);
  EXPECT_NEAR(s.stddev(), 15.0, 0.5);
}

TEST(Rng, BernoulliRate) {
  Rng rng(23);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) {
    hits += rng.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, BernoulliDegenerate) {
  Rng rng(29);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  EXPECT_FALSE(rng.Bernoulli(-1.0));
  EXPECT_TRUE(rng.Bernoulli(2.0));
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(31);
  Rng b = a.Fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(Zipf, SampleInRange) {
  Rng rng(37);
  ZipfSampler zipf(100, 1.0);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_LT(zipf.Sample(rng), 100u);
  }
}

TEST(Zipf, SkewFavorsLowRanks) {
  Rng rng(41);
  ZipfSampler zipf(1000, 1.0);
  int first_decile = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Sample(rng) < 100) {
      ++first_decile;
    }
  }
  // For theta=1 over 1000 items, the top 10% carries ~62% of the mass.
  EXPECT_GT(first_decile, n / 2);
}

TEST(Zipf, ThetaZeroIsUniform) {
  Rng rng(43);
  ZipfSampler zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) {
    counts[zipf.Sample(rng)]++;
  }
  for (int c : counts) {
    EXPECT_NEAR(c, 2000, 300);
  }
}

TEST(Summary, BasicMoments) {
  Summary s;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    s.Add(v);
  }
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.sum(), 15.0);
}

TEST(Summary, EmptyIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(Summary, MergeMatchesSequential) {
  Rng rng(47);
  Summary all;
  Summary a;
  Summary b;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Normal(10, 3);
    all.Add(v);
    (i % 2 == 0 ? a : b).Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Summary, MergeWithEmpty) {
  Summary a;
  a.Add(5.0);
  Summary empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 5.0);
}

TEST(Check, PassingChecksAreSilent) {
  MIMDRAID_CHECK(true);
  MIMDRAID_CHECK_LE(1, 2);
  MIMDRAID_CHECK_LT(1, 2);
  MIMDRAID_CHECK_GE(2, 2);
  MIMDRAID_CHECK_GT(3, 2);
  MIMDRAID_CHECK_EQ(4, 4);
  MIMDRAID_CHECK_NE(4, 5);
  MIMDRAID_CHECK(true) << "streamed context is not evaluated on success";
}

TEST(Check, OperandsEvaluatedExactlyOnce) {
  int evaluations = 0;
  auto next = [&evaluations]() { return ++evaluations; };
  MIMDRAID_CHECK_GE(next(), 1);
  EXPECT_EQ(evaluations, 1);
  MIMDRAID_CHECK_LE(0, next());
  EXPECT_EQ(evaluations, 2);
}

TEST(CheckDeath, ComparisonReportsBothOperandValues) {
  const uint64_t lhs = 5;
  const uint64_t rhs = 3;
  EXPECT_DEATH(MIMDRAID_CHECK_LE(lhs, rhs), "lhs <= rhs \\(5 vs 3\\)");
  EXPECT_DEATH(MIMDRAID_CHECK_EQ(lhs, rhs), "lhs == rhs \\(5 vs 3\\)");
  EXPECT_DEATH(MIMDRAID_CHECK_GT(rhs, lhs), "rhs > lhs \\(3 vs 5\\)");
}

TEST(CheckDeath, PlainCheckPrintsExpressionText) {
  const bool queue_drained = false;
  EXPECT_DEATH(MIMDRAID_CHECK(queue_drained), "queue_drained");
}

TEST(CheckDeath, StreamedContextAppearsInMessage) {
  const int disk = 7;
  EXPECT_DEATH(MIMDRAID_CHECK_EQ(1, 2) << "disk " << disk << " out of sync",
               "1 == 2 \\(1 vs 2\\) disk 7 out of sync");
}

TEST(CheckDeath, DcheckActiveExactlyInDebugBuilds) {
#ifdef NDEBUG
  // Compiled out: the failing comparison and its operands never evaluate.
  int evaluations = 0;
  auto next = [&evaluations]() { return ++evaluations; };
  MIMDRAID_DCHECK_EQ(next(), -1) << "unused";
  EXPECT_EQ(evaluations, 0);
#else
  EXPECT_DEATH(MIMDRAID_DCHECK_EQ(1, -1), "1 == -1 \\(1 vs -1\\)");
#endif
}

TEST(ExtentMap, EmptyMapIsAllZero) {
  ExtentMap m;
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.ZeroPrefix(0, 8), 8u);
  EXPECT_EQ(m.ZeroPrefix(1u << 20, 3), 3u);
}

TEST(ExtentMap, ZeroPrefixBeforeAtAndInsideARange) {
  ExtentMap m;
  m.Set(10, 5, 1);  // [10, 15)
  EXPECT_EQ(m.size(), 5u);
  EXPECT_EQ(m.ZeroPrefix(0, 8), 8u);    // wholly before
  EXPECT_EQ(m.ZeroPrefix(4, 10), 6u);   // runs into the range
  EXPECT_EQ(m.ZeroPrefix(9, 1), 1u);    // ends just before it
  EXPECT_EQ(m.ZeroPrefix(10, 4), 0u);   // at its start
  EXPECT_EQ(m.ZeroPrefix(12, 8), 0u);   // inside it
  EXPECT_EQ(m.ZeroPrefix(14, 1), 0u);   // its last key
  EXPECT_EQ(m.ZeroPrefix(15, 4), 4u);   // just past its end
}

TEST(ExtentMap, SetSplitsRangesAndFillsGaps) {
  ExtentMap m;
  m.Set(0, 4, 1);
  m.Set(8, 4, 1);
  m.Set(2, 8, 1);  // overlaps both and fills the gap [4, 8)
  EXPECT_EQ(m.size(), 12u);
  EXPECT_EQ(m.ZeroPrefix(0, 12), 0u);
  m.Set(3, 6, 0);  // clears the middle: [0, 3) and [9, 12) remain
  EXPECT_EQ(m.size(), 6u);
  EXPECT_EQ(m.ZeroPrefix(3, 10), 6u);
  EXPECT_EQ(m.ZeroPrefix(2, 1), 0u);
  EXPECT_EQ(m.ZeroPrefix(9, 1), 0u);
  m.Set(0, 12, 0);
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.ZeroPrefix(0, 12), 12u);
}

TEST(ExtentMap, SetOverwritesCountsInsteadOfAdding) {
  ExtentMap m;
  m.Add(0, 4, 3);
  m.Set(1, 2, 1);
  m.Set(1, 1, 0);
  EXPECT_EQ(m.size(), 3u);  // [0, 1) at 3, [2, 3) at 1, [3, 4) at 3
  EXPECT_EQ(m.ZeroPrefix(1, 3), 1u);
  m.Add(2, 1, -1);  // [2, 3) reaches 0 and is dropped
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.ZeroPrefix(1, 3), 2u);
}

TEST(ExtentMap, AddCountsOverlapsAcrossEdges) {
  ExtentMap m;
  m.Add(0, 8, 1);
  m.Add(4, 8, 1);  // [0, 4) = 1, [4, 8) = 2, [8, 12) = 1
  EXPECT_EQ(m.size(), 12u);
  m.Add(0, 8, -1);  // [4, 8) = 1, [8, 12) = 1
  EXPECT_EQ(m.size(), 8u);
  EXPECT_EQ(m.ZeroPrefix(0, 8), 4u);
  m.Add(4, 8, -1);
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.ZeroPrefix(0, 12), 12u);
}

TEST(ExtentMap, AddInsideARangeSplitsIt) {
  ExtentMap m;
  m.Add(0, 10, 1);
  m.Add(3, 2, 1);
  m.Add(0, 10, -1);  // only [3, 5) still counts
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.ZeroPrefix(0, 10), 3u);
  EXPECT_EQ(m.ZeroPrefix(5, 5), 5u);
}

TEST(ExtentMapDeath, CountBelowZeroChecks) {
  ExtentMap m;
  m.Add(0, 4, 1);
  EXPECT_DEATH(m.Add(2, 4, -1), "count >= 0");
}

TEST(TimeHelpers, Conversions) {
  EXPECT_EQ(UsFromMs(2.5), SimDuration(2500));
  EXPECT_DOUBLE_EQ(MsFromUs(SimDuration(2500)), 2.5);
  EXPECT_EQ(UsFromSeconds(1.5), SimDuration(1'500'000));
  EXPECT_DOUBLE_EQ(SecondsFromUs(SimDuration(1'500'000)), 1.5);
}

}  // namespace
}  // namespace mimdraid
