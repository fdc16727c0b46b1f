#include "support/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

namespace amm {
namespace {

TEST(SplitMix64, KnownSequenceIsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, StreamsAreIndependent) {
  Rng a = Rng::for_stream(123, 0);
  Rng b = Rng::for_stream(123, 1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, StreamsAreReproducible) {
  Rng a = Rng::for_stream(99, 5);
  Rng b = Rng::for_stream(99, 5);
  EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(4);
  double sum = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformBelowStaysBelowBound) {
  Rng rng(5);
  for (u64 bound : {1ull, 2ull, 3ull, 7ull, 100ull, 1ull << 40}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.uniform_below(bound), bound);
  }
}

TEST(Rng, UniformBelowOneIsAlwaysZero) {
  Rng rng(6);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_below(1), 0u);
}

TEST(Rng, UniformBelowCoversAllResidues) {
  Rng rng(7);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 5000; ++i) ++counts[rng.uniform_below(5)];
  for (const int c : counts) EXPECT_GT(c, 800);  // ~1000 expected each
}

/// Lemire's rejection with the threshold 2^64 mod bound computed before
/// every draw: the formula uniform_below must reproduce draw for draw.
u64 uniform_below_with_threshold(Rng& rng, u64 bound) {
  __extension__ using u128 = unsigned __int128;
  const u64 threshold = (~bound + 1) % bound;
  for (;;) {
    const u128 m = static_cast<u128>(rng.next()) * bound;
    if (static_cast<u64>(m) >= threshold) return static_cast<u64>(m >> 64);
  }
}

TEST(Rng, UniformBelowMatchesThresholdFormula) {
  // 2^63 + 1 rejects about half the draws, 2^64 - 1 almost none.
  for (const u64 bound : {u64{1}, u64{2}, u64{3}, u64{48}, (u64{1} << 32) + 1,
                          (u64{1} << 63) + 1, ~u64{0}}) {
    for (u64 seed = 1; seed <= 8; ++seed) {
      Rng fast(seed);
      Rng reference(seed);
      for (int i = 0; i < 2000; ++i) {
        ASSERT_EQ(fast.uniform_below(bound), uniform_below_with_threshold(reference, bound))
            << "bound " << bound << ", seed " << seed << ", draw " << i;
      }
      EXPECT_EQ(fast.next(), reference.next()) << "bound " << bound << " consumed other draws";
    }
  }
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng rng(8);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const i64 x = rng.uniform_int(-3, 3);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 3);
    saw_lo |= (x == -3);
    saw_hi |= (x == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(10);
  const double lambda = 4.0;
  double sum = 0.0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(lambda);
  EXPECT_NEAR(sum / n, 1.0 / lambda, 0.01);
}

TEST(Rng, PoissonSmallMeanMatches) {
  Rng rng(11);
  const double mu = 2.5;
  double sum = 0.0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(mu));
  EXPECT_NEAR(sum / n, mu, 0.05);
}

TEST(Rng, PoissonVarianceMatchesMean) {
  Rng rng(12);
  const double mu = 3.0;
  const int n = 50'000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const auto x = static_cast<double>(rng.poisson(mu));
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(var, mu, 0.15);
}

TEST(Rng, PoissonLargeMeanUsesNormalApprox) {
  Rng rng(13);
  const double mu = 200.0;  // exercises the mu >= 64 branch
  const int n = 20'000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(mu));
  EXPECT_NEAR(sum / n, mu, 1.0);
}

TEST(Rng, PoissonZeroMean) {
  Rng rng(14);
  EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, NormalMoments) {
  Rng rng(15);
  const int n = 100'000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(16);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  rng.shuffle(v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sorted[static_cast<usize>(i)], i);
}

TEST(Rng, ShuffleActuallyPermutes) {
  Rng rng(17);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  rng.shuffle(v);
  std::vector<int> id(100);
  std::iota(id.begin(), id.end(), 0);
  EXPECT_NE(v, id);
}

// Property sweep: the merged Poisson token intuition — sum of n independent
// Poisson(λ) draws matches one Poisson(nλ) draw in mean.
class PoissonSuperposition : public ::testing::TestWithParam<std::pair<u32, double>> {};

TEST_P(PoissonSuperposition, SumMatchesMergedRate) {
  const auto [n, lambda] = GetParam();
  Rng rng(100 + n);
  const int reps = 20'000;
  double per_node_sum = 0.0;
  for (int r = 0; r < reps; ++r) {
    for (u32 i = 0; i < n; ++i) per_node_sum += static_cast<double>(rng.poisson(lambda));
  }
  const double mean = per_node_sum / reps;
  EXPECT_NEAR(mean, n * lambda, 0.05 * n * lambda + 0.05);
}

INSTANTIATE_TEST_SUITE_P(Rates, PoissonSuperposition,
                         ::testing::Values(std::pair<u32, double>{2, 0.5},
                                           std::pair<u32, double>{5, 1.0},
                                           std::pair<u32, double>{10, 0.2},
                                           std::pair<u32, double>{20, 2.0}));

}  // namespace
}  // namespace amm
