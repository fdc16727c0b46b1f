#include "support/stats.hpp"

#include <gtest/gtest.h>

#include "support/rng.hpp"

namespace amm {
namespace {

TEST(BernoulliEstimate, RateAndInterval) {
  BernoulliEstimate e;
  for (int i = 0; i < 70; ++i) e.add(true);
  for (int i = 0; i < 30; ++i) e.add(false);
  EXPECT_DOUBLE_EQ(e.rate(), 0.7);
  const auto [lo, hi] = e.wilson95();
  EXPECT_LT(lo, 0.7);
  EXPECT_GT(hi, 0.7);
  EXPECT_GT(lo, 0.55);
  EXPECT_LT(hi, 0.82);
}

TEST(BernoulliEstimate, EmptyIntervalIsVacuous) {
  BernoulliEstimate e;
  const auto [lo, hi] = e.wilson95();
  EXPECT_EQ(lo, 0.0);
  EXPECT_EQ(hi, 1.0);
}

TEST(NormalCdf, KnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.959964), 0.975, 1e-6);
  EXPECT_NEAR(normal_cdf(-1.959964), 0.025, 1e-6);
}

TEST(NormalCdf, Symmetry) {
  for (const double x : {0.3, 1.1, 2.7}) {
    EXPECT_NEAR(normal_cdf(x) + normal_cdf(-x), 1.0, 1e-12);
  }
}

TEST(FitLinear, PerfectLine) {
  const std::vector<double> x{1, 2, 3, 4, 5};
  const std::vector<double> y{3, 5, 7, 9, 11};  // y = 1 + 2x
  const LinearFit fit = fit_linear(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(FitLinear, NoisyLineRecovered) {
  Rng rng(3);
  std::vector<double> x, y;
  for (int i = 0; i < 500; ++i) {
    x.push_back(i);
    y.push_back(4.0 - 0.5 * i + rng.normal());
  }
  const LinearFit fit = fit_linear(x, y);
  EXPECT_NEAR(fit.slope, -0.5, 0.01);
  EXPECT_GT(fit.r_squared, 0.99);
}

TEST(FitLinear, FlatDataHasZeroSlope) {
  const std::vector<double> x{1, 2, 3};
  const std::vector<double> y{5, 5, 5};
  const LinearFit fit = fit_linear(x, y);
  EXPECT_DOUBLE_EQ(fit.slope, 0.0);
  EXPECT_DOUBLE_EQ(fit.intercept, 5.0);
}

}  // namespace
}  // namespace amm
