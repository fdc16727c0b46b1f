// Bernoulli rate estimates with Wilson intervals, the standard normal CDF
// and a least-squares line fit.
#pragma once

#include <utility>
#include <vector>

#include "support/assert.hpp"
#include "support/types.hpp"

namespace amm {

/// Success/failure counter with a Wilson score interval — the right tool
/// for estimating "probability that validity holds" from Bernoulli trials.
class BernoulliEstimate {
 public:
  void add(bool success) {
    ++trials_;
    if (success) ++successes_;
  }

  u64 trials() const { return trials_; }
  u64 successes() const { return successes_; }

  double rate() const {
    return trials_ > 0 ? static_cast<double>(successes_) / static_cast<double>(trials_) : 0.0;
  }

  /// Wilson 95% score interval (lo, hi).
  std::pair<double, double> wilson95() const;

 private:
  u64 trials_ = 0;
  u64 successes_ = 0;
};

/// Standard normal CDF Φ(x).
double normal_cdf(double x);

/// Ordinary least squares fit y ≈ a + b·x; returns {a, b, r²}.
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  double r_squared = 0.0;
};
LinearFit fit_linear(const std::vector<double>& x, const std::vector<double>& y);

}  // namespace amm
