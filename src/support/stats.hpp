// Bernoulli rate estimates with Wilson intervals, and the distribution tails
// the paper's proofs rely on (normal, binomial, Poisson).
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

/// Upper tail of the standard normal, Q(x) = 1 - Φ(x).
double normal_upper_tail(double x);

/// log of the binomial coefficient C(n, k), via lgamma.
double log_binomial(u64 n, u64 k);

/// Exact binomial tail Pr[X <= k] for X ~ Bin(n, p); switches to a normal
/// approximation for n > 10^4 where exact summation is pointless.
double binomial_cdf(u64 k, u64 n, double p);

/// Poisson upper tail Pr[X >= k] for X ~ Pois(mu).
double poisson_upper_tail(u64 k, double mu);

/// Ordinary least squares fit y ≈ a + b·x; returns {a, b, r²}.
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  double r_squared = 0.0;
};
LinearFit fit_linear(const std::vector<double>& x, const std::vector<double>& y);

}  // namespace amm
