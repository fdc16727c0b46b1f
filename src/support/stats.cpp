#include "support/stats.hpp"

#include <algorithm>
#include <cmath>

namespace amm {

std::pair<double, double> BernoulliEstimate::wilson95() const {
  if (trials_ == 0) return {0.0, 1.0};
  constexpr double z = 1.959964;
  const double n = static_cast<double>(trials_);
  const double p = rate();
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double half = (z / denom) * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n));
  return {std::max(0.0, center - half), std::min(1.0, center + half)};
}

double normal_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

double normal_upper_tail(double x) { return 0.5 * std::erfc(x / std::sqrt(2.0)); }

double log_binomial(u64 n, u64 k) {
  AMM_EXPECTS(k <= n);
  return std::lgamma(static_cast<double>(n) + 1.0) - std::lgamma(static_cast<double>(k) + 1.0) -
         std::lgamma(static_cast<double>(n - k) + 1.0);
}

double binomial_cdf(u64 k, u64 n, double p) {
  AMM_EXPECTS(p >= 0.0 && p <= 1.0);
  if (k >= n) return 1.0;
  if (p == 0.0) return 1.0;
  if (p == 1.0) return 0.0;
  if (n > 10'000) {
    // Normal approximation with continuity correction.
    const double mu = static_cast<double>(n) * p;
    const double sigma = std::sqrt(mu * (1.0 - p));
    return normal_cdf((static_cast<double>(k) + 0.5 - mu) / sigma);
  }
  const double logp = std::log(p);
  const double logq = std::log1p(-p);
  double sum = 0.0;
  for (u64 i = 0; i <= k; ++i) {
    sum += std::exp(log_binomial(n, i) + static_cast<double>(i) * logp +
                    static_cast<double>(n - i) * logq);
  }
  return std::min(1.0, sum);
}

double poisson_upper_tail(u64 k, double mu) {
  AMM_EXPECTS(mu >= 0.0);
  if (k == 0) return 1.0;
  if (mu == 0.0) return 0.0;
  // Pr[X >= k] = 1 - sum_{i<k} e^-mu mu^i / i!, summed in log space.
  double cdf = 0.0;
  double log_term = -mu;  // i = 0
  for (u64 i = 0; i < k; ++i) {
    if (i > 0) log_term += std::log(mu) - std::log(static_cast<double>(i));
    cdf += std::exp(log_term);
  }
  return std::max(0.0, 1.0 - cdf);
}

LinearFit fit_linear(const std::vector<double>& x, const std::vector<double>& y) {
  AMM_EXPECTS(x.size() == y.size());
  AMM_EXPECTS(x.size() >= 2);
  const double n = static_cast<double>(x.size());
  double sx = 0, sy = 0;
  for (usize i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
  }
  const double mx = sx / n;
  const double my = sy / n;
  double sxx = 0, sxy = 0, syy = 0;
  for (usize i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  LinearFit fit;
  fit.slope = sxx > 0.0 ? sxy / sxx : 0.0;
  fit.intercept = my - fit.slope * mx;
  fit.r_squared = (sxx > 0.0 && syy > 0.0) ? (sxy * sxy) / (sxx * syy) : 1.0;
  return fit;
}

}  // namespace amm
