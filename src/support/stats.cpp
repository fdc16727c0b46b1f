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
