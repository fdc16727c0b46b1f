// The paper's Randomized Memory Access (§1.1): each node's append
// opportunities form an independent Poisson process of rate λ per interval
// Δ, so the merged process has rate λn. The TokenAuthority plays the role
// of the "authority who controls the access" and hands out append tokens.
#pragma once

#include <variant>
#include <vector>

#include "support/assert.hpp"
#include "support/rng.hpp"
#include "support/types.hpp"

namespace amm::sched {

/// One append token: node `holder` may perform a single append at `time`.
struct Token {
  SimTime time = 0.0;
  NodeId holder;
};

/// Samples the merged token stream. Implemented via the standard
/// superposition property: merged inter-arrival ~ Exp(λ_total), holder
/// chosen proportionally to per-node rate — statistically identical to n
/// independent Pois(λ) processes, and O(1) per token.
class TokenAuthority {
 public:
  /// `rate_per_delta` is the paper's λ; `delta` is the interval Δ the rate
  /// is expressed in (tokens per node per Δ).
  TokenAuthority(u32 node_count, double rate_per_delta, SimTime delta, Rng rng)
      : node_count_(node_count),
        merged_rate_(rate_per_delta * static_cast<double>(node_count) / delta),
        rng_(rng) {
    AMM_EXPECTS(node_count > 0);
    AMM_EXPECTS(rate_per_delta > 0.0);
    AMM_EXPECTS(delta > 0.0);
  }

  /// Next token strictly after the previous one (first call: after t=0).
  Token next() {
    clock_ += rng_.exponential(merged_rate_);
    const auto holder = static_cast<u32>(rng_.uniform_below(node_count_));
    return Token{clock_, NodeId{holder}};
  }

  double merged_rate() const { return merged_rate_; }

 private:
  u32 node_count_;
  double merged_rate_;  // events per unit time across all nodes
  SimTime clock_ = 0.0;
  Rng rng_;
};

/// Weighted token authority for the *permissionless* setting (§5: "all the
/// presented results can be trivially extended to the permissionless
/// setting"). Nodes hold hash-power weights instead of identical rates;
/// node i receives tokens as a Poisson process of rate proportional to
/// w_i. With unit weights this degenerates to TokenAuthority.
class WeightedTokenAuthority {
 public:
  /// `weights[i]` >= 0; total must be positive. `total_rate_per_delta` is
  /// the merged token rate per interval Δ across all nodes.
  WeightedTokenAuthority(std::vector<double> weights, double total_rate_per_delta, SimTime delta,
                         Rng rng)
      : cumulative_(std::move(weights)),
        merged_rate_(total_rate_per_delta / delta),
        rng_(rng) {
    AMM_EXPECTS(!cumulative_.empty());
    AMM_EXPECTS(total_rate_per_delta > 0.0);
    AMM_EXPECTS(delta > 0.0);
    double total = 0.0;
    for (auto& w : cumulative_) {
      AMM_EXPECTS(w >= 0.0);
      total += w;
      w = total;
    }
    AMM_EXPECTS(total > 0.0);
  }

  Token next() {
    clock_ += rng_.exponential(merged_rate_);
    // Inverse-CDF pick proportional to weight.
    const double x = rng_.uniform() * cumulative_.back();
    u32 lo = 0, hi = static_cast<u32>(cumulative_.size()) - 1;
    while (lo < hi) {
      const u32 mid = lo + (hi - lo) / 2;
      if (cumulative_[mid] <= x) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return Token{clock_, NodeId{lo}};
  }

  double merged_rate() const { return merged_rate_; }

 private:
  std::vector<double> cumulative_;  // prefix sums of weights
  double merged_rate_;
  SimTime clock_ = 0.0;
  Rng rng_;
};

/// The token stream of a continuous-time protocol: equal rates λ per node
/// (TokenAuthority), or, given per-node hash-power weights, tokens dealt in
/// proportion to weight at the same total rate λ·n per Δ
/// (WeightedTokenAuthority). Either way the stream draws from `rng` exactly
/// as the underlying authority does.
class TokenSource {
 public:
  TokenSource(u32 node_count, double rate_per_delta, SimTime delta,
              const std::vector<double>& weights, Rng rng)
      : authority_(make(node_count, rate_per_delta, delta, weights, rng)) {}

  Token next() {
    return std::visit([](auto& authority) { return authority.next(); }, authority_);
  }

 private:
  using Authority = std::variant<TokenAuthority, WeightedTokenAuthority>;

  static Authority make(u32 node_count, double rate_per_delta, SimTime delta,
                        const std::vector<double>& weights, Rng rng) {
    if (weights.empty()) return TokenAuthority(node_count, rate_per_delta, delta, rng);
    AMM_EXPECTS(weights.size() == node_count);
    return WeightedTokenAuthority(weights, rate_per_delta * static_cast<double>(node_count),
                                  delta, rng);
  }

  Authority authority_;
};

/// Slotted access counts: the number of tokens each node receives inside
/// one interval Δ (i.i.d. Pois(λ) per node). This matches the paper's
/// average-case analysis of Theorem 5.4 directly.
class SlottedAccess {
 public:
  SlottedAccess(u32 node_count, double rate_per_delta, Rng rng)
      : node_count_(node_count), rate_(rate_per_delta), rng_(rng) {
    AMM_EXPECTS(node_count > 0);
    AMM_EXPECTS(rate_per_delta > 0.0);
  }

  /// Token counts for the next slot, one entry per node.
  std::vector<u32> next_slot() {
    std::vector<u32> counts(node_count_);
    for (auto& c : counts) c = static_cast<u32>(rng_.poisson(rate_));
    return counts;
  }

 private:
  u32 node_count_;
  double rate_;
  Rng rng_;
};

}  // namespace amm::sched
