#include "protocols/nakamoto.hpp"

#include <cmath>
#include <span>

#include "am/memory.hpp"
#include "chain/block_graph.hpp"
#include "check/audit.hpp"
#include "sched/poisson.hpp"

namespace amm::proto {

NakamotoResult run_double_spend_race(const NakamotoParams& params, Rng rng) {
  const Scenario& s = params.scenario;
  s.validate();
  AMM_EXPECTS(s.t >= 1);
  AMM_EXPECTS(params.confirmation_depth >= 1);

  // The race only depends on chain lengths, but we keep the real memory in
  // the loop so the execution is a legal append-memory history (and can be
  // captured/replayed like any other).
  am::AppendMemory memory(s.n);
  sched::TokenAuthority authority(s.n, params.lambda, params.delta,
                                  Rng::for_stream(rng.next(), 1));
  check::MemoryAuditor auditor;
  // Audit-only carried graph: extended incrementally at checkpoints, it
  // cross-checks BlockGraph::extend against the growing race history. Zero
  // cost in release builds.
  chain::BlockGraph graph;
  auto audit_all = [&] {
    auditor.check(memory);
    if constexpr (check::kAuditEnabled) {
      graph.extend(memory.read());
      check::check_graph(graph);
    }
  };

  // Public chain: correct blocks after the tx block; private chain: the
  // attacker's fork from the tx block's parent. Serialized regime — each
  // correct token extends the public tip (fork waste is the chain's
  // *validity* problem, E6; the double-spend race is orthogonal).
  am::MsgId public_tip{};
  am::MsgId private_tip{};
  bool have_tx_block = false;
  bool have_private = false;
  u64 public_len = 0;   // blocks on top of the tx block's parent (incl. tx block)
  u64 private_len = 0;  // attacker's blocks from the same parent

  NakamotoResult result;
  bool accepted = false;

  for (u64 i = 0; i < params.max_tokens; ++i) {
    const sched::Token token = authority.next();
    if (s.is_byzantine(token.holder)) {
      // Private mining: extend the withheld fork (anchored beside the tx
      // block — the double-spend shares the tx block's parent).
      if (!have_tx_block) continue;  // nothing to fork from yet
      const std::span<const am::MsgId> refs(&private_tip, have_private ? 1 : 0);
      private_tip = memory.append(token.holder, Vote::kMinus, /*payload=*/1, refs, token.time);
      have_private = true;
      ++private_len;
    } else {
      const std::span<const am::MsgId> refs(&public_tip, have_tx_block ? 1 : 0);
      public_tip = memory.append(token.holder, Vote::kPlus, /*payload=*/0, refs, token.time);
      have_tx_block = true;
      ++public_len;
    }

    if (!accepted && public_len >= params.confirmation_depth) {
      accepted = true;
      result.blocks_to_confirm = public_len;
      result.time_to_confirm = token.time;
    }
    if (accepted) {
      if (private_len > public_len) {
        audit_all();
        result.terminated = true;
        result.reversed = true;  // the attacker publishes and wins
        result.final_lead = static_cast<i64>(public_len) - static_cast<i64>(private_len);
        return result;
      }
      if (public_len >= private_len + params.give_up_deficit) {
        audit_all();
        result.terminated = true;
        result.reversed = false;
        result.final_lead = static_cast<i64>(public_len) - static_cast<i64>(private_len);
        return result;
      }
    }
  }
  audit_all();
  return result;
}

double nakamoto_overtake_bound(double q, u32 z) {
  AMM_EXPECTS(q >= 0.0 && q <= 1.0);
  const double p = 1.0 - q;
  if (q >= p) return 1.0;
  return std::pow(q / p, static_cast<double>(z));
}

double nakamoto_reversal_probability(double q, u32 z) {
  AMM_EXPECTS(q >= 0.0 && q <= 1.0);
  AMM_EXPECTS(z >= 1);
  const double p = 1.0 - q;
  if (q >= p) return 1.0;
  if (q == 0.0) return 0.0;
  const double ratio = q / p;
  // Head start while the defender mines z-1 blocks: each defender block
  // is preceded by Geometric(p)-many attacker blocks, so the total is
  // negative binomial — NB(k; z-1, p) = C(k+z-2, k) p^{z-1} q^k (a point
  // mass at 0 for z = 1). Rosenfeld's exact analysis; Nakamoto's Poisson
  // is its approximation.
  const u32 r = z - 1;  // number of defender blocks the head start spans
  const double mean = static_cast<double>(r) * ratio;
  const u32 k_max = z + 1 + static_cast<u32>(20.0 * (mean + 1.0));
  double prob = 0.0;
  double nb = std::pow(p, static_cast<double>(r));  // NB(0)
  double nb_cdf = 0.0;
  for (u32 k = 0; k <= k_max; ++k) {
    if (k > 0) {
      // NB(k) = NB(k-1) * q * (k + r - 1) / k.
      nb *= q * static_cast<double>(k + r - 1) / static_cast<double>(k);
    }
    nb_cdf += nb;
    const double catch_up =
        k >= z + 1 ? 1.0 : std::pow(ratio, static_cast<double>(z + 1 - k));
    prob += nb * catch_up;
  }
  prob += (1.0 - nb_cdf);  // remaining tail is already ahead
  return std::min(1.0, std::max(0.0, prob));
}

}  // namespace amm::proto
