// E8 — Theorem 5.6: Byzantine agreement on the DAG tolerates t < n/2,
// independently of the access rate λ.
//
// Sweep the Byzantine share toward 1/2 for several λ under the strongest
// implemented adversary (rate attack + decision-edge withholding), with
// both ordering rules (GHOST and longest chain). Validity must stay high
// for t/n well below 1/2 and collapse only at the majority boundary —
// with no λ dependence, in sharp contrast to E6's chain.
#include <iostream>

#include "exp/harness.hpp"
#include "exp/montecarlo.hpp"
#include "protocols/dag_ba.hpp"

using namespace amm;

int main(int argc, char** argv) {
  exp::Harness h(argc, argv, "E8 — DAG resilience is ~1/2 and rate-independent (Theorem 5.6)",
                 300);

  const u32 n = 20;
  const u32 k = 101;

  Table table({"lambda", "t", "t/n", "validity [95% CI]", "byz frac of cut"});
  for (const double lambda : {0.25, 1.0, 4.0}) {
    for (const u32 t : {2u, 5u, 8u, 9u, 10u, 12u}) {
      proto::DagParams params;
      params.scenario.n = n;
      params.scenario.t = t;
      params.k = k;
      params.lambda = lambda;
      params.adversary = proto::DagAdversary::kRateAndWithhold;

      const std::vector<proto::DagResult> results = exp::run_trials(
          h.pool, h.seed ^ (static_cast<u64>(lambda * 100) * 131 + t), h.trials,
          [&](usize, Rng& rng) { return proto::run_dag_continuous(params, rng); });
      BernoulliEstimate est;
      double frac_sum = 0.0;
      for (const proto::DagResult& res : results) {
        est.add(res.outcome.terminated && res.outcome.validity(params.scenario));
        frac_sum += static_cast<double>(res.outcome.byz_in_decision_set) /
                    static_cast<double>(res.outcome.decision_set_size);
      }
      const auto [lo, hi] = est.wilson95();
      table.add_row({fmt(lambda, 2), std::to_string(t), fmt(static_cast<double>(t) / n, 2),
                     fmt_ci(est.rate(), lo, hi),
                     fmt(frac_sum / static_cast<double>(results.size()), 3)});
    }
  }
  h.emit(table,
         "Rate-and-withhold adversary. Paper: the failure boundary sits at t/n = 1/2\n"
         "for every lambda (compare: the chain in E6 fails at t/n = 1/(1+lambda(n-t))):");

  // Ordering-rule ablation at a fixed operating point.
  Table ablation({"ordering rule", "t", "validity rate"});
  for (const chain::PivotRule rule : {chain::PivotRule::kGhost, chain::PivotRule::kLongestChain}) {
    for (const u32 t : {5u, 8u}) {
      proto::DagParams params;
      params.scenario.n = n;
      params.scenario.t = t;
      params.k = 51;
      params.lambda = 1.0;
      params.pivot_rule = rule;
      params.full_ordering = true;
      params.adversary = proto::DagAdversary::kHonestOpposite;
      const auto est = exp::estimate_rate(
          h.pool, h.seed ^ (t + (rule == chain::PivotRule::kGhost ? 3 : 5)),
          std::min<usize>(h.trials, 30), [&](usize, Rng& rng) {
            return proto::run_dag_continuous(params, rng).outcome.validity(params.scenario);
          });
      ablation.add_row({rule == chain::PivotRule::kGhost ? "GHOST (heaviest)" : "longest chain",
                        std::to_string(t), fmt(est.rate(), 2)});
    }
  }
  h.emit(ablation, "Ordering-rule ablation (exact Algorithm 6 linearization):");
  return 0;
}
