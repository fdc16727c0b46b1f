// E6 — Theorem 5.4: the chain's resilience depends on the access rate:
//   t/n <= 1 / (1 + λ(n - t)),  equivalently  λ·t <= 1.
//
// Sweep the Byzantine share across the predicted threshold for several
// rates under the rushing tie-breaker adversary, in both execution models
// (slotted = the paper's average-case analysis; continuous = event-driven
// ablation). Validity must collapse right where λ·t crosses 1.
#include <iostream>

#include "exp/harness.hpp"
#include "exp/montecarlo.hpp"
#include "protocols/chain_ba.hpp"

using namespace amm;

int main(int argc, char** argv) {
  exp::Harness h(argc, argv, "E6 — chain resilience vs access rate (Theorem 5.4)", 400);

  const u32 n = 20;
  const u32 k = 61;

  for (const bool slotted : {true, false}) {
    Table table({"model", "lambda", "t", "t/n", "bound 1/(1+l(n-t))", "lambda*t",
                 "validity [95% CI]", "byz frac of chain"});
    for (const double lambda : {0.125, 0.25, 0.5}) {
      for (const u32 t : {1u, 2u, 4u, 6u, 8u, 9u}) {
        proto::ChainParams params;
        params.scenario.n = n;
        params.scenario.t = t;
        params.k = k;
        params.lambda = lambda;
        params.tie_break = chain::TieBreak::kRandomized;
        params.adversary = proto::ChainAdversary::kRushExtend;

        const std::vector<proto::Outcome> outs = exp::run_trials(
            h.pool, h.seed ^ (static_cast<u64>(lambda * 1000) * 31 + t + (slotted ? 1 : 0)),
            h.trials, [&](usize, Rng& rng) {
              return slotted ? proto::run_chain_slotted(params, rng)
                             : proto::run_chain_continuous(params, rng);
            });
        BernoulliEstimate est;
        double frac_sum = 0.0;
        usize runs = 0;
        for (const proto::Outcome& out : outs) {
          est.add(out.terminated && out.validity(params.scenario));
          if (out.terminated) {
            frac_sum += static_cast<double>(out.byz_in_decision_set) /
                        static_cast<double>(out.decision_set_size);
            ++runs;
          }
        }
        const auto [lo, hi] = est.wilson95();
        table.add_row({slotted ? "slotted" : "continuous", fmt(lambda, 3), std::to_string(t),
                       fmt(static_cast<double>(t) / n, 3),
                       fmt(proto::chain_resilience_bound(n, t, lambda), 3),
                       fmt(lambda * t, 2), fmt_ci(est.rate(), lo, hi),
                       runs > 0 ? fmt(frac_sum / static_cast<double>(runs), 3) : "-"});
      }
    }
    h.emit(table, slotted ? "Slotted model (matches the Theorem 5.4 average-case analysis):"
                          : "Continuous-time model (ablation):");
  }
  std::cout << "Paper: validity survives while t/n is below 1/(1+lambda(n-t)) — i.e.\n"
               "lambda*t < 1 — and collapses beyond it, for every rate lambda.\n";
  return 0;
}
