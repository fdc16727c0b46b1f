// The paper's headline, interactively: sweep the Byzantine share for a
// chain and a DAG at the same access rate and watch where each collapses.
//
//   ./examples/chain_vs_dag [--n 20] [--lambda 0.5] [--k 61] [--trials 40]
//
// Expected shape (Theorems 5.4 / 5.6): the chain fails once λ·t crosses 1;
// the DAG holds until t/n approaches 1/2, for any λ.
#include <cmath>
#include <iostream>

#include "exp/harness.hpp"
#include "exp/montecarlo.hpp"
#include "protocols/chain_ba.hpp"
#include "protocols/dag_ba.hpp"

using namespace amm;

int main(int argc, char** argv) {
  u32 n = 20;
  u32 k = 61;
  double lambda = 0.5;
  exp::Harness h(argc, argv, "example: chain vs DAG", 40, [&](OptionSet& opts) {
    opts.add_u32("n", &n, "nodes");
    opts.add_u32("k", &k, "decided values, odd");
    opts.add_double("lambda", &lambda, "access rate per node per Delta, > 0");
    opts.require([&] { return k % 2 == 1; }, "need an odd --k");
    opts.require([&] { return lambda > 0.0 && std::isfinite(lambda); }, "need --lambda > 0");
  });

  Table table({"t", "t/n", "lambda*t", "chain validity", "DAG validity"});
  for (u32 t = 1; t < n / 2; t += std::max(1u, n / 10)) {
    proto::ChainParams cp;
    cp.scenario.n = n;
    cp.scenario.t = t;
    cp.k = k;
    cp.lambda = lambda;
    cp.adversary = proto::ChainAdversary::kRushExtend;

    proto::DagParams dp;
    dp.scenario.n = n;
    dp.scenario.t = t;
    dp.k = k;
    dp.lambda = lambda;
    dp.adversary = proto::DagAdversary::kRateAndWithhold;

    const auto chain_est =
        exp::estimate_rate(h.pool, h.seed ^ t, h.trials, [&](usize, Rng& rng) {
          const auto out = proto::run_chain_slotted(cp, rng);
          return out.terminated && out.validity(cp.scenario);
        });
    const auto dag_est =
        exp::estimate_rate(h.pool, h.seed ^ (t + 1000), h.trials, [&](usize, Rng& rng) {
          const auto res = proto::run_dag_continuous(dp, rng);
          return res.outcome.terminated && res.outcome.validity(dp.scenario);
        });
    table.add_row({std::to_string(t), fmt(static_cast<double>(t) / n, 2), fmt(lambda * t, 2),
                   fmt(chain_est.rate(), 2), fmt(dag_est.rate(), 2)});
  }
  h.emit(table);
  std::cout << "Chain threshold predicted at t/n = 1/(1+lambda*(n-t)) — i.e. lambda*t = 1.\n"
            << "The DAG should stay valid all the way to t/n ~ 0.5.\n";
  return 0;
}
