// E7 — Lemma 5.5: a withholding adversary can inject only O(log n) extra
// Byzantine values into the first-k DAG ordering.
//
// The lemma bounds the private chain built during a quiet interval (no
// correct appends) just before the decision cut. Its executable content:
//
//  * the achievable dump is TINY relative to k and does not grow with the
//    system size (table 1 sweeps n at fixed t/n, λ) — resilience is
//    untouched, which is what Theorem 5.6 needs;
//  * the best gap any adaptive adversary could exploit grows only
//    logarithmically with the number of opportunities (table 2 sweeps k:
//    the max-over-gaps statistic follows an extreme-value log law);
//  * the dump scales with the Byzantine token share β/(1-β) (table 3).
#include <cmath>
#include <iostream>

#include "exp/harness.hpp"
#include "exp/montecarlo.hpp"
#include "protocols/dag_ba.hpp"

using namespace amm;

namespace {

struct Measured {
  double dump = 0.0;
  double omniscient = 0.0;
  double gap = 0.0;
};

Measured measure(exp::Harness& h, u32 n, u32 t, u32 k, double lambda, u64 salt) {
  proto::DagParams params;
  params.scenario.n = n;
  params.scenario.t = t;
  params.k = k;
  params.lambda = lambda;
  params.adversary = proto::DagAdversary::kWithholdOnly;

  const std::vector<proto::DagResult> results =
      exp::run_trials(h.pool, h.seed ^ salt, h.trials,
                      [&](usize, Rng& rng) { return proto::run_dag_continuous(params, rng); });
  Measured sum;
  for (const proto::DagResult& res : results) {
    sum.dump += static_cast<double>(res.dumped);
    sum.omniscient += static_cast<double>(res.omniscient_bound);
    sum.gap += res.final_gap / params.delta;
  }
  const auto runs = static_cast<double>(results.size());
  sum.dump /= runs;
  sum.omniscient /= runs;
  sum.gap /= runs;
  return sum;
}

}  // namespace

int main(int argc, char** argv) {
  exp::Harness h(argc, argv, "E7 — DAG withholding injects only O(log) values (Lemma 5.5)", 150);

  // Table 1: system-size sweep. The injectable value count must stay flat
  // and minuscule next to k — never linear in n.
  Table by_n({"n", "t", "k", "mean dump", "best-gap bound", "bound / k"});
  for (const u32 n : {8u, 16u, 32u, 64u, 128u}) {
    const Measured m = measure(h, n, n / 4, 201, 1.0, n);
    by_n.add_row({std::to_string(n), std::to_string(n / 4), "201", fmt(m.dump, 2),
                  fmt(m.omniscient, 2), fmt(m.omniscient / 201.0, 4)});
  }
  h.emit(by_n,
         "Sweep n at t/n = 1/4, lambda = 1, k = 201 — the injectable count is O(1)\n"
         "per gap and never scales with the system (resilience unaffected):");

  // Table 2: opportunity sweep. The adaptive adversary's best gap over the
  // run grows like the log of the number of gaps (~k).
  Table by_k({"k", "best-gap bound", "bound / log2(k)"});
  std::vector<double> log_ks, bounds;
  for (const u32 k : {51u, 101u, 201u, 401u, 801u, 1601u}) {
    const Measured m = measure(h, 16, 4, k, 1.0, 7000 + k);
    by_k.add_row({std::to_string(k), fmt(m.omniscient, 2),
                  fmt(m.omniscient / std::log2(static_cast<double>(k)), 3)});
    log_ks.push_back(std::log2(static_cast<double>(k)));
    bounds.push_back(m.omniscient);
  }
  const LinearFit log_fit = fit_linear(log_ks, bounds);
  h.emit(by_k, "Sweep k at n = 16, t = 4, lambda = 1 — extreme-value growth of the best gap:");
  std::cout << "fit: bound ~ " << fmt(log_fit.intercept, 2) << " + " << fmt(log_fit.slope, 3)
            << " * log2(k), r^2 = " << fmt(log_fit.r_squared, 3)
            << "  (logarithmic, as the lemma's tail bound predicts)\n\n";

  // Table 3: Byzantine-share sweep — the per-gap token ratio t/(n-t).
  Table by_t({"t/n", "t/(n-t)", "mean dump", "best-gap bound"});
  for (const u32 t : {2u, 4u, 6u, 8u, 10u}) {
    const Measured m = measure(h, 24, t, 201, 1.0, 9000 + t);
    by_t.add_row({fmt(t / 24.0, 3), fmt(static_cast<double>(t) / (24 - t), 3), fmt(m.dump, 2),
                  fmt(m.omniscient, 2)});
  }
  h.emit(by_t, "Sweep t at n = 24 — the dump tracks the Byzantine/correct token ratio:");
  return 0;
}
