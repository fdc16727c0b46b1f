// E13 — Theorem 5.1 / §2, executable: randomized memory access does not
// circumvent asynchronous impossibility.
//
// The adversarial schedule is a partition: two groups of correct nodes,
// each seeing the other's appends only after staleness·Δ (the model allows
// unbounded read→append gaps — the scheduler creates the delay, no network
// is involved). Each group decides when ITS view first shows a chain of
// length k; the run continues to global length 2k.
//
// Under synchrony (staleness ≤ 1Δ) the groups agree and the decision is
// final. Under asynchrony the groups grow leapfrogging branches: their
// decisions split (agreement broken), the decided prefix gets replaced,
// and the final decision flips — with ZERO Byzantine nodes. That is
// Theorem 5.1's content: the token process cannot substitute for
// synchrony.
#include <iostream>

#include "exp/harness.hpp"
#include "exp/montecarlo.hpp"
#include "protocols/chain_ba.hpp"

using namespace amm;

int main(int argc, char** argv) {
  exp::Harness h(argc, argv, "E13 — asynchrony destroys agreement & finality (Theorem 5.1)",
                 200);

  const u32 n = 12;
  const u32 k = 41;

  Table table({"staleness x delta", "decision split [95% CI]", "flip rate",
               "mean replaced prefix (of k)"});
  for (const double staleness : {0.0, 1.0, 4.0, 16.0, 64.0}) {
    proto::ChainParams params;
    params.scenario.n = n;
    params.scenario.t = 0;  // no Byzantine nodes: pure asynchrony
    params.k = k;
    params.lambda = 0.5;
    // Knife-edge inputs by partition group: group A (even) votes +1,
    // group B (odd) votes -1 — the bivalent initial configurations of the
    // §2 impossibility argument.
    params.scenario.inputs.resize(n);
    for (u32 v = 0; v < n; ++v) params.scenario.inputs[v] = v % 2 ? Vote::kMinus : Vote::kPlus;

    const std::vector<proto::FinalityResult> results = exp::run_trials(
        h.pool, h.seed ^ static_cast<u64>(staleness * 10), h.trials,
        [&](usize, Rng& rng) { return proto::run_chain_finality(params, staleness, rng); });
    BernoulliEstimate est;
    double replaced_sum = 0.0;
    usize flips = 0, runs = 0;
    for (const proto::FinalityResult& res : results) {
      est.add(res.terminated && res.split);
      if (res.terminated) {
        replaced_sum += static_cast<double>(res.prefix_divergence);
        flips += res.flipped;
        ++runs;
      }
    }
    const auto [lo, hi] = est.wilson95();
    table.add_row({fmt(staleness, 1), fmt_ci(est.rate(), lo, hi),
                   runs > 0 ? fmt(static_cast<double>(flips) / static_cast<double>(runs), 3)
                            : "-",
                   runs > 0 ? fmt(replaced_sum / static_cast<double>(runs), 2) : "-"});
  }
  h.emit(table,
         "n=12, t=0, lambda=0.5, partition schedule, knife-edge inputs. Synchrony\n"
         "(staleness <= 1 delta) keeps groups agreeing and decisions final;\n"
         "asynchrony splits the groups' decisions and replaces the decided\n"
         "prefix — Theorem 5.1 in action:");
  return 0;
}
