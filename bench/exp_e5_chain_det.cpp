// E5 — Theorem 5.3: Algorithm 5 with deterministic tie-breaking cannot
// solve weak Byzantine agreement for t >= n/3.
//
// The fork-tie-break adversary forks beside every correct chain tip; with
// the worst-case deterministic rule all ties resolve toward the adversary,
// so ~β/(1-β) of the chain is Byzantine at token share β — crossing 1/2
// exactly at β = 1/3. Under the randomized rule the same attack only wins
// half its ties and stalls near 1/3 of the chain.
#include <iostream>

#include "exp/harness.hpp"
#include "exp/montecarlo.hpp"
#include "protocols/chain_ba.hpp"

using namespace amm;

namespace {

struct Row {
  double byz_frac_sum = 0.0;
  usize valid = 0;
};

Row measure(exp::Harness& h, u32 n, u32 t, bool adversarial_ties) {
  proto::ChainParams params;
  params.scenario.n = n;
  params.scenario.t = t;
  params.k = 61;
  params.lambda = 0.1;  // serialized regime: natural forks are negligible
  params.tie_break =
      adversarial_ties ? chain::TieBreak::kDeterministicFirst : chain::TieBreak::kRandomized;
  params.adversarial_ties = adversarial_ties;
  params.adversary = proto::ChainAdversary::kForkTieBreak;

  const std::vector<proto::Outcome> outs = exp::run_trials(
      h.pool, h.seed ^ (n * 100 + t + (adversarial_ties ? 7 : 0)), h.trials,
      [&](usize, Rng& rng) { return proto::run_chain_slotted(params, rng); });
  Row row;
  for (const proto::Outcome& out : outs) {
    row.byz_frac_sum += out.terminated ? static_cast<double>(out.byz_in_decision_set) /
                                             static_cast<double>(out.decision_set_size)
                                       : 0.0;
    row.valid += out.terminated && out.validity(params.scenario);
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  exp::Harness h(argc, argv, "E5 — chain with deterministic tie-breaking (Theorem 5.3)", 300);

  Table table({"n", "t", "t/n", "tie rule", "byz chain frac", "pred frac", "validity rate"});
  const u32 n = 24;
  for (const u32 t : {3u, 5u, 7u, 8u, 9u, 11u}) {
    const double beta = static_cast<double>(t) / n;
    for (const bool adversarial : {true, false}) {
      const Row row = measure(h, n, t, adversarial);
      const auto runs = static_cast<double>(h.trials);
      const double frac = row.byz_frac_sum / runs;
      // First-order predictions: with worst-case deterministic ties every
      // Byzantine fork both enters the chain and orphans a correct block →
      // share β/(1-β) (hits 1/2 at β = 1/3, Theorem 5.3). With randomized
      // ties only every second fork wins → share β/(2(1-β)).
      const double pred = adversarial ? beta / (1.0 - beta) : beta / (2.0 * (1.0 - beta));
      table.add_row({std::to_string(n), std::to_string(t), fmt(beta, 3),
                     adversarial ? "deterministic (worst-case)" : "randomized",
                     fmt(frac, 3), fmt(std::min(pred, 1.0), 3),
                     fmt(static_cast<double>(row.valid) / runs, 3)});
    }
  }
  h.emit(table,
         "Paper: with deterministic ties the Byzantine chain share reaches 1/2 at\n"
         "t/n = 1/3 (validity dies there); randomized ties keep the share near 1/3\n"
         "at the same token share:");
  return 0;
}
