// E12 — the backbone properties underneath §5.2 (Garay et al. [9],
// Ren [21]): chain growth, chain quality and common prefix, measured on
// the append-memory chain protocol.
//
// The mechanism behind Theorems 5.3/5.4 becomes visible directly:
//  * the rushing adversary attacks CHAIN QUALITY — the Byzantine share of
//    the longest chain grows past its token share as λ·t grows;
//  * CHAIN GROWTH stays pinned near one useful block per Δ (only the
//    first correct append of an interval survives), so honest concurrency
//    shows up as wasted forks growing with λ(n−t);
//  * the honest COMMON PREFIX, by contrast, is robust — Δ-separated views
//    disagree on ~1-2 blocks at every rate; consistency damage requires
//    the Byzantine tie-breaking of E5/E6.
#include <iostream>
#include <span>

#include "chain/backbone.hpp"
#include "exp/harness.hpp"
#include "exp/montecarlo.hpp"
#include "protocols/chain_ba.hpp"
#include "sched/poisson.hpp"

using namespace amm;

namespace {

/// Drives an honest chain against the raw memory and measures the true
/// k-common-prefix statistic: how far the canonical chains of a live view
/// and a Δ-stale view diverge, sampled along the run.
double measure_common_prefix(u32 n, double lambda, u64 seed) {
  am::AppendMemory memory(n);
  sched::TokenAuthority authority(n, lambda, 1.0, Rng(seed));
  Rng tie_rng(seed + 1);
  double divergence_sum = 0.0;
  u32 samples = 0;
  for (int i = 0; i < 300; ++i) {
    const sched::Token token = authority.next();
    const chain::BlockGraph stale(memory.read_at(token.time - 1.0));
    am::MsgId tip{};
    const bool extend = stale.block_count() > 0;
    if (extend) tip = chain::choose_longest_tip(stale, chain::TieBreak::kRandomized, tie_rng);
    memory.append(token.holder, Vote::kPlus, 0, std::span<const am::MsgId>(&tip, extend ? 1 : 0),
                  token.time);
    if (i % 50 == 49) {
      const chain::BlockGraph live(memory.read());
      const chain::BlockGraph lagged(memory.read_at(token.time - 1.0));
      divergence_sum += chain::common_prefix_divergence(live, lagged);
      ++samples;
    }
  }
  return divergence_sum / samples;
}

}  // namespace

int main(int argc, char** argv) {
  exp::Harness h(argc, argv, "E12 — backbone properties of the chain (§5.2 mechanism)", 100);

  const u32 n = 20;
  const u32 k = 81;

  Table table({"lambda", "t", "lambda*(n-t)", "lambda*t", "growth/delta", "chain quality (byz)",
               "token share t/n", "prefix divergence"});
  for (const double lambda : {0.1, 0.25, 0.5, 1.0}) {
    for (const u32 t : {0u, 2u, 5u}) {
      proto::ChainParams params;
      params.scenario.n = n;
      params.scenario.t = t;
      params.k = k;
      params.lambda = lambda;
      params.adversary = proto::ChainAdversary::kRushExtend;

      const std::vector<proto::Outcome> outs = exp::run_trials(
          h.pool, h.seed ^ (static_cast<u64>(lambda * 1000) * 17 + t), h.trials,
          [&](usize, Rng& rng) { return proto::run_chain_slotted(params, rng); });
      double growth_sum = 0.0, quality_sum = 0.0, divergence_sum = 0.0;
      usize runs = 0;
      for (const proto::Outcome& out : outs) {
        if (!out.terminated) continue;
        // growth: chain length k over elapsed slots; quality: byz share of
        // the decided chain; divergence: how far two views separated by one
        // Δ of staleness disagree — approximated by the wasted (forked)
        // appends per depth unit.
        growth_sum += static_cast<double>(params.k) / static_cast<double>(out.rounds);
        quality_sum += static_cast<double>(out.byz_in_decision_set) /
                       static_cast<double>(out.decision_set_size);
        divergence_sum +=
            static_cast<double>(out.total_appends) / static_cast<double>(params.k) - 1.0;
        ++runs;
      }
      table.add_row({fmt(lambda, 2), std::to_string(t),
                     fmt(lambda * (n - t), 2), fmt(lambda * t, 2),
                     fmt(growth_sum / static_cast<double>(runs), 3),
                     fmt(quality_sum / static_cast<double>(runs), 3),
                     fmt(static_cast<double>(t) / n, 3),
                     fmt(divergence_sum / static_cast<double>(runs), 2)});
    }
  }
  h.emit(table,
         "growth saturates near min(1, lambda*(n-t)) useful blocks per slot; the\n"
         "Byzantine chain-quality share exceeds the token share once the rusher\n"
         "outruns the single useful correct append per slot; forked (wasted)\n"
         "appends per chain block grow with lambda*(n-t):");

  // Part 2: the k-common-prefix property directly — canonical chains of a
  // live view vs a Δ-stale view of the same honest memory.
  Table prefix({"lambda*n", "mean common-prefix divergence (blocks)"});
  for (const double lambda : {0.1, 0.25, 0.5, 1.0, 2.0}) {
    double sum = 0.0;
    const int reps = 20;
    for (u64 seed = 0; seed < reps; ++seed) {
      sum += measure_common_prefix(n, lambda, h.seed + seed);
    }
    prefix.add_row({fmt(lambda * n, 1), fmt(sum / reps, 2)});
  }
  h.emit(prefix,
         "Honest nodes only: two views separated by one Δ disagree on a short\n"
         "suffix (~1-2 blocks) REGARDLESS of the rate — chain depth only grows ~1\n"
         "useful block per Δ, so honest concurrency wastes appends (part 1) but\n"
         "barely moves the common prefix. Turning concurrency into consistency\n"
         "damage takes Byzantine tie-breaking — exactly E5/E6's attacks:");
  return 0;
}
