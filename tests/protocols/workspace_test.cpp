// Trial workspaces: every §5 entry point (run_chain_slotted,
// run_chain_continuous, run_chain_finality, run_dag_continuous) runs out of
// a per-thread workspace that it resets at trial start. A trial must see
// nothing of the thread's earlier trials: its result equals the same trial
// run first on a fresh thread, whatever ran on the thread before it, at
// any node count. GoldenDigest.* cannot see state that survives a reset,
// because it runs one configuration per process.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "protocols/chain_ba.hpp"
#include "protocols/dag_ba.hpp"

namespace amm::proto {
namespace {

using Words = std::vector<u64>;

u64 bits(SimTime t) {
  u64 out = 0;
  static_assert(sizeof(out) == sizeof(t));
  std::memcpy(&out, &t, sizeof(out));
  return out;
}

u64 vote_word(std::optional<Vote> v) {
  return v ? static_cast<u64>(static_cast<i64>(vote_value(*v))) : u64{0xff};
}

/// Every field of an Outcome, as words.
void put(Words& w, const Outcome& out) {
  w.push_back(out.terminated ? 1 : 0);
  w.push_back(out.decisions.size());
  for (const auto& d : out.decisions) w.push_back(vote_word(d));
  w.push_back(bits(out.elapsed));
  w.push_back(out.total_appends);
  w.push_back(out.rounds);
  w.push_back(out.byz_in_decision_set);
  w.push_back(out.decision_set_size);
}

struct Trial {
  std::string name;
  std::function<Words()> run;
};

Scenario scenario(u32 n, u32 t) {
  Scenario s;
  s.n = n;
  s.t = t;
  s.correct_input = Vote::kPlus;
  return s;
}

ChainParams chain_params(u32 n, u32 t, u32 k, double lambda, ChainAdversary adversary) {
  ChainParams p;
  p.scenario = scenario(n, t);
  p.k = k;
  p.lambda = lambda;
  p.adversary = adversary;
  return p;
}

DagParams dag_params(u32 n, u32 t, u32 k, double lambda, DagAdversary adversary) {
  DagParams p;
  p.scenario = scenario(n, t);
  p.k = k;
  p.lambda = lambda;
  p.adversary = adversary;
  return p;
}

/// Every trial kind, at the benchmark configuration (n = 64, t = 16,
/// k = 201, λ = 1) and at n = 7, t = 2, two seeds each.
std::vector<Trial> all_trials() {
  std::vector<Trial> trials;
  const auto add_chain = [&](const std::string& name, const ChainParams& p, bool slotted) {
    for (const u64 seed : {3u, 11u}) {
      trials.push_back({name + "/" + std::to_string(seed), [p, slotted, seed] {
                          Words w;
                          put(w, slotted ? run_chain_slotted(p, Rng(seed))
                                         : run_chain_continuous(p, Rng(seed)));
                          return w;
                        }});
    }
  };
  const auto add_dag = [&](const std::string& name, const DagParams& p) {
    for (const u64 seed : {3u, 11u}) {
      trials.push_back({name + "/" + std::to_string(seed), [p, seed] {
                          const DagResult res = run_dag_continuous(p, Rng(seed));
                          Words w;
                          put(w, res.outcome);
                          w.push_back(res.dumped);
                          w.push_back(res.omniscient_bound);
                          w.push_back(bits(res.final_gap));
                          return w;
                        }});
    }
  };

  add_chain("chain_slotted_bench", chain_params(64, 16, 201, 1.0, ChainAdversary::kRushExtend),
            true);
  add_chain("chain_continuous_bench",
            chain_params(64, 16, 201, 1.0, ChainAdversary::kRushExtend), false);
  ChainParams fork = chain_params(7, 2, 15, 0.5, ChainAdversary::kForkTieBreak);
  fork.tie_break = chain::TieBreak::kDeterministicFirst;
  fork.adversarial_ties = true;
  add_chain("chain_slotted_small_fork", fork, true);
  add_chain("chain_continuous_small",
            chain_params(7, 2, 15, 0.5, ChainAdversary::kHonestOpposite), false);
  for (const u64 seed : {3u, 11u}) {
    trials.push_back({"chain_finality_small/" + std::to_string(seed), [seed] {
                        const ChainParams p =
                            chain_params(7, 0, 15, 1.0, ChainAdversary::kHonestOpposite);
                        const FinalityResult r = run_chain_finality(p, 3.0, Rng(seed));
                        return Words{r.terminated ? 1u : 0u,
                                     vote_word(r.decision_a),
                                     vote_word(r.decision_b),
                                     vote_word(r.decision_final),
                                     r.split ? 1u : 0u,
                                     r.flipped ? 1u : 0u,
                                     r.prefix_divergence};
                      }});
  }

  for (const u32 n : {64u, 7u}) {
    const u32 t = n == 64 ? 16 : 2;
    const u32 k = n == 64 ? 201 : 15;
    const std::string at = n == 64 ? "_bench" : "_small";
    DagParams rate = dag_params(n, t, k, 1.0, DagAdversary::kRateAndWithhold);
    add_dag("dag_fast" + at, rate);
    DagParams ghost = rate;
    ghost.full_ordering = true;
    add_dag("dag_full_ghost" + at, ghost);
    DagParams longest = ghost;
    longest.pivot_rule = chain::PivotRule::kLongestChain;
    add_dag("dag_full_longest" + at, longest);
    DagParams async = ghost;
    async.adversary = DagAdversary::kWithholdOnly;
    async.async_delay = 2.0;
    add_dag("dag_async_full" + at, async);
    DagParams async_fast = rate;
    async_fast.async_delay = 1.5;
    async_fast.async_window = k / 2;
    add_dag("dag_async_fast" + at, async_fast);
  }
  return trials;
}

TEST(TrialWorkspace, InterleavedTrialsMatchFreshThreads) {
  const std::vector<Trial> trials = all_trials();

  // Reference: each trial alone on a fresh thread, so on a fresh workspace.
  std::vector<Words> fresh(trials.size());
  for (usize i = 0; i < trials.size(); ++i) {
    std::thread([&, i] { fresh[i] = trials[i].run(); }).join();
  }

  // One thread runs every trial three times over: forwards, backwards and
  // forwards again, so each kind follows other kinds and other node counts.
  std::vector<usize> sequence;
  for (usize i = 0; i < trials.size(); ++i) sequence.push_back(i);
  for (usize i = trials.size(); i-- > 0;) sequence.push_back(i);
  for (usize i = 0; i < trials.size(); ++i) sequence.push_back(i);
  std::vector<Words> reused(sequence.size());
  std::thread([&] {
    for (usize j = 0; j < sequence.size(); ++j) reused[j] = trials[sequence[j]].run();
  }).join();

  for (usize j = 0; j < sequence.size(); ++j) {
    const usize i = sequence[j];
    EXPECT_EQ(reused[j], fresh[i]) << trials[i].name << " as run " << j << " of the thread";
  }
}

}  // namespace
}  // namespace amm::proto
