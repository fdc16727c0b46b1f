// Adversary lab: plug a *custom* Byzantine strategy into the synchronous
// runner and watch what it takes to break Algorithm 1.
//
// Demonstrates the public adversary API (proto::SyncAdversary): implement
// one virtual method choosing (value, reference set, visibility subset)
// per round, then race it against the protocol at several round budgets.
//
//   ./examples/adversary_lab [--n 7] [--t 3]
#include <iostream>

#include "adversary/sync_strategies.hpp"
#include "exp/harness.hpp"
#include "protocols/sync_ba.hpp"

using namespace amm;

namespace {

/// A hand-rolled strategy: stay silent until the penultimate round, then
/// stack a private chain over the last two rounds with shrinking
/// visibility — a two-round version of the lower-bound staircase.
class TwoRoundStaircase final : public proto::SyncAdversary {
 public:
  std::optional<proto::SyncAppend> on_round(u32 round, NodeId byz,
                                            const proto::SyncContext& ctx) override {
    const proto::Scenario& s = *ctx.scenario;
    const u32 rank = byz.index - s.correct_count();
    if (round + 1 < ctx.total_rounds) return std::nullopt;

    proto::SyncAppend app;
    app.value = Vote::kMinus;
    app.visible_to.assign(s.n, false);
    for (u32 v = s.correct_count(); v < s.n; ++v) app.visible_to[v] = true;

    if (round + 1 == ctx.total_rounds) {
      // Penultimate round: half the Byzantine nodes lay a hidden chain.
      if (rank % 2 != 0) return std::nullopt;
      if (rank >= 2) app.refs.push_back(static_cast<u32>(ctx.msgs->size()) - 1);
      return app;
    }
    // Final round: the other half extends it, visible to one correct node.
    if (rank % 2 != 1) return std::nullopt;
    app.refs.push_back(static_cast<u32>(ctx.msgs->size()) - 1);
    app.visible_to[0] = true;
    return app;
  }
};

void race(const char* name, proto::SyncAdversary& adversary, u32 n, u32 t, Table& table) {
  for (u32 rounds = 1; rounds <= t + 1; ++rounds) {
    proto::SyncParams params;
    params.scenario.n = n;
    params.scenario.t = t;
    params.rounds_override = rounds;
    // Knife-edge inputs: half plus, half minus.
    params.scenario.inputs.resize(n - t);
    for (u32 v = 0; v < n - t; ++v) {
      params.scenario.inputs[v] = v % 2 == 0 ? Vote::kPlus : Vote::kMinus;
    }
    const proto::Outcome out = proto::run_sync_ba(params, adversary);
    table.add_row({name, std::to_string(rounds), std::to_string(t + 1),
                   out.agreement() ? "agreement" : "SPLIT!"});
  }
}

}  // namespace

int main(int argc, char** argv) {
  u32 n = 7;
  u32 t = 3;
  exp::Harness h(argc, argv, "example: adversary lab", 1, [&](OptionSet& opts) {
    opts.add_u32("n", &n, "nodes");
    opts.add_u32("t", &t, "Byzantine nodes, t < n");
    opts.require([&] { return t < n; }, "need --t < --n");
  });

  Table table({"adversary", "rounds run", "rounds needed (t+1)", "outcome"});
  adv::LastRoundSplitSync staircase(Vote::kMinus, (n - t) / 2);
  race("last-round-split (library)", staircase, n, t, table);
  TwoRoundStaircase custom;
  race("two-round-staircase (custom)", custom, n, t, table);
  adv::OppositeVoterSync polite(Vote::kMinus);
  race("opposite-voter (compliant)", polite, n, t, table);
  h.emit(table);

  std::cout << "Running fewer than t+1 rounds lets visibility-delay attacks split the\n"
            << "correct nodes; at t+1 rounds every strategy above is neutralized\n"
            << "(Lemma 3.1 / Theorem 3.2).\n";
  return 0;
}
