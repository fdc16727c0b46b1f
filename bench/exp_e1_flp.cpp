// E1 — Theorem 2.1: no t-resilient deterministic consensus in the
// asynchronous append memory.
//
// The checker explores the full computation graph of each candidate
// protocol for every initial input vector, classifies valencies and
// reports the failure mode Theorem 2.1 guarantees: a safety violation,
// a resilience violation, or an FLP witness (bivalent initial
// configuration + Lemma 2.3 extension everywhere → a fair schedule that
// never decides).
#include <iostream>

#include "check/explorer.hpp"
#include "exp/harness.hpp"

using namespace amm;

int main(int argc, char** argv) {
  u32 n = 3;
  exp::Harness h(argc, argv, "E1 — asynchronous impossibility (Theorem 2.1)", 1,
                 [&](OptionSet& opts) {
                   opts.add_u32("n", &n, "processes (the explorer's 2..8)", {2, 8});
                 });

  std::vector<std::unique_ptr<check::AsyncProtocol>> protocols;
  protocols.push_back(check::make_decide_own_input());
  protocols.push_back(check::make_min_author_race(n));
  protocols.push_back(check::make_wait_for_all(n));
  protocols.push_back(check::make_majority_race(n));
  protocols.push_back(check::make_two_phase_majority(n));

  Table table({"protocol", "n", "configs", "bivalent init", "lemma 2.3", "fair witness",
               "verdict"});
  for (const auto& p : protocols) {
    const check::ExploreResult res = check::explore(*p, n);
    std::string init = "-";
    if (res.bivalent_initial) {
      init = "yes (";
      for (const u8 b : *res.bivalent_initial) init += static_cast<char>('0' + b);
      init += ")";
    }
    std::string witness = "-";
    if (!res.witness_cycle.empty()) {
      witness = std::to_string(res.witness_prefix.size()) + "+(" +
                std::to_string(res.witness_cycle.size()) + ")* steps";
    } else if (!res.witness_prefix.empty()) {
      witness = ">= " + std::to_string(res.witness_prefix.size()) + " steps";
    }
    table.add_row({res.protocol, std::to_string(res.n), std::to_string(res.configs_explored),
                   init, res.lemma23_holds ? "holds" : "escape", witness, res.verdict()});
  }
  h.emit(table,
         "Every candidate fails consensus in at least one way — the executable\n"
         "content of Theorem 2.1. \"fair witness\" is an explicit never-deciding\n"
         "schedule: a step prefix followed by a repeating cycle of bivalent\n"
         "configurations in which every live node steps:");
  return 0;
}
