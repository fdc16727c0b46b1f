// Model-checking walkthrough: bring your own consensus protocol and let
// the §2 checker tell you how Theorem 2.1 kills it.
//
// Implements a custom candidate ("optimistic-then-follow") against the
// check::AsyncProtocol interface, explores its full computation graph, and
// prints the verdict alongside the library's built-in candidates — then
// runs the synchronous-model analyses (round lower bound + valency) for a
// small Byzantine system.
//
//   ./examples/model_checking [--n 3]
#include <iostream>

#include "check/explorer.hpp"
#include "check/round_lb.hpp"
#include "check/sync_valency.hpp"
#include "exp/harness.hpp"

using namespace amm;

namespace {

/// A plausible-looking custom candidate: publish the input; if the first
/// n-1 visible values are unanimous, decide them; otherwise follow the
/// lowest-index register ("leader") once visible.
class OptimisticThenFollow final : public check::AsyncProtocol {
 public:
  explicit OptimisticThenFollow(u32 n) : n_(n) {}
  std::string name() const override { return "optimistic-then-follow"; }

  check::Action next(u32, u8 input, u32 own_appends,
                     const check::VisibleMemory& visible) const override {
    if (own_appends == 0) return check::Action::append(input);
    u32 seen = 0;
    bool unanimous = true;
    u8 first = 2;
    for (const auto& reg : visible) {
      if (reg.empty()) continue;
      ++seen;
      if (first == 2) first = reg.front();
      unanimous &= (reg.front() == first);
    }
    if (seen < n_ - 1) return check::Action::read();
    if (unanimous) return check::Action::decide(first);
    // Fall back to the leader's value (register 0) once it is visible.
    if (!visible[0].empty()) return check::Action::decide(visible[0].front());
    return check::Action::read();
  }

 private:
  u32 n_;
};

}  // namespace

int main(int argc, char** argv) {
  u32 n = 3;
  exp::Harness h(argc, argv, "example: model checking your own protocol", 1,
                 [&](OptionSet& opts) {
                   opts.add_u32("n", &n, "processes (the explorer's 2..8)", {2, 8});
                 });

  std::cout << "-- Part 1: asynchronous impossibility (Theorem 2.1) --\n";
  OptimisticThenFollow custom(n);
  const check::ExploreResult res = check::explore(custom, n);
  std::cout << "protocol:   " << res.protocol << "\n"
            << "configs:    " << res.configs_explored << "\n"
            << "bivalent:   " << (res.bivalent_initial ? "yes" : "no") << "\n"
            << "verdict:    " << res.verdict() << "\n\n"
            << "However clever the fallback, the checker always finds one of the\n"
            << "theorem's three failure modes. Try editing OptimisticThenFollow!\n\n";

  std::cout << "-- Part 2: the t+1 round bound (Lemma 3.1), n=4, t=1 --\n";
  for (u32 rounds = 1; rounds <= 2; ++rounds) {
    const check::RoundLbResult lb = check::search_round_lb(4, 1, rounds);
    std::cout << "rounds=" << rounds << ": " << lb.executions << " executions, disagreement "
              << (lb.disagreement ? "FOUND" : "impossible (complete search)") << "\n";
  }

  std::cout << "\n-- Part 3: valency of the adversary's strategy tree --\n";
  const auto val =
      check::analyze_sync_valency(4, 1, 2, {Vote::kPlus, Vote::kMinus, Vote::kMinus});
  for (const auto& rv : val.per_round) {
    std::cout << "end of round " << rv.round << ": " << rv.configurations << " configs, "
              << rv.bivalent << " bivalent, disagreement reachable: "
              << (rv.disagreement_reachable ? "yes" : "no") << "\n";
  }
  std::cout << "\nSee docs/MODEL.md for the full paper-to-API mapping.\n";
  return 0;
}
