// Attack forensics: run a chain under the rushing adversary, then take the
// resulting append memory apart with the library's analysis tooling —
// backbone metrics, a Graphviz dump of the fork structure, and a replayable
// trace of the full execution.
//
//   ./examples/attack_forensics [--n 12] [--t 3] [--lambda 0.5] [--k 21]
//   dot -Tsvg attack.dot -o attack.svg     # render the fork structure
#include <cmath>
#include <fstream>
#include <iostream>

#include "am/trace.hpp"
#include "chain/backbone.hpp"
#include "chain/dot.hpp"
#include "exp/harness.hpp"
#include "protocols/chain_ba.hpp"
#include "sched/poisson.hpp"

using namespace amm;

int main(int argc, char** argv) {
  u32 n = 12;
  u32 t = 3;
  u32 k = 21;
  double lambda = 0.5;
  exp::Harness h(argc, argv, "example: attack forensics", 1, [&](OptionSet& opts) {
    opts.add_u32("n", &n, "nodes");
    opts.add_u32("t", &t, "Byzantine nodes, t < n");
    opts.add_u32("k", &k, "decided chain depth, odd");
    opts.add_double("lambda", &lambda, "access rate per node per Delta, > 0");
    opts.require([&] { return t < n; }, "need --t < --n");
    opts.require([&] { return k % 2 == 1; }, "need an odd --k");
    opts.require([&] { return lambda > 0.0 && std::isfinite(lambda); }, "need --lambda > 0");
  });

  // Re-run the attack, but this time keep the memory: the slotted runner
  // is a black box, so we reconstruct an equivalent small history through
  // the continuous runner's own substrate — here we simply simulate a
  // fresh execution against the real AppendMemory via the public API.
  proto::ChainParams params;
  params.scenario.n = n;
  params.scenario.t = t;
  params.k = k;
  params.lambda = lambda;
  params.adversary = proto::ChainAdversary::kRushExtend;

  // Drive one run manually so we own the memory: tokens from the public
  // authority, honest nodes on stale views, the rusher on the live view.
  am::AppendMemory memory(n);
  sched::TokenAuthority authority(n, lambda, 1.0, Rng(h.seed));
  Rng tie_rng(h.seed + 1);
  const auto is_byz = [&](NodeId id) { return id.index >= n - t; };

  while (true) {
    const sched::Token token = authority.next();
    const bool byz = is_byz(token.holder);
    // Byzantine: live view; correct: view stale by Δ=1.
    const am::MemoryView view = byz ? memory.read() : memory.read_at(token.time - 1.0);
    const chain::BlockGraph graph(view);
    std::vector<am::MsgId> refs;
    if (graph.block_count() > 0) {
      refs.push_back(chain::choose_longest_tip(graph, chain::TieBreak::kRandomized, tie_rng));
    }
    memory.append(token.holder, byz ? Vote::kMinus : Vote::kPlus, 0, std::move(refs),
                  token.time);
    const chain::BlockGraph now(memory.read());
    if (now.max_depth() >= k) break;
  }

  const chain::BlockGraph graph(memory.read());
  std::cout << "execution: " << memory.total_appends() << " appends, longest chain "
            << graph.max_depth() << " (target k=" << k << ")\n\n";

  // 1. Backbone metrics.
  const auto tip = graph.deepest_blocks().front();
  std::cout << "chain quality (byz share of decided chain): "
            << fmt(chain::chain_quality(graph, tip, k, is_byz), 3) << "  (token share "
            << fmt(static_cast<double>(t) / n, 3) << ")\n";
  std::cout << "wasted forked appends: " << memory.total_appends() - graph.max_depth() << "\n\n";

  // 2. Graphviz dump.
  chain::DotOptions dot_options;
  dot_options.is_adversarial = is_byz;
  std::ofstream dot_file("attack.dot");
  chain::write_dot(dot_file, graph, dot_options);
  std::cout << "wrote attack.dot (" << graph.block_count()
            << " blocks; red = Byzantine, bold = pivot)\n";

  // 3. Replayable trace.
  const am::Trace trace = am::capture(memory);
  std::ofstream trace_file("attack.trace");
  am::write_trace(trace_file, trace);
  const am::AppendMemory replayed = am::replay(trace);
  std::cout << "wrote attack.trace (" << trace.entries.size()
            << " entries; replay matches: " << std::boolalpha
            << (am::capture(replayed) == trace) << ")\n";
  return 0;
}
