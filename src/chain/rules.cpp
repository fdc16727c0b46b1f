#include "chain/rules.hpp"

#include <algorithm>

namespace amm::chain {

MsgId choose_longest_tip(const BlockGraph& graph, TieBreak rule, Rng& rng) {
  const auto& deepest = graph.deepest_blocks();
  AMM_EXPECTS(!deepest.empty());
  switch (rule) {
    case TieBreak::kDeterministicFirst:
      return deepest.front();
    case TieBreak::kRandomized:
      return deepest[rng.uniform_below(deepest.size())];
  }
  AMM_ASSERT(false);
  return kRootId;
}

std::vector<MsgId> select_pivot(const BlockGraph& graph, PivotRule rule) {
  std::vector<MsgId> pivot;
  if (graph.block_count() == 0) return pivot;

  // For the longest-chain rule we need, per block, the height of the
  // deepest descendant. Compute it once, bottom-up by descending depth.
  // MsgId is a perfect index into the graph's dense positions, so this is
  // a flat array rather than a hash map. GHOST reads subtree weights only.
  std::vector<u32> max_reach;  // deepest depth reachable in subtree
  if (rule == PivotRule::kLongestChain) {
    max_reach.resize(graph.block_count());
    const std::vector<MsgId>& order = graph.topo_order();
    // Process leaves first: reverse topological order works because parent
    // edges are a subset of reference edges.
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      u32 reach = graph.depth(*it);
      for (const MsgId c : graph.children(*it)) {
        reach = std::max(reach, max_reach[graph.index_of(c)]);
      }
      max_reach[graph.index_of(*it)] = reach;
    }
  }

  auto pick = [&](std::span<const MsgId> children) -> MsgId {
    AMM_EXPECTS(!children.empty());
    MsgId best = children.front();
    for (const MsgId c : children.subspan(1)) {
      const bool better =
          rule == PivotRule::kGhost
              ? graph.subtree_weight(c) > graph.subtree_weight(best)
              : max_reach[graph.index_of(c)] > max_reach[graph.index_of(best)];
      if (better) best = c;
    }
    return best;
  };

  std::span<const MsgId> frontier = graph.root_children();
  while (!frontier.empty()) {
    const MsgId next = pick(frontier);
    pivot.push_back(next);
    frontier = graph.children(next);
  }
  return pivot;
}

std::vector<MsgId> linearize_dag(const BlockGraph& graph, PivotRule rule) {
  const std::vector<MsgId> pivot = select_pivot(graph, rule);

  // Epoch assignment: a non-pivot block belongs to the epoch of the first
  // pivot block that (transitively) references it. Walking the global topo
  // order once per pivot step would be quadratic; instead assign epochs by
  // a reverse scan: process pivot blocks in order, collecting not-yet-
  // emitted ancestors via DFS over reference edges. All bookkeeping is by
  // dense position — no hashing on the hot path.
  std::vector<u8> emitted(graph.block_count(), 0);
  std::vector<MsgId> order;
  order.reserve(graph.block_count());

  // Position in the global deterministic topo order, for stable epoch-
  // internal ordering.
  const std::vector<MsgId>& topo = graph.topo_order();
  std::vector<usize> topo_pos(graph.block_count());
  for (usize i = 0; i < topo.size(); ++i) topo_pos[graph.index_of(topo[i])] = i;

  std::vector<MsgId> stack;
  std::vector<usize> epoch;  // topo positions of the epoch's blocks
  for (const MsgId p : pivot) {
    epoch.clear();
    stack.push_back(p);
    while (!stack.empty()) {
      const MsgId cur = stack.back();
      stack.pop_back();
      const usize at = graph.index_of(cur);
      if (emitted[at] != 0) continue;
      emitted[at] = 1;
      epoch.push_back(topo_pos[at]);
      for (const MsgId ref : graph.refs(cur)) {
        if (emitted[graph.index_of(ref)] == 0) stack.push_back(ref);
      }
    }
    std::sort(epoch.begin(), epoch.end());
    for (const usize i : epoch) order.push_back(topo[i]);
  }
  // Blocks unreachable from the pivot (withheld side branches nobody
  // referenced) are appended last in topo order, so the output is total.
  for (const MsgId id : topo) {
    if (emitted[graph.index_of(id)] == 0) order.push_back(id);
  }
  AMM_ENSURES(order.size() == graph.block_count());
  return order;
}

std::vector<MsgId> first_k_of_chain(const BlockGraph& graph, MsgId tip, usize k) {
  std::vector<MsgId> chain = graph.chain_to(tip);
  if (chain.size() > k) chain.resize(k);
  return chain;
}

i64 vote_sum(const BlockGraph& graph, const std::vector<MsgId>& ids) {
  i64 sum = 0;
  for (const MsgId id : ids) sum += vote_value(graph.msg(id).value);
  return sum;
}

}  // namespace amm::chain
