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

namespace {

/// Work arrays of the pivot walk and the linearization, one set per thread
/// and reused across calls, so a thread that linearizes one graph per
/// trial (dag_ba's full-ordering decide) allocates only the result.
struct Scratch {
  std::vector<u32> reach;  // longest-chain rule: deepest depth in subtree
  std::vector<u32> epoch;  // by position
  std::vector<u32> start;  // counting-sort offsets, by epoch
};

Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

/// Walks from the root choosing children by `rule` and calls visit(block)
/// for each pivot block, oldest first. Ties go to the earliest-appended
/// child (both cited rules are deterministic given the view).
template <typename Visit>
void walk_pivot(const BlockGraph& graph, PivotRule rule, Visit&& visit) {
  // For the longest-chain rule we need, per block, the height of the
  // deepest descendant. Compute it once, bottom-up: in reverse topological
  // order every child comes before its parent (parent edges are reference
  // edges), so each block's reach is final when it is pushed to its
  // parent, the first of its references. GHOST reads subtree weights only.
  std::vector<u32>& reach = scratch().reach;
  if (rule == PivotRule::kLongestChain) {
    reach.assign(graph.block_count(), 0);
    const std::span<const u32> topo = graph.topo_positions();
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
      const u32 deepest = reach[*it] = std::max(reach[*it], graph.depth(graph.id_at(*it)));
      const std::span<const u32> refs = graph.ref_positions(*it);
      if (!refs.empty()) reach[refs.front()] = std::max(reach[refs.front()], deepest);
    }
  }
  const auto score = [&](MsgId c) {
    return rule == PivotRule::kGhost ? graph.subtree_weight(c) : reach[graph.index_of(c)];
  };
  for (std::span<const MsgId> frontier = graph.root_children(); !frontier.empty();) {
    MsgId best = frontier.front();
    u32 best_score = score(best);
    for (const MsgId c : frontier.subspan(1)) {
      const u32 s = score(c);
      if (s > best_score) {
        best = c;
        best_score = s;
      }
    }
    visit(best);
    frontier = graph.children(best);
  }
}

}  // namespace

std::vector<MsgId> select_pivot(const BlockGraph& graph, PivotRule rule) {
  std::vector<MsgId> pivot;
  pivot.reserve(graph.max_depth());
  walk_pivot(graph, rule, [&](MsgId id) { pivot.push_back(id); });
  return pivot;
}

std::vector<MsgId> linearize_dag(const BlockGraph& graph, PivotRule rule) {
  // Block p is emitted in the epoch of the first pivot block whose
  // reference closure holds it. The closure of pivot block i holds p iff p
  // is that block or one of p's referrers lies in it, so p's epoch is the
  // smaller of its own pivot index and its referrers' epochs: one pass in
  // reverse topological order, where every referrer comes first, settles
  // them all. Blocks no pivot block reaches keep the epoch after the last.
  Scratch& s = scratch();
  s.epoch.assign(graph.block_count(), ~u32{0});
  u32 pivots = 0;
  walk_pivot(graph, rule, [&](MsgId id) { s.epoch[graph.index_of(id)] = pivots++; });
  const std::span<const u32> topo = graph.topo_positions();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const u32 epoch = s.epoch[*it] = std::min(s.epoch[*it], pivots);
    for (const u32 ref : graph.ref_positions(*it)) s.epoch[ref] = std::min(s.epoch[ref], epoch);
  }

  // Each epoch in topological order: a stable counting sort of the topo
  // order by epoch. A pivot block reaches its whole epoch through
  // references, so it comes last in it; the unreached blocks come after
  // every epoch.
  s.start.assign(pivots + 2, 0);
  for (const u32 p : topo) ++s.start[s.epoch[p] + 1];
  for (usize e = 1; e < s.start.size(); ++e) s.start[e] += s.start[e - 1];
  std::vector<MsgId> order(graph.block_count());
  for (const u32 p : topo) order[s.start[s.epoch[p]]++] = graph.id_at(p);
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
