// Property: extending a BlockGraph along any growing sequence of views is
// bit-identical to building the graph from scratch at every step — the
// contract chain/dag protocols rely on when they carry one graph across
// rounds instead of rebuilding it (ROADMAP: incremental hot paths).
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <vector>

#include "chain/block_graph.hpp"
#include "chain/rules.hpp"
#include "support/rng.hpp"

namespace amm::chain {
namespace {

using am::AppendMemory;
using am::MemoryView;

/// Asserts every observable of `inc` (incrementally extended) equals the
/// same observable of `ref` (built from scratch on the same view).
void expect_identical(const BlockGraph& inc, const BlockGraph& ref) {
  ASSERT_EQ(inc.block_count(), ref.block_count());
  EXPECT_EQ(inc.max_depth(), ref.max_depth());
  EXPECT_EQ(inc.deepest_blocks(), ref.deepest_blocks());
  ASSERT_EQ(inc.root_children().size(), ref.root_children().size());
  for (usize i = 0; i < ref.root_children().size(); ++i) {
    EXPECT_EQ(inc.root_children()[i], ref.root_children()[i]);
  }
  EXPECT_EQ(inc.tips(), ref.tips());
  EXPECT_EQ(inc.topo_order(), ref.topo_order());
  for (const MsgId id : ref.topo_order()) {
    ASSERT_TRUE(inc.contains(id));
    EXPECT_EQ(inc.parent(id), ref.parent(id)) << "parent of (" << id.author << "," << id.seq
                                              << ")";
    EXPECT_EQ(inc.depth(id), ref.depth(id));
    EXPECT_EQ(inc.subtree_weight(id), ref.subtree_weight(id));
    ASSERT_EQ(inc.refs(id).size(), ref.refs(id).size());
    for (usize r = 0; r < ref.refs(id).size(); ++r) {
      EXPECT_EQ(inc.refs(id)[r], ref.refs(id)[r]);
    }
    ASSERT_EQ(inc.children(id).size(), ref.children(id).size());
    for (usize c = 0; c < ref.children(id).size(); ++c) {
      EXPECT_EQ(inc.children(id)[c], ref.children(id)[c]);
    }
  }
  // Decision-rule outputs — the quantities the protocols actually consume.
  for (const PivotRule rule : {PivotRule::kGhost, PivotRule::kLongestChain}) {
    EXPECT_EQ(select_pivot(inc, rule), select_pivot(ref, rule));
    EXPECT_EQ(linearize_dag(inc, rule), linearize_dag(ref, rule));
  }
}

/// A random DAG-ish trace: each append references up to 3 random earlier
/// messages (possibly none — a new root child; possibly cross-register).
std::vector<MsgId> random_trace(AppendMemory& memory, u32 n, usize appends, Rng& rng) {
  std::vector<MsgId> ids;
  SimTime now = 0.0;
  for (usize i = 0; i < appends; ++i) {
    now += 0.25 * static_cast<double>(1 + rng.uniform_below(4));
    std::vector<MsgId> refs;
    if (!ids.empty()) {
      const usize want = rng.uniform_below(4);  // 0..3 refs
      for (usize r = 0; r < want; ++r) {
        const MsgId cand = ids[rng.uniform_below(ids.size())];
        if (std::find(refs.begin(), refs.end(), cand) == refs.end()) refs.push_back(cand);
      }
    }
    const auto author = NodeId{static_cast<u32>(rng.uniform_below(n))};
    const Vote vote = rng.bernoulli(0.5) ? Vote::kPlus : Vote::kMinus;
    ids.push_back(memory.append(author, vote, /*payload=*/0, std::move(refs), now));
  }
  return ids;
}

/// Random register-wise growing lens sequence from all-zero to `full`.
/// Independent per-register increments produce views that are NOT
/// reference-closed — a register may reveal a message whose refs in other
/// registers are still hidden, exercising the pending/reparenting path.
std::vector<std::vector<u32>> growing_lens_sequence(const std::vector<u32>& full, usize steps,
                                                    Rng& rng) {
  std::vector<std::vector<u32>> seq;
  std::vector<u32> cur(full.size(), 0);
  for (usize s = 0; s + 1 < steps; ++s) {
    for (usize r = 0; r < full.size(); ++r) {
      if (cur[r] >= full[r]) continue;
      const u32 room = full[r] - cur[r];
      // Bias toward small forward jumps; sometimes stall a register so it
      // has to catch up later (the late-reveal case).
      if (rng.bernoulli(0.3)) continue;
      cur[r] += 1 + static_cast<u32>(rng.uniform_below(std::min<u32>(room, 3)));
      cur[r] = std::min(cur[r], full[r]);
    }
    seq.push_back(cur);
  }
  seq.push_back(full);  // always end at the complete view
  return seq;
}

TEST(BlockGraphExtend, MatchesFromScratchOnRandomGrowingViews) {
  Rng seed_rng(20200715);
  for (int trial = 0; trial < 20; ++trial) {
    Rng rng = Rng::for_stream(seed_rng.next(), static_cast<u64>(trial));
    const u32 n = 2 + static_cast<u32>(rng.uniform_below(6));
    AppendMemory memory(n);
    random_trace(memory, n, 40 + rng.uniform_below(80), rng);

    const std::vector<u32> full = memory.read().lens();
    const auto seq = growing_lens_sequence(full, 6 + rng.uniform_below(8), rng);

    BlockGraph inc;
    for (const std::vector<u32>& lens : seq) {
      const MemoryView view(&memory, lens);
      inc.extend(view);
      const BlockGraph ref(view);
      expect_identical(inc, ref);
      if (::testing::Test::HasFailure()) return;  // don't spam on first divergence
    }
  }
}

/// Kahn's algorithm written directly over the view, with no BlockGraph
/// internals: a block's in-degree is its number of visible references, and
/// ready blocks are served first in, first out, seeded and fanned out in
/// canonical (appended_at, id) order.
std::vector<MsgId> reference_kahn(const MemoryView& view) {
  std::vector<MsgId> ids;
  view.for_each([&](const am::Message& m) { ids.push_back(m.id); });
  std::sort(ids.begin(), ids.end(), [&](MsgId a, MsgId b) {
    const SimTime ta = view.msg(a).appended_at;
    const SimTime tb = view.msg(b).appended_at;
    return ta != tb ? ta < tb : a < b;
  });
  std::map<MsgId, u32> in_degree;
  std::map<MsgId, std::vector<MsgId>> referrers;
  for (const MsgId id : ids) {
    u32 degree = 0;
    for (const MsgId ref : view.msg(id).refs) {
      if (!view.contains(ref)) continue;
      ++degree;
      referrers[ref].push_back(id);
    }
    in_degree[id] = degree;
  }
  std::deque<MsgId> ready;
  for (const MsgId id : ids) {
    if (in_degree[id] == 0) ready.push_back(id);
  }
  std::vector<MsgId> order;
  while (!ready.empty()) {
    const MsgId id = ready.front();
    ready.pop_front();
    order.push_back(id);
    for (const MsgId r : referrers[id]) {
      if (--in_degree[r] == 0) ready.push_back(r);
    }
  }
  return order;
}

// The RandomDag.* properties accept any topologically sound order; this
// pins the exact tie order on growing views, late reveals included.
TEST(BlockGraph, TopoOrderMatchesReferenceKahn) {
  Rng seed_rng(20200716);
  for (int trial = 0; trial < 20; ++trial) {
    Rng rng = Rng::for_stream(seed_rng.next(), static_cast<u64>(trial));
    const u32 n = 2 + static_cast<u32>(rng.uniform_below(6));
    AppendMemory memory(n);
    random_trace(memory, n, 40 + rng.uniform_below(80), rng);

    const std::vector<u32> full = memory.read().lens();
    const auto seq = growing_lens_sequence(full, 6 + rng.uniform_below(8), rng);

    BlockGraph inc;
    for (const std::vector<u32>& lens : seq) {
      const MemoryView view(&memory, lens);
      inc.extend(view);
      const std::vector<MsgId> expected = reference_kahn(view);
      ASSERT_EQ(expected.size(), inc.block_count());
      ASSERT_EQ(inc.topo_order(), expected) << "trial " << trial;
      ASSERT_EQ(BlockGraph(view).topo_order(), expected) << "trial " << trial;
    }
  }
}

TEST(BlockGraphExtend, LateRevealReparents) {
  // b (register 1) references a (register 0). A view that shows b but not a
  // roots b; revealing a afterwards must reparent b under a — exactly what
  // a from-scratch build of the larger view does.
  AppendMemory memory(2);
  const MsgId a = memory.append(NodeId{0}, Vote::kPlus, 0, {}, 1.0);
  const MsgId b = memory.append(NodeId{1}, Vote::kPlus, 0, {a}, 2.0);

  BlockGraph inc;
  inc.extend(MemoryView(&memory, {0u, 1u}));  // b visible, a hidden
  EXPECT_EQ(inc.parent(b), kRootId);
  EXPECT_EQ(inc.depth(b), 1u);

  inc.extend(MemoryView(&memory, {1u, 1u}));  // a revealed
  const BlockGraph ref(MemoryView(&memory, {1u, 1u}));
  expect_identical(inc, ref);
  EXPECT_EQ(inc.parent(b), a);
  EXPECT_EQ(inc.depth(b), 2u);
  EXPECT_EQ(inc.deepest_blocks(), (std::vector<MsgId>{b}));
}

TEST(BlockGraphExtend, EmptyAndNoopExtensions) {
  AppendMemory memory(2);
  BlockGraph inc;
  inc.extend(memory.read());  // empty view
  EXPECT_EQ(inc.block_count(), 0u);

  const MsgId a = memory.append(NodeId{0}, Vote::kPlus, 0, {}, 1.0);
  inc.extend(memory.read());
  inc.extend(memory.read());  // no-op: nothing new
  EXPECT_EQ(inc.block_count(), 1u);
  EXPECT_EQ(inc.parent(a), kRootId);
  expect_identical(inc, BlockGraph(memory.read()));
}

TEST(BlockGraphExtend, PureAppendGrowthMatchesScratch) {
  // The protocol fast path: every extension only adds strictly-later
  // messages (full prefix views of a growing memory).
  Rng rng(7);
  AppendMemory memory(4);
  BlockGraph inc;
  std::vector<MsgId> ids;
  SimTime now = 0.0;
  for (int step = 0; step < 60; ++step) {
    now += 1.0;
    std::vector<MsgId> refs;
    if (!ids.empty()) refs.push_back(ids[rng.uniform_below(ids.size())]);
    ids.push_back(memory.append(NodeId{static_cast<u32>(rng.uniform_below(4))}, Vote::kPlus, 0,
                                std::move(refs), now));
    inc.extend(memory.read());
    if (step % 15 == 14) expect_identical(inc, BlockGraph(memory.read()));
  }
  expect_identical(inc, BlockGraph(memory.read()));
}

}  // namespace
}  // namespace amm::chain
