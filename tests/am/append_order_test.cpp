// The log scan behind MemoryView::by_append_time() and merge_append_order
// must reproduce the old full-sort semantics *exactly*, including the
// stable by-id tie-break among equal timestamps.
#include "am/order.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "am/memory.hpp"
#include "support/rng.hpp"

namespace amm::am {
namespace {

/// Reference implementation: the pre-merge by_append_time() — collect every
/// visible id and stable-sort by (appended_at, id). Kept verbatim in the
/// test so the merge is checked against the original contract, not against
/// itself.
std::vector<MsgId> sort_reference(const MemoryView& view) {
  std::vector<MsgId> ids;
  ids.reserve(view.size());
  for (u32 r = 0; r < view.register_count(); ++r) {
    for (u32 s = 0; s < view.register_len(r); ++s) ids.push_back(MsgId{r, s});
  }
  std::stable_sort(ids.begin(), ids.end(), [&](MsgId a, MsgId b) {
    const SimTime ta = view.msg(a).appended_at;
    const SimTime tb = view.msg(b).appended_at;
    if (ta != tb) return ta < tb;
    return a < b;
  });
  return ids;
}

/// Random trace with *non-decreasing* times and deliberate repeats, so
/// equal-timestamp tie-breaks are actually exercised (the memory accepts
/// now == last_append_time()).
void random_trace(AppendMemory& memory, u32 n, usize appends, Rng& rng) {
  SimTime now = 0.0;
  for (usize i = 0; i < appends; ++i) {
    if (!rng.bernoulli(0.35)) now += 0.5;  // ~35% of appends share a timestamp
    const auto author = NodeId{static_cast<u32>(rng.uniform_below(n))};
    memory.append(author, Vote::kPlus, /*payload=*/0, /*refs=*/{}, now);
  }
}

TEST(AppendOrder, MergeMatchesSortReferenceOnRandomTraces) {
  Rng seed_rng(20200715);
  for (int trial = 0; trial < 30; ++trial) {
    Rng rng = Rng::for_stream(seed_rng.next(), static_cast<u64>(trial));
    const u32 n = 1 + static_cast<u32>(rng.uniform_below(8));
    AppendMemory memory(n);
    random_trace(memory, n, rng.uniform_below(200), rng);

    const MemoryView view = memory.read();
    EXPECT_EQ(view.by_append_time(), sort_reference(view));

    // Partial views (register-wise random truncation) must agree too.
    std::vector<u32> lens = view.lens();
    for (u32& len : lens) {
      if (len > 0) len = static_cast<u32>(rng.uniform_below(len + 1));
    }
    const MemoryView partial(&memory, lens);
    EXPECT_EQ(partial.by_append_time(), sort_reference(partial));
  }
}

TEST(AppendOrder, MergeMatchesSortReferenceOnArbitraryDeltas) {
  // Per-register bounds from <= to drawn independently, so a delta is
  // almost never a time cut: its log span then holds messages outside it,
  // interleaved with its own, which the scan must skip.
  Rng seed_rng(777001);
  for (int trial = 0; trial < 40; ++trial) {
    Rng rng = Rng::for_stream(seed_rng.next(), static_cast<u64>(trial));
    const u32 n = 1 + static_cast<u32>(rng.uniform_below(8));
    AppendMemory memory(n);
    random_trace(memory, n, rng.uniform_below(200), rng);

    std::vector<u32> from(n), to(n);
    for (u32 r = 0; r < n; ++r) {
      const u32 len = memory.reg(r).size();
      const auto a = static_cast<u32>(rng.uniform_below(len + 1));
      const auto b = static_cast<u32>(rng.uniform_below(len + 1));
      from[r] = std::min(a, b);
      to[r] = std::max(a, b);
    }
    std::vector<MsgId> expected;
    for (const MsgId id : sort_reference(MemoryView(&memory, to))) {
      if (id.seq >= from[id.author]) expected.push_back(id);
    }
    EXPECT_EQ(merge_append_order(memory, from, to), expected);
  }
}

TEST(AppendOrder, EqualTimestampsBreakTiesById) {
  AppendMemory memory(3);
  // Three appends at the same instant, issued in register order 2, 0, 1:
  // the order must come out by id, not by append order.
  memory.append(NodeId{2}, Vote::kPlus, 0, {}, 1.0);
  memory.append(NodeId{0}, Vote::kPlus, 0, {}, 1.0);
  memory.append(NodeId{1}, Vote::kPlus, 0, {}, 1.0);
  const auto order = memory.read().by_append_time();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], (MsgId{0, 0}));
  EXPECT_EQ(order[1], (MsgId{1, 0}));
  EXPECT_EQ(order[2], (MsgId{2, 0}));
}

TEST(AppendOrder, EmptyViewAndEmptyDelta) {
  AppendMemory memory(4);
  EXPECT_TRUE(memory.read().by_append_time().empty());
  EXPECT_TRUE(merge_append_order(memory, {}, {0, 0, 0, 0}).empty());
  memory.append(NodeId{1}, Vote::kPlus, 0, {}, 1.0);
  // from == to: empty delta.
  EXPECT_TRUE(merge_append_order(memory, {0, 1, 0, 0}, {0, 1, 0, 0}).empty());
}

TEST(AppendOrder, MergeDeltaEqualsOrderSuffix) {
  Rng rng(11);
  AppendMemory memory(5);
  random_trace(memory, 5, 120, rng);
  const MemoryView full = memory.read();
  const std::vector<MsgId> whole = full.by_append_time();

  // Splitting the registers at an arbitrary grown-view boundary: prefix
  // merge + delta merge must concatenate to the whole IF the boundary is a
  // time cut (everything in the prefix ordered before everything after).
  // Use a boundary defined by a time horizon so that holds by construction.
  const SimTime cut = 30.0;
  std::vector<u32> at_cut(full.register_count(), 0);
  for (u32 r = 0; r < full.register_count(); ++r) {
    u32 len = 0;
    while (len < full.register_len(r) && full.msg(MsgId{r, len}).appended_at < cut) ++len;
    at_cut[r] = len;
  }
  std::vector<MsgId> glued = merge_append_order(memory, {}, at_cut);
  const std::vector<MsgId> delta = merge_append_order(memory, at_cut, full.lens());
  glued.insert(glued.end(), delta.begin(), delta.end());
  EXPECT_EQ(glued, whole);
}

}  // namespace
}  // namespace amm::am
