#include "am/memory.hpp"

#include <gtest/gtest.h>

#include <type_traits>
#include <utility>
#include <vector>

#include "support/rng.hpp"

namespace amm::am {
namespace {

// A copy's Message::refs would point into the source's reference pool.
static_assert(!std::is_copy_constructible_v<AppendMemory>);

TEST(AppendMemory, FreshMemoryIsEmpty) {
  AppendMemory m(3);
  EXPECT_EQ(m.node_count(), 3u);
  EXPECT_EQ(m.total_appends(), 0u);
  EXPECT_TRUE(m.read().empty());
}

TEST(AppendMemory, AppendAndRead) {
  AppendMemory m(2);
  const MsgId id = m.append(NodeId{0}, Vote::kPlus, 7, {}, 1.0);
  EXPECT_TRUE(m.exists(id));
  const MemoryView view = m.read();
  EXPECT_EQ(view.size(), 1u);
  EXPECT_TRUE(view.contains(id));
  EXPECT_EQ(view.msg(id).payload, 7u);
}

TEST(AppendMemory, ReadIsCompleteAcrossRegisters) {
  AppendMemory m(3);
  m.append(NodeId{0}, Vote::kPlus, 0, {}, 1.0);
  m.append(NodeId{1}, Vote::kMinus, 0, {}, 2.0);
  m.append(NodeId{0}, Vote::kPlus, 0, {}, 3.0);
  const MemoryView view = m.read();
  EXPECT_EQ(view.size(), 3u);
  EXPECT_EQ(view.register_len(0), 2u);
  EXPECT_EQ(view.register_len(1), 1u);
  EXPECT_EQ(view.register_len(2), 0u);
}

TEST(AppendMemory, ReadAtGivesHistoricalView) {
  AppendMemory m(2);
  m.append(NodeId{0}, Vote::kPlus, 0, {}, 1.0);
  m.append(NodeId{1}, Vote::kPlus, 0, {}, 2.0);
  m.append(NodeId{0}, Vote::kPlus, 0, {}, 3.0);
  EXPECT_EQ(m.read_at(0.0).size(), 0u);
  EXPECT_EQ(m.read_at(1.5).size(), 1u);
  EXPECT_EQ(m.read_at(2.5).size(), 2u);
  EXPECT_EQ(m.read_at(3.5).size(), 3u);
}

TEST(AppendMemory, ReadAtMatchesPerRegisterSizeAt) {
  // Random histories in which runs of appends share a timestamp, queried at
  // every append time (strictly-before cuts inside a run of equal times),
  // between them, before the first and after the last.
  for (u64 seed = 1; seed <= 30; ++seed) {
    Rng rng(seed);
    const auto n = static_cast<u32>(1 + rng.uniform_below(9));
    AppendMemory m(n);
    std::vector<SimTime> queries{-1.0, 0.0};
    SimTime now = 0.0;
    for (u64 i = 0, appends = rng.uniform_below(120); i < appends; ++i) {
      now += 0.5 * static_cast<double>(rng.uniform_below(3));
      m.append(NodeId{static_cast<u32>(rng.uniform_below(n))}, Vote::kPlus, 0, {}, now);
      queries.push_back(now);
      queries.push_back(now + 0.25);
    }
    for (const SimTime t : queries) {
      const MemoryView view = m.read_at(t);
      ASSERT_EQ(view.register_count(), n);
      for (u32 r = 0; r < n; ++r) {
        ASSERT_EQ(view.register_len(r), m.reg(r).size_at(t))
            << "seed " << seed << ", register " << r << ", time " << t;
      }
    }
  }
}

TEST(AppendMemory, ClearedMemoryBehavesAsFresh) {
  const auto fill = [](AppendMemory& m, u32 n) {
    std::vector<MsgId> ids;
    for (u32 i = 0; i < 700; ++i) {
      const std::vector<MsgId> refs =
          ids.empty() ? std::vector<MsgId>{} : std::vector<MsgId>{ids.back(), ids.front()};
      ids.push_back(m.append(NodeId{i % n}, Vote::kMinus, i, refs, 0.5 * i));
    }
  };
  AppendMemory reused(5);
  fill(reused, 5);  // several pool chunks and regrown index rows
  for (const u32 n : {3u, 7u}) {
    reused.clear(n);
    EXPECT_EQ(reused.node_count(), n);
    EXPECT_EQ(reused.total_appends(), 0u);
    EXPECT_EQ(reused.last_append_time(), 0.0);
    EXPECT_TRUE(reused.read().empty());
    AppendMemory fresh(n);
    fill(reused, n);
    fill(fresh, n);
    ASSERT_EQ(reused.read().lens(), fresh.read().lens());
    for (u32 p = 0; p < fresh.total_appends(); ++p) {
      const Message& a = reused.log()[p];
      const Message& b = fresh.log()[p];
      EXPECT_EQ(a.id, b.id);
      EXPECT_EQ(a.payload, b.payload);
      EXPECT_EQ(a.appended_at, b.appended_at);
      ASSERT_EQ(a.refs.size(), b.refs.size());
      for (usize r = 0; r < a.refs.size(); ++r) EXPECT_EQ(a.refs[r], b.refs[r]);
    }
  }
}

TEST(AppendMemory, ViewsAreMonotoneInTime) {
  AppendMemory m(2);
  for (int i = 0; i < 10; ++i) {
    m.append(NodeId{static_cast<u32>(i % 2)}, Vote::kPlus, 0, {}, static_cast<SimTime>(i));
  }
  for (double t1 = 0.0; t1 < 10.0; t1 += 1.0) {
    for (double t2 = t1; t2 < 10.0; t2 += 1.0) {
      EXPECT_TRUE(m.read_at(t1).subset_of(m.read_at(t2)));
    }
  }
}

TEST(AppendMemory, RefsToExistingMessagesAccepted) {
  AppendMemory m(2);
  const MsgId a = m.append(NodeId{0}, Vote::kPlus, 0, {}, 1.0);
  const MsgId b = m.append(NodeId{1}, Vote::kPlus, 0, {a}, 2.0);
  EXPECT_EQ(m.msg(b).refs.front(), a);
}

TEST(AppendMemory, RefsOutliveTheCallersBuffer) {
  AppendMemory m(3);
  const MsgId a = m.append(NodeId{0}, Vote::kPlus, 0, {}, 1.0);
  const MsgId b = m.append(NodeId{1}, Vote::kPlus, 0, {}, 2.0);
  MsgId c{};
  {
    std::vector<MsgId> refs{a, b};
    c = m.append(NodeId{2}, Vote::kMinus, 0, refs, 3.0);
    refs.assign(refs.size(), MsgId{9, 9});  // scribble over the caller's copy
  }
  // Enough further appends to regrow the log and open new pool chunks.
  for (u32 i = 0; i < 300; ++i) {
    m.append(NodeId{i % 3}, Vote::kPlus, 0, {a, b, c}, 4.0 + i);
  }
  const auto check = [&](const AppendMemory& mem) {
    const std::span<const MsgId> refs = mem.msg(c).refs;
    ASSERT_EQ(refs.size(), 2u);
    EXPECT_EQ(refs[0], a);
    EXPECT_EQ(refs[1], b);
    EXPECT_EQ(mem.msg(MsgId{2, 100}).refs.back(), c);
  };
  check(m);
  const Message kept = m.msg(c);  // a copied Message keeps its span too
  const AppendMemory moved = std::move(m);
  check(moved);
  ASSERT_EQ(kept.refs.size(), 2u);
  EXPECT_EQ(kept.refs[1], b);
}

TEST(AppendMemoryDeathTest, DanglingRefRejected) {
  AppendMemory m(2);
  EXPECT_DEATH(m.append(NodeId{0}, Vote::kPlus, 0, {MsgId{1, 0}}, 1.0), "precondition");
}

TEST(AppendMemoryDeathTest, ForeignAuthorIndexRejected) {
  AppendMemory m(2);
  EXPECT_DEATH(m.append(NodeId{5}, Vote::kPlus, 0, {}, 1.0), "precondition");
}

TEST(AppendMemoryDeathTest, GlobalTimeMonotonicity) {
  AppendMemory m(2);
  m.append(NodeId{0}, Vote::kPlus, 0, {}, 2.0);
  EXPECT_DEATH(m.append(NodeId{1}, Vote::kPlus, 0, {}, 1.0), "precondition");
}

TEST(MemoryView, ByAppendTimeOrdersGlobally) {
  AppendMemory m(3);
  m.append(NodeId{2}, Vote::kPlus, 100, {}, 1.0);
  m.append(NodeId{0}, Vote::kPlus, 200, {}, 2.0);
  m.append(NodeId{1}, Vote::kPlus, 300, {}, 3.0);
  const auto ordered = m.read().by_append_time();
  ASSERT_EQ(ordered.size(), 3u);
  EXPECT_EQ(m.msg(ordered[0]).payload, 100u);
  EXPECT_EQ(m.msg(ordered[1]).payload, 200u);
  EXPECT_EQ(m.msg(ordered[2]).payload, 300u);
}

TEST(MemoryView, ByAppendTimeTieBrokenById) {
  AppendMemory m(3);
  m.append(NodeId{2}, Vote::kPlus, 0, {}, 1.0);
  m.append(NodeId{0}, Vote::kPlus, 0, {}, 1.0);  // same time, lower author
  const auto ordered = m.read().by_append_time();
  EXPECT_EQ(ordered[0].author, 0u);
  EXPECT_EQ(ordered[1].author, 2u);
}

TEST(MemoryView, JoinAndMeet) {
  AppendMemory m(2);
  m.append(NodeId{0}, Vote::kPlus, 0, {}, 1.0);
  m.append(NodeId{1}, Vote::kPlus, 0, {}, 2.0);
  m.append(NodeId{0}, Vote::kPlus, 0, {}, 3.0);
  const MemoryView a = m.read_at(1.5);  // {1, 0}
  const MemoryView b = m.read_at(2.5);  // {1, 1}
  const MemoryView j = a.join(b);
  const MemoryView mt = a.meet(b);
  EXPECT_EQ(j.register_len(0), 1u);
  EXPECT_EQ(j.register_len(1), 1u);
  EXPECT_EQ(mt.register_len(0), 1u);
  EXPECT_EQ(mt.register_len(1), 0u);
  EXPECT_TRUE(mt.subset_of(a));
  EXPECT_TRUE(a.subset_of(j));
  EXPECT_TRUE(b.subset_of(j));
}

TEST(MemoryView, ForEachVisitsAllVisible) {
  AppendMemory m(2);
  m.append(NodeId{0}, Vote::kPlus, 1, {}, 1.0);
  m.append(NodeId{1}, Vote::kPlus, 2, {}, 2.0);
  m.append(NodeId{0}, Vote::kPlus, 3, {}, 3.0);
  u64 payload_sum = 0;
  m.read_at(2.5).for_each([&](const Message& msg) { payload_sum += msg.payload; });
  EXPECT_EQ(payload_sum, 3u);  // messages 1 and 2
}

TEST(MemoryView, ContainsRespectsPrefix) {
  AppendMemory m(2);
  const MsgId a = m.append(NodeId{0}, Vote::kPlus, 0, {}, 1.0);
  const MsgId b = m.append(NodeId{0}, Vote::kPlus, 0, {}, 2.0);
  const MemoryView early = m.read_at(1.5);
  EXPECT_TRUE(early.contains(a));
  EXPECT_FALSE(early.contains(b));
}

TEST(MemoryViewDeathTest, MsgOutsideViewRejected) {
  AppendMemory m(2);
  m.append(NodeId{0}, Vote::kPlus, 0, {}, 1.0);
  const MemoryView empty = m.read_at(0.5);
  EXPECT_DEATH((void)empty.msg(MsgId{0, 0}), "precondition");
}

}  // namespace
}  // namespace amm::am
