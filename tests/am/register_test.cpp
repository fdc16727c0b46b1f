#include "am/register.hpp"

#include <gtest/gtest.h>

#include "am/memory.hpp"

namespace amm::am {
namespace {

TEST(Register, StartsEmpty) {
  const AppendMemory m(4);
  const Register r = m.reg(3);
  EXPECT_EQ(r.owner(), 3u);
  EXPECT_EQ(r.size(), 0u);
  EXPECT_TRUE(m.log().empty());
}

TEST(Register, AppendAssignsSequentialIds) {
  AppendMemory m(2);
  const MsgId a = m.append(NodeId{1}, Vote::kPlus, 0, {}, 1.0);
  const MsgId b = m.append(NodeId{1}, Vote::kMinus, 0, {}, 2.0);
  EXPECT_EQ(a, (MsgId{1, 0}));
  EXPECT_EQ(b, (MsgId{1, 1}));
  EXPECT_EQ(m.reg(1).size(), 2u);
}

TEST(Register, ReadReturnsCompleteLog) {
  AppendMemory m(1);
  m.append(NodeId{0}, Vote::kPlus, 10, {}, 0.5);
  m.append(NodeId{0}, Vote::kMinus, 20, {}, 0.7);
  const auto log = m.log();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].payload, 10u);
  EXPECT_EQ(log[1].payload, 20u);
  EXPECT_EQ(log[0].value, Vote::kPlus);
  EXPECT_EQ(log[1].value, Vote::kMinus);
}

TEST(Register, AtRetrievesBySeq) {
  AppendMemory m(2);
  m.append(NodeId{0}, Vote::kPlus, 1, {}, 0.0);
  m.append(NodeId{1}, Vote::kPlus, 9, {}, 0.0);  // interleaved in the log
  m.append(NodeId{0}, Vote::kPlus, 2, {}, 0.0);
  EXPECT_EQ(m.reg(0).at(1).payload, 2u);
}

TEST(Register, RefsArePreserved) {
  AppendMemory m(3);
  m.append(NodeId{0}, Vote::kPlus, 0, {}, 0.0);
  for (int i = 0; i < 6; ++i) m.append(NodeId{1}, Vote::kPlus, 0, {}, 0.0);
  m.append(NodeId{2}, Vote::kPlus, 0, {MsgId{0, 0}, MsgId{1, 5}}, 1.0);
  const Register r = m.reg(2);
  ASSERT_EQ(r.at(0).refs.size(), 2u);
  EXPECT_EQ(r.at(0).refs[1], (MsgId{1, 5}));
}

TEST(Register, SizeAtIsStrictlyBefore) {
  AppendMemory m(1);
  m.append(NodeId{0}, Vote::kPlus, 0, {}, 1.0);
  m.append(NodeId{0}, Vote::kPlus, 0, {}, 2.0);
  m.append(NodeId{0}, Vote::kPlus, 0, {}, 2.0);  // same instant
  m.append(NodeId{0}, Vote::kPlus, 0, {}, 3.0);
  const Register r = m.reg(0);
  EXPECT_EQ(r.size_at(0.5), 0u);
  EXPECT_EQ(r.size_at(1.0), 0u);  // strictly before
  EXPECT_EQ(r.size_at(1.5), 1u);
  EXPECT_EQ(r.size_at(2.0), 1u);
  EXPECT_EQ(r.size_at(2.5), 3u);
  EXPECT_EQ(r.size_at(100.0), 4u);
}

TEST(RegisterDeathTest, TimeMustBeMonotone) {
  AppendMemory m(1);
  m.append(NodeId{0}, Vote::kPlus, 0, {}, 5.0);
  EXPECT_DEATH(m.append(NodeId{0}, Vote::kPlus, 0, {}, 4.0), "precondition");
}

TEST(RegisterDeathTest, AtOutOfRange) {
  const AppendMemory m(1);
  EXPECT_DEATH((void)m.reg(0).at(0), "precondition");
}

}  // namespace
}  // namespace amm::am
