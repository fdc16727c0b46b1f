#include "check/audit.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "am/memory.hpp"
#include "chain/block_graph.hpp"

namespace amm::check {
namespace {

am::AppendMemory make_chain_memory(u32 nodes, u32 blocks) {
  am::AppendMemory memory(nodes);
  am::MsgId tip{};
  for (u32 i = 0; i < blocks; ++i) {
    std::vector<am::MsgId> refs;
    if (i > 0) refs.push_back(tip);
    tip = memory.append(NodeId{i % nodes}, Vote::kPlus, /*payload=*/i, std::move(refs),
                        static_cast<SimTime>(i));
  }
  return memory;
}

TEST(MemoryAuditor, AcceptsAppendOnlyGrowth) {
  am::AppendMemory memory(3);
  MemoryAuditor auditor;
  auditor.audit(memory);  // empty memory is fine
  am::MsgId first = memory.append(NodeId{0}, Vote::kPlus, 0, {}, 1.0);
  auditor.audit(memory);
  memory.append(NodeId{1}, Vote::kMinus, 0, {first}, 2.0);
  memory.append(NodeId{0}, Vote::kPlus, 0, {first}, 3.0);
  auditor.audit(memory);
  EXPECT_EQ(auditor.audits(), 3u);
}

TEST(MemoryAuditor, AcceptsMonotoneViews) {
  am::AppendMemory memory = make_chain_memory(3, 9);
  MemoryAuditor auditor;
  auditor.audit_view(memory.read_at(2.5));
  auditor.audit_view(memory.read_at(5.5));
  auditor.audit_view(memory.read());
  EXPECT_EQ(auditor.audits(), 3u);
}

TEST(MemoryAuditorDeathTest, DetectsPrefixMutation) {
  // The public API cannot mutate a register, so simulate a corrupting bug
  // by auditing one memory and then presenting a different history of the
  // same shape: same lengths, different content.
  am::AppendMemory a(2);
  a.append(NodeId{0}, Vote::kPlus, 7, {}, 1.0);
  am::AppendMemory b(2);
  b.append(NodeId{0}, Vote::kMinus, 7, {}, 1.0);  // "mutated" value

  MemoryAuditor auditor;
  auditor.audit(a);
  EXPECT_DEATH(auditor.audit(b), "immutability");
}

TEST(MemoryAuditorDeathTest, DetectsRegisterShrink) {
  am::AppendMemory longer(2);
  longer.append(NodeId{0}, Vote::kPlus, 0, {}, 1.0);
  longer.append(NodeId{0}, Vote::kPlus, 0, {}, 2.0);
  am::AppendMemory shorter(2);
  shorter.append(NodeId{0}, Vote::kPlus, 0, {}, 1.0);

  MemoryAuditor auditor;
  auditor.audit(longer);
  EXPECT_DEATH(auditor.audit(shorter), "append-only");
}

TEST(MemoryAuditorDeathTest, DetectsViewRegression) {
  am::AppendMemory memory = make_chain_memory(3, 9);
  MemoryAuditor auditor;
  auditor.audit_view(memory.read());
  EXPECT_DEATH(auditor.audit_view(memory.read_at(2.5)), "view monotonicity");
}

TEST(MessageDigest, SensitiveToEveryField) {
  // Message::refs is a span: back it with arrays that outlive every use.
  const am::MsgId base_refs[] = {am::MsgId{0, 0}};
  const am::MsgId longer_refs[] = {am::MsgId{0, 0}, am::MsgId{0, 1}};
  am::Message base;
  base.id = am::MsgId{1, 2};
  base.value = Vote::kPlus;
  base.payload = 3;
  base.refs = base_refs;
  base.appended_at = 1.5;
  const u64 d = message_digest(base);

  am::Message m = base;
  m.value = Vote::kMinus;
  EXPECT_NE(message_digest(m), d);
  m = base;
  m.payload = 4;
  EXPECT_NE(message_digest(m), d);
  m = base;
  m.appended_at = 1.75;
  EXPECT_NE(message_digest(m), d);
  m = base;
  m.refs = longer_refs;
  EXPECT_NE(message_digest(m), d);
  m = base;
  m.id = am::MsgId{1, 3};
  EXPECT_NE(message_digest(m), d);
}

TEST(GraphAudit, AcceptsProtocolShapedGraphs) {
  // A small inclusive DAG: two forks joined by a block referencing both.
  am::AppendMemory memory(3);
  const am::MsgId root = memory.append(NodeId{0}, Vote::kPlus, 0, {}, 1.0);
  const am::MsgId left = memory.append(NodeId{1}, Vote::kPlus, 0, {root}, 2.0);
  const am::MsgId right = memory.append(NodeId{2}, Vote::kMinus, 0, {root}, 2.5);
  memory.append(NodeId{0}, Vote::kPlus, 0, {left, right}, 3.0);

  const chain::BlockGraph graph(memory.read());
  audit_graph(graph);  // must not abort
  SUCCEED();

  am::AppendMemory untouched(2);
  const chain::BlockGraph empty(untouched.read());
  audit_graph(empty);
}

TEST(GraphAudit, AcceptsLongChain) {
  am::AppendMemory memory = make_chain_memory(4, 64);
  const chain::BlockGraph graph(memory.read());
  audit_graph(graph);
  SUCCEED();
}

}  // namespace
}  // namespace amm::check
