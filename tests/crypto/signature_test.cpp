#include "crypto/signature.hpp"

#include <gtest/gtest.h>

#include <span>
#include <vector>

namespace amm::crypto {
namespace {

TEST(KeyRegistry, SignVerifyRoundtrip) {
  KeyRegistry reg(4, /*seed=*/1);
  const u64 digest = 0xdeadbeef;
  const Signature sig = reg.sign(NodeId{2}, digest);
  EXPECT_TRUE(reg.verify(digest, sig));
}

TEST(KeyRegistry, WrongDigestFails) {
  KeyRegistry reg(4, 1);
  const Signature sig = reg.sign(NodeId{0}, 111);
  EXPECT_FALSE(reg.verify(112, sig));
}

TEST(KeyRegistry, SignerSwapFails) {
  KeyRegistry reg(4, 1);
  Signature sig = reg.sign(NodeId{0}, 42);
  sig.signer = NodeId{1};  // claim another identity, keep the tag
  EXPECT_FALSE(reg.verify(42, sig));
}

TEST(KeyRegistry, TagTamperFails) {
  KeyRegistry reg(4, 1);
  Signature sig = reg.sign(NodeId{3}, 42);
  sig.tag ^= 1;
  EXPECT_FALSE(reg.verify(42, sig));
}

TEST(KeyRegistry, UnknownSignerRejected) {
  KeyRegistry reg(4, 1);
  Signature sig;
  sig.signer = NodeId{99};
  sig.tag = 7;
  EXPECT_FALSE(reg.verify(0, sig));
}

TEST(KeyRegistry, DeterministicPerSeed) {
  KeyRegistry a(4, 5), b(4, 5);
  EXPECT_EQ(a.sign(NodeId{1}, 9).tag, b.sign(NodeId{1}, 9).tag);
}

TEST(KeyRegistry, DifferentSeedsDifferentKeys) {
  KeyRegistry a(4, 5), b(4, 6);
  EXPECT_NE(a.sign(NodeId{1}, 9).tag, b.sign(NodeId{1}, 9).tag);
}

TEST(KeyRegistry, NodesHaveDistinctKeys) {
  KeyRegistry reg(8, 7);
  EXPECT_NE(reg.sign(NodeId{0}, 5).tag, reg.sign(NodeId{1}, 5).tag);
}

TEST(SigningHandle, AllowsGrantedIdentity) {
  KeyRegistry reg(4, 1);
  SigningHandle handle(reg, {NodeId{2}});
  const Signature sig = handle.sign(NodeId{2}, 10);
  EXPECT_TRUE(handle.verify(10, sig));
}

TEST(SigningHandleDeathTest, RejectsForeignIdentity) {
  KeyRegistry reg(4, 1);
  SigningHandle handle(reg, {NodeId{2}});
  EXPECT_DEATH((void)handle.sign(NodeId{0}, 10), "precondition");
}

TEST(SigningHandle, IsAllowed) {
  KeyRegistry reg(4, 1);
  SigningHandle handle(reg, {NodeId{1}, NodeId{3}});
  EXPECT_TRUE(handle.is_allowed(NodeId{1}));
  EXPECT_FALSE(handle.is_allowed(NodeId{0}));
}

TEST(DigestBuilder, OrderSensitive) {
  const u64 a = DigestBuilder{}.add(1).add(2).finish();
  const u64 b = DigestBuilder{}.add(2).add(1).finish();
  EXPECT_NE(a, b);
}

TEST(DigestBuilder, Deterministic) {
  const u64 a = DigestBuilder{}.add(7).add(8).add(9).finish();
  const u64 b = DigestBuilder{}.add(7).add(8).add(9).finish();
  EXPECT_EQ(a, b);
}

TEST(DigestBuilder, LengthSensitive) {
  const u64 a = DigestBuilder{}.add(1).finish();
  const u64 b = DigestBuilder{}.add(1).add(0).finish();
  EXPECT_NE(a, b);
}

TEST(DigestBuilder, EqualsSipHashOverTheSameWords) {
  // The builder streams words into the SipHash state instead of buffering
  // them. Signatures and on-disk snapshots are computed over its digests,
  // so every prefix must hash bit-identically to siphash24 over its words.
  Rng rng(16);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<u64> words;
    DigestBuilder builder;
    for (usize len = 0; len <= 64; ++len) {
      ASSERT_EQ(builder.finish(), siphash24(DigestBuilder::kKey, std::span<const u64>(words)))
          << "trial " << trial << ", " << len << " words";
      words.push_back(trial % 2 == 0 ? rng.next() : rng.uniform_below(4));
      builder.add(words.back());
    }
  }
}

}  // namespace
}  // namespace amm::crypto
