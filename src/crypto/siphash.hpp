// SipHash-2-4 (Aumasson & Bernstein) — a keyed 64-bit PRF. We use it both
// as a fast hash for ids/digests and as the core of the simulated signature
// scheme in §4's message-passing substrate.
#pragma once

#include <cstddef>
#include <span>

#include "support/types.hpp"

namespace amm::crypto {

/// 128-bit SipHash key.
struct SipKey {
  u64 k0 = 0;
  u64 k1 = 0;

  constexpr auto operator<=>(const SipKey&) const = default;
};

/// The SipHash-2-4 state: compress() each 8-byte block, then the final block
/// (tail bytes plus the length byte), then finalize(). Shared by siphash24
/// and crypto::DigestBuilder, which streams words through it.
class SipState {
 public:
  explicit SipState(SipKey key)
      : v0(0x736f6d6570736575ULL ^ key.k0),
        v1(0x646f72616e646f6dULL ^ key.k1),
        v2(0x6c7967656e657261ULL ^ key.k0),
        v3(0x7465646279746573ULL ^ key.k1) {}

  void compress(u64 m) {
    v3 ^= m;
    round();
    round();
    v0 ^= m;
  }

  u64 finalize() {
    v2 ^= 0xff;
    round();
    round();
    round();
    round();
    return v0 ^ v1 ^ v2 ^ v3;
  }

 private:
  static constexpr u64 rotl(u64 x, int b) { return (x << b) | (x >> (64 - b)); }

  void round() {
    v0 += v1;
    v1 = rotl(v1, 13);
    v1 ^= v0;
    v0 = rotl(v0, 32);
    v2 += v3;
    v3 = rotl(v3, 16);
    v3 ^= v2;
    v0 += v3;
    v3 = rotl(v3, 21);
    v3 ^= v0;
    v2 += v1;
    v1 = rotl(v1, 17);
    v1 ^= v2;
    v2 = rotl(v2, 32);
  }

  u64 v0, v1, v2, v3;
};

/// SipHash-2-4 of `data` under `key`.
u64 siphash24(SipKey key, std::span<const std::byte> data);

/// Convenience overload hashing a sequence of 64-bit words.
u64 siphash24(SipKey key, std::span<const u64> words);

}  // namespace amm::crypto
