// Simulated digital signatures for the message-passing substrate (§4).
//
// The paper assumes unforgeable signatures; a production system would use
// Ed25519. Offline we substitute a MAC-based scheme whose unforgeability is
// *enforced by the simulator*: every node's signing key lives inside the
// KeyRegistry and the Byzantine adversary object is only ever handed the
// verify interface plus its own keys. Within the simulation this gives
// existential unforgeability, which is all the ABD-style proofs need
// (documented as a substitution in DESIGN.md §2).
#pragma once

#include <utility>
#include <vector>

#include "crypto/siphash.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"
#include "support/types.hpp"

namespace amm::crypto {

/// A signature over a message digest; valid only relative to the registry
/// that issued the signer's key.
struct Signature {
  NodeId signer;
  u64 tag = 0;

  constexpr auto operator<=>(const Signature&) const = default;
};

/// Issues one secret key per node and performs sign/verify. The registry is
/// a stand-in for a PKI: verification is public (any holder of the registry
/// reference may verify), signing requires naming a node whose key you are
/// entitled to use — the protocol runner only ever passes Byzantine code a
/// SigningHandle for Byzantine nodes.
class KeyRegistry {
 public:
  KeyRegistry(u32 node_count, u64 seed);

  u32 node_count() const { return static_cast<u32>(keys_.size()); }

  /// Signs `digest` with `signer`'s secret key.
  Signature sign(NodeId signer, u64 digest) const;

  /// Verifies that `sig` is `sig.signer`'s signature over `digest`.
  bool verify(u64 digest, const Signature& sig) const;

 private:
  std::vector<SipKey> keys_;
};

/// Capability handle restricting signing to a fixed subset of nodes.
/// Handed to protocol node implementations so that a Byzantine node cannot
/// sign on behalf of a correct node (the unforgeability substitution).
class SigningHandle {
 public:
  SigningHandle(const KeyRegistry& registry, std::vector<NodeId> allowed)
      : registry_(&registry), allowed_(std::move(allowed)) {}

  Signature sign(NodeId as, u64 digest) const {
    AMM_EXPECTS(is_allowed(as));
    return registry_->sign(as, digest);
  }

  bool verify(u64 digest, const Signature& sig) const { return registry_->verify(digest, sig); }

  bool is_allowed(NodeId id) const {
    for (const NodeId a : allowed_) {
      if (a == id) return true;
    }
    return false;
  }

 private:
  const KeyRegistry* registry_;
  std::vector<NodeId> allowed_;
};

/// Order-sensitive digest combiner (not a cryptographic hash; collision
/// resistance against the simulated adversary is provided by the keyed
/// finalization inside sign()). finish() equals siphash24(kKey, words), but
/// the words stream into the SipHash state instead of a buffer.
class DigestBuilder {
 public:
  DigestBuilder& add(u64 word) {
    state_.compress(word);
    ++words_;
    return *this;
  }

  u64 finish() const {
    SipState st = state_;  // siphash24's last block: byte length mod 256, no tail
    st.compress(static_cast<u64>((words_ * 8) & 0xff) << 56);
    return st.finalize();
  }

  /// Fixed public key: this is a plain hash; secrecy comes from sign().
  static constexpr SipKey kKey{0x414d4d2064696765ULL, 0x7374206275696c64ULL};

 private:
  SipState state_{kKey};
  u64 words_ = 0;
};

}  // namespace amm::crypto
