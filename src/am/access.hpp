// Token-enforced access control for the append memory (§1.1's randomized
// memory access as a *checked* capability, not a convention).
//
// In the protocol runners, "only token holders append" is enforced by
// construction. GuardedMemory makes the authority's control explicit: an
// append requires presenting an unspent AppendToken issued by the
// TokenVault, which the vault mints from the stochastic token stream. A
// protocol (or adversary) implementation that tries to append without
// access, reuse a token, or spend another node's token trips a contract
// violation — turning §1.1's model rule into an executable invariant.
//
// Withholding (Lemma 5.5) is legal by design: a token may be spent any
// time at or after its issue time, matching the delayed-use power the
// paper grants Byzantine nodes.
#pragma once

#include <unordered_set>

#include "am/memory.hpp"
#include "sched/poisson.hpp"

namespace amm::am {

/// A single-use append capability. Value type; spending is tracked by the
/// vault that issued it.
struct AppendToken {
  u64 serial = 0;
  NodeId holder;
  SimTime issued_at = 0.0;
};

/// Issues tokens from a stochastic token stream and validates spends.
class TokenVault {
 public:
  /// Mints the capability for the next token of `authority`.
  template <typename Authority>
  AppendToken mint(Authority& authority) {
    const sched::Token t = authority.next();
    const AppendToken token{next_serial_++, t.holder, t.time};
    unspent_.insert(token.serial);
    return token;
  }

  bool is_spendable(const AppendToken& token) const {
    return unspent_.contains(token.serial);
  }

  /// Marks the token spent; aborts on double spends or forged serials.
  void spend(const AppendToken& token) {
    const auto it = unspent_.find(token.serial);
    AMM_EXPECTS(it != unspent_.end());
    unspent_.erase(it);
  }

  usize outstanding() const { return unspent_.size(); }

 private:
  u64 next_serial_ = 0;
  std::unordered_set<u64> unspent_;
};

/// AppendMemory whose append operation demands a valid token from the
/// right holder, spent no earlier than its issue time. Reads are free, as
/// in the model ("all nodes can read the memory at any time").
class GuardedMemory {
 public:
  GuardedMemory(u32 node_count, TokenVault& vault) : memory_(node_count), vault_(&vault) {}

  const AppendMemory& memory() const { return memory_; }

  MemoryView read() const { return memory_.read(); }
  MemoryView read_at(SimTime time) const { return memory_.read_at(time); }

  /// Token-gated append. `now` >= the token's issue time (delayed use is
  /// the Byzantine withholding power; time travel is not).
  MsgId append(const AppendToken& token, Vote value, u64 payload, std::span<const MsgId> refs,
               SimTime now) {
    AMM_EXPECTS(vault_->is_spendable(token));
    AMM_EXPECTS(now >= token.issued_at);
    vault_->spend(token);
    return memory_.append(token.holder, value, payload, refs, now);
  }

 private:
  AppendMemory memory_;
  TokenVault* vault_;
};

}  // namespace amm::am
