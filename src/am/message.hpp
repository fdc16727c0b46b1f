// Messages of the append memory model (§1.1).
//
// A message carries a value from its author plus references to a previous
// state of the memory, exactly as the paper defines: "a message msg from
// v_i contains some value from this node and a reference to a previous
// state of the memory that is defined by the underlying protocol."
#pragma once

#include <compare>
#include <functional>
#include <span>

#include "support/types.hpp"

namespace amm::am {

/// Identifies a message as (author register, position within register).
/// Registers are append-only, so an id is stable forever once assigned.
struct MsgId {
  u32 author = 0;  ///< index of the register R_author
  u32 seq = 0;     ///< zero-based position within that register

  constexpr auto operator<=>(const MsgId&) const = default;
};

/// A single appended command.
struct Message {
  MsgId id;
  Vote value = Vote::kPlus;   ///< the ±1 input value (§5 protocols)
  u64 payload = 0;            ///< protocol-defined payload (e.g. round number)
  /// References to earlier appends ("previous state"). For an appended
  /// message the span points into its AppendMemory's reference pool, which
  /// never moves: it stays valid as long as that memory (moves included),
  /// in a copy of this Message too.
  std::span<const MsgId> refs;
  SimTime appended_at = 0.0;  ///< authoritative memory-side append time
};

}  // namespace amm::am

template <>
struct std::hash<amm::am::MsgId> {
  std::size_t operator()(const amm::am::MsgId& id) const noexcept {
    return (static_cast<std::size_t>(id.author) << 32) ^ id.seq;
  }
};
