// A single append-only register R_i (§1.1): unbounded, readable by every
// node, writable only by its owner; nothing is ever overwritten or removed.
//
// The memory keeps every message once, in one arrival-ordered log
// (am/memory.hpp). A register is its author's index into that log: entry
// `seq` is the log position of the author's message `seq`. The handle that
// AppendMemory::reg() returns borrows both, so like a `const Message&` it
// stays valid only until the next append to the memory.
#pragma once

#include <algorithm>
#include <span>

#include "am/message.hpp"
#include "support/assert.hpp"

namespace amm::am {

class Register {
 public:
  Register(u32 owner, std::span<const Message> log, std::span<const u32> positions)
      : owner_(owner), log_(log), positions_(positions) {}

  [[nodiscard]] u32 owner() const { return owner_; }
  [[nodiscard]] u32 size() const { return static_cast<u32>(positions_.size()); }

  /// The owner's message `seq`.
  [[nodiscard]] const Message& at(u32 seq) const {
    AMM_EXPECTS(seq < positions_.size());
    return log_[positions_[seq]];
  }

  /// Number of messages appended strictly before `time`.
  [[nodiscard]] u32 size_at(SimTime time) const {
    // Append times are non-decreasing along a register: binary search.
    const auto end = std::partition_point(positions_.begin(), positions_.end(),
                                          [&](u32 p) { return log_[p].appended_at < time; });
    return static_cast<u32>(end - positions_.begin());
  }

 private:
  u32 owner_;
  std::span<const Message> log_;
  std::span<const u32> positions_;
};

}  // namespace amm::am
