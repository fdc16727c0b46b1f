// Immutable snapshots of the append memory.
//
// A view is a per-register prefix length vector. Because registers are
// append-only, the set of all views forms a lattice under the componentwise
// (prefix) partial order — the key structural property behind the paper's
// configuration arguments in §2.
#pragma once

#include <vector>

#include "am/message.hpp"
#include "support/assert.hpp"

namespace amm::am {

class AppendMemory;  // fwd

class MemoryView {
 public:
  MemoryView() = default;
  MemoryView(const AppendMemory* memory, std::vector<u32> lens)
      : memory_(memory), lens_(std::move(lens)) {}

  [[nodiscard]] bool valid() const { return memory_ != nullptr; }
  [[nodiscard]] const AppendMemory& memory() const {
    AMM_EXPECTS(memory_ != nullptr);
    return *memory_;
  }

  [[nodiscard]] u32 register_count() const { return static_cast<u32>(lens_.size()); }
  [[nodiscard]] u32 register_len(u32 reg) const {
    AMM_EXPECTS(reg < lens_.size());
    return lens_[reg];
  }

  /// Total number of messages visible in this view.
  [[nodiscard]] usize size() const {
    usize total = 0;
    for (const u32 len : lens_) total += len;
    return total;
  }

  [[nodiscard]] bool empty() const {
    // Short-circuit on the first nonzero register instead of summing all
    // lengths — emptiness checks sit on protocol hot paths.
    for (const u32 len : lens_) {
      if (len != 0) return false;
    }
    return true;
  }

  [[nodiscard]] bool contains(MsgId id) const {
    return id.author < lens_.size() && id.seq < lens_[id.author];
  }

  /// Message lookup; the id must be contained in the view.
  [[nodiscard]] const Message& msg(MsgId id) const;

  /// Calls fn(msg) for every visible message, register by register.
  template <typename Fn>
  void for_each(Fn&& fn) const;

  /// All visible messages sorted by authoritative append time (stable by id
  /// for identical times). Used by the timestamp baseline (§5.1).
  ///
  /// Computed as a scan of the memory's arrival-ordered log, along which
  /// append times never decrease, instead of a full O(n log n) sort (see
  /// am/order.hpp).
  [[nodiscard]] std::vector<MsgId> by_append_time() const;

  /// Prefix partial order: *this ⊑ other iff every register prefix of this
  /// view is contained in other's.
  [[nodiscard]] bool subset_of(const MemoryView& other) const {
    AMM_EXPECTS(lens_.size() == other.lens_.size());
    for (usize i = 0; i < lens_.size(); ++i) {
      if (lens_[i] > other.lens_[i]) return false;
    }
    return true;
  }

  bool operator==(const MemoryView& other) const {
    return memory_ == other.memory_ && lens_ == other.lens_;
  }

  /// Lattice join (componentwise max) — the least view containing both.
  [[nodiscard]] MemoryView join(const MemoryView& other) const;
  /// Lattice meet (componentwise min) — the greatest view inside both.
  [[nodiscard]] MemoryView meet(const MemoryView& other) const;

  [[nodiscard]] const std::vector<u32>& lens() const { return lens_; }

 private:
  const AppendMemory* memory_ = nullptr;
  std::vector<u32> lens_;
};

}  // namespace amm::am
