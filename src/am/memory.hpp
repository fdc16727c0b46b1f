// The append memory M (§1.1): n unbounded append-only registers, one per
// node, with whole-memory reads. This is the paper's primary abstraction;
// every protocol in the library runs against this class.
//
// Layout: every message lives once in one log, in arrival order; each
// register is its author's index from seq to log position; references live
// in a memory-owned pool whose chunks never move. An append therefore costs
// no allocation of its own beyond the occasional geometric growth of the
// log, an index or the pool.
//
// Concurrency note: one AppendMemory belongs to one simulation trial and is
// driven by a single (simulated-time) thread; cross-trial parallelism gives
// each trial its own instance (Core Guidelines CP.3 — no shared mutable
// state between tasks).
#pragma once

#include <algorithm>
#include <initializer_list>
#include <span>
#include <vector>

#include "am/register.hpp"
#include "am/view.hpp"
#include "support/assert.hpp"

namespace amm::am {

class AppendMemory {
 public:
  explicit AppendMemory(u32 node_count) : registers_(node_count) { AMM_EXPECTS(node_count > 0); }

  // Move-only: a copy's Message::refs would point into the source's pool.
  AppendMemory(AppendMemory&&) = default;
  AppendMemory& operator=(AppendMemory&&) = default;
  AppendMemory(const AppendMemory&) = delete;
  AppendMemory& operator=(const AppendMemory&) = delete;

  u32 node_count() const { return static_cast<u32>(registers_.size()); }

  /// Empties the memory and gives it `node_count` registers, as a fresh
  /// AppendMemory(node_count) would have, but keeps every buffer's
  /// capacity: a memory reused trial after trial on one thread appends
  /// without allocating once it has held a trial as large. Every Message,
  /// Register, view and refs span of the old contents is invalid after.
  void clear(u32 node_count) {
    AMM_EXPECTS(node_count > 0);
    log_.clear();
    registers_.resize(node_count);
    for (auto& positions : registers_) positions.clear();
    // One chunk as large as all of the last contents' chunks together.
    if (ref_chunks_.size() > 1) {
      usize total = 0;
      for (const auto& chunk : ref_chunks_) total += chunk.capacity();
      ref_chunks_.clear();
      ref_chunks_.emplace_back().reserve(total);
    } else if (!ref_chunks_.empty()) {
      ref_chunks_.front().clear();
    }
    last_append_time_ = 0.0;
  }

  /// M.append(msg): appends to `author`'s register at simulated time `now`.
  ///
  /// Per the model, refs point at a *previous state* of the memory: each
  /// referenced message must already exist. A node may reference an
  /// obsolete state (asynchrony), but never a message that has not been
  /// appended — dangling references are a protocol bug, not a memory
  /// behaviour, so they are rejected here.
  ///
  /// `refs` is copied into the memory's reference pool; the caller's buffer
  /// may be reused or destroyed as soon as the call returns.
  MsgId append(NodeId author, Vote value, u64 payload, std::span<const MsgId> refs,
               SimTime now) {
    AMM_EXPECTS(author.index < registers_.size());
    AMM_EXPECTS(now >= last_append_time_);
    std::vector<u32>& positions = registers_[author.index];
    AMM_EXPECTS(positions.empty() || now >= log_[positions.back()].appended_at);
    for (const MsgId ref : refs) {
      AMM_EXPECTS(exists(ref));
    }
    last_append_time_ = now;

    // First allocations sized for a trial, so neither regrows from one.
    if (positions.empty()) positions.reserve(kFirstIndexCapacity);
    if (log_.empty()) log_.reserve(kFirstLogCapacity);
    const MsgId id{author.index, static_cast<u32>(positions.size())};
    positions.push_back(static_cast<u32>(log_.size()));
    log_.push_back(Message{id, value, payload, keep(refs), now});
    return id;
  }

  /// Braced reference lists (`{}`, `{a, b}`): C++20 spans cannot bind them.
  MsgId append(NodeId author, Vote value, u64 payload, std::initializer_list<MsgId> refs,
               SimTime now) {
    return append(author, value, payload, std::span<const MsgId>(refs.begin(), refs.size()),
                  now);
  }

  /// M.read(): the complete current view (all registers, full length).
  MemoryView read() const {
    std::vector<u32> lens;
    lens.reserve(registers_.size());
    for (const auto& positions : registers_) lens.push_back(static_cast<u32>(positions.size()));
    return MemoryView(this, std::move(lens));
  }

  /// The view an observer had at time `time`: everything appended strictly
  /// before `time`. Used to model read/append staleness without copying.
  MemoryView read_at(SimTime time) const {
    // Append times never decrease along the log, so the messages appended
    // before `time` are a log prefix: find its end once, then count each
    // register's positions below it.
    const auto cut = static_cast<u32>(
        std::partition_point(log_.begin(), log_.end(),
                             [&](const Message& m) { return m.appended_at < time; }) -
        log_.begin());
    std::vector<u32> lens;
    lens.reserve(registers_.size());
    for (const auto& positions : registers_) {
      lens.push_back(static_cast<u32>(
          std::lower_bound(positions.begin(), positions.end(), cut) - positions.begin()));
    }
    return MemoryView(this, std::move(lens));
  }

  bool exists(MsgId id) const {
    return id.author < registers_.size() && id.seq < registers_[id.author].size();
  }

  /// The message `id`. The reference stays valid only until the next append
  /// to any register (the log may regrow); its `refs` span stays valid as
  /// long as the memory, so copy the Message to keep it across appends.
  const Message& msg(MsgId id) const { return log_[position(id)]; }

  /// The log position of message `id`: its memory-wide arrival index
  /// (tooling-only, like log()).
  u32 position(MsgId id) const {
    AMM_EXPECTS(exists(id));
    return registers_[id.author][id.seq];
  }

  /// Register `i` as a read-only handle, valid until the next append.
  Register reg(u32 i) const {
    AMM_EXPECTS(i < registers_.size());
    return Register(i, log_, registers_[i]);
  }

  /// Every message in arrival order. A log position is NOT protocol-visible
  /// information (the model's whole point is that the memory cannot order
  /// concurrent appends for the protocol; MemoryView never exposes it): it
  /// serves tooling that keeps the physical order, e.g. trace capture, and
  /// the canonical-order scan of am/order.hpp. Valid until the next append.
  std::span<const Message> log() const { return log_; }

  u64 total_appends() const { return log_.size(); }
  SimTime last_append_time() const { return last_append_time_; }

 private:
  static constexpr usize kFirstIndexCapacity = 16;
  static constexpr usize kFirstLogCapacity = 256;
  static constexpr usize kFirstChunkCapacity = 256;

  /// Copies `refs` into the pool. A chunk is filled only up to the capacity
  /// it was reserved with, so its buffer never moves; each new chunk is at
  /// least twice the last.
  std::span<const MsgId> keep(std::span<const MsgId> refs) {
    if (refs.empty()) return {};
    if (ref_chunks_.empty() ||
        ref_chunks_.back().capacity() - ref_chunks_.back().size() < refs.size()) {
      const usize grown = ref_chunks_.empty() ? kFirstChunkCapacity
                                              : 2 * ref_chunks_.back().capacity();
      ref_chunks_.emplace_back().reserve(std::max(grown, refs.size()));
    }
    std::vector<MsgId>& chunk = ref_chunks_.back();
    const usize at = chunk.size();
    chunk.insert(chunk.end(), refs.begin(), refs.end());
    return {chunk.data() + at, refs.size()};
  }

  std::vector<Message> log_;                     ///< every message, arrival order
  std::vector<std::vector<u32>> registers_;     ///< per register: seq -> log position
  std::vector<std::vector<MsgId>> ref_chunks_;  ///< the reference pool
  SimTime last_append_time_ = 0.0;
};

// ---- MemoryView inline members that need the full AppendMemory type ----

inline const Message& MemoryView::msg(MsgId id) const {
  AMM_EXPECTS(contains(id));
  return memory().msg(id);
}

template <typename Fn>
void MemoryView::for_each(Fn&& fn) const {
  for (u32 r = 0; r < register_count(); ++r) {
    for (u32 s = 0; s < lens_[r]; ++s) {
      fn(memory().msg(MsgId{r, s}));
    }
  }
}

}  // namespace amm::am
