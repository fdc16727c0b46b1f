// Append-time ordering of visible messages (§2, §5.3). Append times never
// decrease along the memory's arrival-ordered log, so the canonical
// (appended_at, id) order of a view is a scan of the log's relevant span
// with ties sorted by id — no global sort, no heap. Views that only ever
// grow can also consume the order incrementally through a cursor that
// merges the per-register sequences instead of re-sorting the whole
// history every round.
#pragma once

#include <limits>
#include <queue>
#include <vector>

#include "am/message.hpp"
#include "am/view.hpp"
#include "support/assert.hpp"

namespace amm::am {

class AppendMemory;  // fwd

/// The canonical append order among the messages in registers' half-open
/// ranges [from[r], to[r]): sorted by (appended_at, id). This is the total
/// order `MemoryView::by_append_time()` exposes; exposed separately so
/// incremental consumers (BlockGraph::extend) can order only a delta.
/// `from` may be empty (treated as all zeros); requires from[r] <= to[r].
///
/// Scans the log from the delta's first position to its last and keeps the
/// delta's messages: O(span + ties · log ties). For a time cut or a growing
/// view's suffix the span is exactly the delta.
[[nodiscard]] std::vector<MsgId> merge_append_order(const AppendMemory& memory,
                                                    const std::vector<u32>& from,
                                                    const std::vector<u32>& to);

/// Incremental cursor over the canonical append order of a *growing* view.
///
/// Because registers are append-only, the set of visible messages only ever
/// grows; the cursor merges the per-register sequences lazily and emits the
/// order batch by batch. A batch is always internally ordered. The
/// concatenation of all batches equals the full `by_append_time()` order of
/// the final view provided each `drain(view, watermark)` call passes a
/// watermark no later than the append time of every message *not yet
/// visible* in `view` — then a message emitted now can never be preceded by
/// one that becomes visible later. For observers that read the full memory,
/// `AppendMemory::last_append_time()` is exactly such a watermark (append
/// times are globally non-decreasing), which is what the protocols use for
/// round-by-round consumption; a stale observer at horizon h uses h.
class AppendOrderCursor {
 public:
  explicit AppendOrderCursor(const AppendMemory& memory);

  /// Extends the frontier to `view` (must grow register-wise) and appends
  /// every not-yet-emitted visible message with appended_at < `watermark`
  /// to `out`, in (appended_at, id) order. Returns the number emitted.
  usize drain(const MemoryView& view, SimTime watermark, std::vector<MsgId>& out);

  /// Drains everything visible in `view` regardless of time: the terminal
  /// call once the memory stops growing.
  usize finish(const MemoryView& view, std::vector<MsgId>& out) {
    return drain(view, std::numeric_limits<SimTime>::infinity(), out);
  }

  /// Messages emitted so far over all drains.
  [[nodiscard]] usize emitted() const { return emitted_; }

 private:
  struct Head {
    SimTime time;
    MsgId id;
    /// Min-heap on the canonical (appended_at, id) key.
    bool operator>(const Head& other) const {
      if (time != other.time) return time > other.time;
      return id > other.id;
    }
  };

  const AppendMemory* memory_;
  std::vector<u32> next_;   ///< per-register: first sequence not yet emitted/queued
  std::vector<u32> limit_;  ///< per-register: visible frontier of the last drain
  std::priority_queue<Head, std::vector<Head>, std::greater<>> heads_;
  usize emitted_ = 0;
};

}  // namespace amm::am
