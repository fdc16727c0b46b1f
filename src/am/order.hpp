// Append-time ordering of visible messages (§2, §5.3). Append times never
// decrease along the memory's arrival-ordered log, so the canonical
// (appended_at, id) order of a view is a scan of the log's relevant span
// with ties sorted by id — no global sort, no heap.
#pragma once

#include <vector>

#include "am/message.hpp"

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

}  // namespace amm::am
