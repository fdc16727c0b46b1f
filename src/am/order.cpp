#include "am/order.hpp"

#include <algorithm>

#include "am/memory.hpp"

namespace amm::am {
namespace {

/// Sorts out[run, end) by id: one run of equal append times.
void sort_run(std::vector<MsgId>& out, usize run) {
  if (out.size() - run > 1) std::sort(out.begin() + static_cast<std::ptrdiff_t>(run), out.end());
}

}  // namespace

std::vector<MsgId> merge_append_order(const AppendMemory& memory, const std::vector<u32>& from,
                                      const std::vector<u32>& to) {
  const u32 regs = static_cast<u32>(to.size());
  AMM_EXPECTS(from.empty() || from.size() == to.size());
  AMM_EXPECTS(regs <= memory.node_count());

  // The delta's log span: from its earliest message to its latest one.
  usize total = 0;
  u32 first = ~u32{0};
  u32 end = 0;
  for (u32 r = 0; r < regs; ++r) {
    const u32 lo = from.empty() ? 0 : from[r];
    AMM_EXPECTS(lo <= to[r]);
    if (lo == to[r]) continue;
    total += to[r] - lo;
    first = std::min(first, memory.position(MsgId{r, lo}));
    end = std::max(end, memory.position(MsgId{r, to[r] - 1}) + 1);
  }
  std::vector<MsgId> out;
  out.reserve(total);
  if (total == 0) return out;

  // Append times never decrease along the log, so the delta's messages in
  // log order are (appended_at)-sorted; sorting each run of equal times by
  // id gives the canonical (appended_at, id) order in O(span) plus the ties.
  const std::span<const Message> log = memory.log();
  const auto in_delta = [&](MsgId id) {
    return id.author < regs && id.seq < to[id.author] &&
           (from.empty() || id.seq >= from[id.author]);
  };
  usize run = 0;
  SimTime run_time = log[first].appended_at;
  for (u32 p = first; p < end; ++p) {
    const Message& m = log[p];
    if (!in_delta(m.id)) continue;
    if (m.appended_at != run_time) {
      sort_run(out, run);
      run = out.size();
      run_time = m.appended_at;
    }
    out.push_back(m.id);
  }
  sort_run(out, run);
  AMM_ENSURES(out.size() == total);
  return out;
}

}  // namespace amm::am
