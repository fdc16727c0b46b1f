#include "checks.hpp"

#include "support/rng.hpp"

namespace perfbench {

i64 value_of(u64 seed, u32 author, u32 seq) {
  amm::SplitMix64 sm(seed ^ (static_cast<u64>(author) << 32 | seq) ^ 0x76616c7565ULL);
  return static_cast<i64>(sm.next() % 2001) - 1000;
}

bool AckedSet::acked(u32 author, u32 seq) const {
  if (author >= issued.size() || seq >= issued[author]) return false;
  const std::vector<u32>& open = unacked[author];
  return std::find(open.begin(), open.end(), seq) == open.end();
}

Holdings holdings_of(const AckedSet& acked, const std::vector<amm::mp::SignedAppend>& view,
                     u32 folded_below, u64 seed) {
  Holdings h;
  h.held.resize(acked.issued.size());
  for (usize a = 0; a < acked.issued.size(); ++a) {
    const u32 n = acked.issued[a];
    h.held[a].assign(n, 0);
    std::fill(h.held[a].begin(), h.held[a].begin() + std::min(n, folded_below), u8{1});
  }
  for (const amm::mp::SignedAppend& rec : view) {
    const u32 a = rec.author.index;
    if (a < h.held.size() && rec.seq < h.held[a].size() &&
        rec.value == value_of(seed, a, rec.seq)) {
      h.held[a][rec.seq] = 1;
    }
  }
  return h;
}

u64 count_missing(const AckedSet& acked, const Holdings& node) {
  return count_under_replicated(acked, {node}, 1);
}

u64 count_under_replicated(const AckedSet& acked, const std::vector<Holdings>& nodes, u32 need) {
  u64 bad = 0;
  for (u32 a = 0; a < acked.issued.size(); ++a) {
    for (u32 seq = 0; seq < acked.issued[a]; ++seq) {
      u32 copies = 0;
      for (const Holdings& h : nodes) copies += h.held[a][seq];
      if (copies < need && acked.acked(a, seq)) ++bad;
    }
  }
  return bad;
}

u64 count_wrong_decisions(const std::vector<amm::mp::SignedAppend>& final_view,
                          const std::vector<DecideRecord>& decisions) {
  // Reference: the canonical order written out independently of
  // net::decide_first_k — seq first, author as tie-break — then prefix sums
  // of the votes (value >= 0 votes +1).
  std::vector<amm::mp::SignedAppend> order = final_view;
  std::sort(order.begin(), order.end(), [](const auto& x, const auto& y) {
    return x.seq != y.seq ? x.seq < y.seq : x.author.index < y.author.index;
  });
  std::vector<i64> prefix(order.size() + 1, 0);
  for (usize i = 0; i < order.size(); ++i) {
    prefix[i + 1] = prefix[i] + (order[i].value >= 0 ? 1 : -1);
  }
  u64 bad = 0;
  for (const DecideRecord& d : decisions) {
    if (d.k == 0 || d.k > order.size() || d.decided_over != d.k) {
      ++bad;
      continue;
    }
    if (d.sign != amm::vote_value(amm::sign_decision(prefix[d.k]))) ++bad;
  }
  return bad;
}

}  // namespace perfbench
