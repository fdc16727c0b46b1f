// Output checks of the cluster workloads, as pure functions over what the
// run observed so the self-test can feed them seeded violations.
//
//   * Lemma 4.2: a quorum read taken after the timed phase holds every
//     acknowledged (author, seq), live or below the checkpoint fold, with the
//     value the benchmark appended.
//   * Durability: every acknowledged append is recovered on >= 2 of 3 nodes.
//   * Algorithm 6 agreement: every decision equals the reference decision for
//     its k, recomputed from the final view.
#pragma once

#include <vector>

#include "bench.hpp"
#include "mp/wire.hpp"

namespace perfbench {

/// The value the benchmark appends as (author, seq): a function of the seed
/// alone, so checks recompute it instead of storing it.
i64 value_of(u64 seed, u32 author, u32 seq);

/// The appends the benchmark issued per author: seqs [0, issued[a]), of which
/// those in unacked[a] never completed.
struct AckedSet {
  std::vector<u32> issued;
  std::vector<std::vector<u32>> unacked;

  bool acked(u32 author, u32 seq) const;
};

/// Which issued (author, seq) one node holds: live in `view` with the value
/// value_of gives, or below `folded_below`. A record with another value is
/// not held.
struct Holdings {
  std::vector<std::vector<u8>> held;
};

Holdings holdings_of(const AckedSet& acked, const std::vector<amm::mp::SignedAppend>& view,
                     u32 folded_below, u64 seed);

/// Acknowledged records `node` does not hold.
u64 count_missing(const AckedSet& acked, const Holdings& node);

/// Acknowledged records held by fewer than `need` of `nodes`.
u64 count_under_replicated(const AckedSet& acked, const std::vector<Holdings>& nodes, u32 need);

struct DecideRecord {
  u32 k = 0;
  i64 sign = 0;
  u32 decided_over = 0;
};

/// Decisions that differ from sign(sum of the first k votes) of `final_view`
/// in the canonical (seq, author) order, or that summed fewer than k records.
u64 count_wrong_decisions(const std::vector<amm::mp::SignedAppend>& final_view,
                          const std::vector<DecideRecord>& decisions);

}  // namespace perfbench
