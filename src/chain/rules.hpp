// Fork-choice rules and tie-breaking policies (§5.2, §5.3).
//
// Algorithm 5 chooses among "the last states in the longest chains" with a
// tie-breaking rule; the paper analyzes a deterministic rule (Garay et al.,
// broken in the adversary's favor — Theorem 5.3) and a randomized rule
// (Ren — Theorem 5.4). Algorithm 6 orders the DAG by the longest or
// heaviest (GHOST) chain.
#pragma once

#include <vector>

#include "chain/block_graph.hpp"
#include "support/rng.hpp"

namespace amm::chain {

enum class TieBreak {
  kDeterministicFirst,  ///< first (oldest) candidate — Garay-style, adversary exploitable
  kRandomized,          ///< uniform among candidates — Ren-style
};

/// Picks one tip among the deepest blocks of `graph` per `rule`.
/// The randomized rule consumes entropy from `rng`.
MsgId choose_longest_tip(const BlockGraph& graph, TieBreak rule, Rng& rng);

enum class PivotRule {
  kLongestChain,  ///< greedy deepest-descendant descent [14]
  kGhost,         ///< heaviest-subtree descent [22]
};

/// Walks from the root choosing children by `rule`; ties broken toward the
/// earliest-appended child (both cited rules are deterministic given the
/// view). Returns the pivot chain, oldest first; empty for an empty graph.
std::vector<MsgId> select_pivot(const BlockGraph& graph, PivotRule rule);

/// Conflux-style total order of the whole DAG: for each pivot block in
/// order, emit its "epoch" — every not-yet-emitted ancestor reachable
/// through reference edges — in deterministic topological order, then the
/// pivot block itself (§5.3: "Order the values of the DAG with respect to
/// the longest chain"). Blocks no pivot block reaches come last, in
/// topological order. O(blocks + refs).
std::vector<MsgId> linearize_dag(const BlockGraph& graph, PivotRule rule);

/// The first `k` values along a chain from the root (Algorithm 5, line 10):
/// the prefix of length k of the chain ending at `tip`.
std::vector<MsgId> first_k_of_chain(const BlockGraph& graph, MsgId tip, usize k);

/// Sum of ±1 values of the given messages.
i64 vote_sum(const BlockGraph& graph, const std::vector<MsgId>& ids);

}  // namespace amm::chain
