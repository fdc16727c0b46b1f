// Golden digests: every observable of a §5 trial at the benchmark
// configuration (n = 64, t = 16, k = 201, λ = 1), and of one canonical run
// of each protocol family at n = 7, t = 2, pinned for seeds 1–16. The
// soundness tests elsewhere accept any valid outcome; these pin the exact
// ones, so a change that moves a tie order, a token draw or a
// floating-point time fails here even when every statistic stays plausible.
// A trial that is not a pure function of its seed (a clock-derived seed,
// state carried from one run into the next) fails here as well, as soon as
// the impurity reaches an observable.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "adversary/sync_strategies.hpp"
#include "am/memory.hpp"
#include "chain/block_graph.hpp"
#include "chain/rules.hpp"
#include "protocols/chain_ba.hpp"
#include "protocols/dag_ba.hpp"
#include "protocols/nakamoto.hpp"
#include "protocols/sync_ba.hpp"
#include "protocols/timestamp_ba.hpp"

namespace amm::proto {
namespace {

constexpr u64 kFirstSeed = 1;
constexpr u64 kLastSeed = 16;

/// FNV-1a over little-endian words.
class Digest {
 public:
  void word(u64 w) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (w >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }

  void time(SimTime t) {
    u64 bits = 0;
    static_assert(sizeof(bits) == sizeof(t));
    std::memcpy(&bits, &t, sizeof(bits));
    word(bits);
  }

  void outcome(const Outcome& out) {
    word(out.terminated ? 1 : 0);
    word(out.decisions.size());
    for (const auto& d : out.decisions) {
      word(d ? static_cast<u64>(static_cast<i64>(vote_value(*d))) : u64{0xff});
    }
    time(out.elapsed);
    word(out.total_appends);
    word(out.rounds);
    word(out.byz_in_decision_set);
    word(out.decision_set_size);
  }

  void dag(const DagResult& res) {
    outcome(res.outcome);
    word(res.dumped);
    word(res.omniscient_bound);
    time(res.final_gap);
  }

  u64 value() const { return hash_; }

 private:
  u64 hash_ = 0xcbf29ce484222325ULL;
};

Scenario bench_scenario() {
  Scenario s;
  s.n = 64;
  s.t = 16;
  s.correct_input = Vote::kPlus;
  return s;
}

u64 chain_digest() {
  ChainParams params;
  params.scenario = bench_scenario();
  params.k = 201;
  params.lambda = 1.0;
  params.adversary = ChainAdversary::kRushExtend;
  Digest d;
  for (u64 seed = kFirstSeed; seed <= kLastSeed; ++seed) {
    d.outcome(run_chain_slotted(params, Rng(seed)));
  }
  return d.value();
}

u64 dag_digest(bool full_ordering, chain::PivotRule rule) {
  DagParams params;
  params.scenario = bench_scenario();
  params.k = 201;
  params.lambda = 1.0;
  params.adversary = DagAdversary::kRateAndWithhold;
  params.full_ordering = full_ordering;
  params.pivot_rule = rule;
  Digest d;
  for (u64 seed = kFirstSeed; seed <= kLastSeed; ++seed) {
    d.dag(run_dag_continuous(params, Rng(seed)));
  }
  return d.value();
}

/// The whole Algorithm 6 linearization of random DAGs (200 appends over 8
/// registers, 0–3 references each, equal timestamps included), which the
/// trial digests see only through the composition of the first k.
u64 linearize_digest(chain::PivotRule rule) {
  Digest d;
  for (u64 seed = kFirstSeed; seed <= kLastSeed; ++seed) {
    Rng rng(seed);
    am::AppendMemory memory(8);
    std::vector<am::MsgId> ids;
    SimTime now = 0.0;
    for (int i = 0; i < 200; ++i) {
      now += 0.5 * static_cast<double>(rng.uniform_below(3));
      std::vector<am::MsgId> refs;
      for (u64 r = ids.empty() ? 0 : rng.uniform_below(4); r > 0; --r) {
        const am::MsgId cand = ids[rng.uniform_below(ids.size())];
        if (std::find(refs.begin(), refs.end(), cand) == refs.end()) refs.push_back(cand);
      }
      ids.push_back(memory.append(NodeId{static_cast<u32>(rng.uniform_below(8))}, Vote::kPlus,
                                  /*payload=*/0, std::move(refs), now));
    }
    const chain::BlockGraph graph(memory.read());
    for (const am::MsgId id : chain::linearize_dag(graph, rule)) {
      d.word((u64{id.author} << 32) | id.seq);
    }
  }
  return d.value();
}

/// Digest of `run(digest, seed)` over seeds 1–16.
template <typename Run>
u64 digest_seeds(const Run& run) {
  Digest d;
  for (u64 seed = kFirstSeed; seed <= kLastSeed; ++seed) run(d, seed);
  return d.value();
}

/// The canonical small scenario: n = 7 with t = 2 Byzantine nodes. Each run
/// below draws from its own stream of the seed.
Scenario canonical_scenario() {
  Scenario s;
  s.n = 7;
  s.t = 2;
  s.correct_input = Vote::kPlus;
  return s;
}

constexpr u64 kChainDigest = 0x92c984c4c0204531ULL;
// One constant for the three DAG runs: the fast path is exact for every
// field hashed here, and so is either pivot rule's linearization at this
// configuration, so the full-ordering digests also pin that agreement.
constexpr u64 kDagDigest = 0x16bf481492f91af3ULL;

TEST(GoldenDigest, ChainSlottedRushExtend) {
  EXPECT_EQ(chain_digest(), kChainDigest);
}

TEST(GoldenDigest, DagRateAndWithhold) {
  EXPECT_EQ(dag_digest(false, chain::PivotRule::kGhost), kDagDigest);
}

TEST(GoldenDigest, DagFullOrderingGhost) {
  EXPECT_EQ(dag_digest(true, chain::PivotRule::kGhost), kDagDigest);
}

TEST(GoldenDigest, DagFullOrderingLongestChain) {
  EXPECT_EQ(dag_digest(true, chain::PivotRule::kLongestChain), kDagDigest);
}

TEST(GoldenDigest, LinearizeDagGhost) {
  EXPECT_EQ(linearize_digest(chain::PivotRule::kGhost), 0x5e1795f51853e0caULL);
}

TEST(GoldenDigest, LinearizeDagLongestChain) {
  EXPECT_EQ(linearize_digest(chain::PivotRule::kLongestChain), 0x3fa39c65ebaf4a8aULL);
}

// Algorithm 1 against the randomized split-vision equivocator: the run only
// reproduces if the adversary's Rng stream is a pure function of the seed.
TEST(GoldenDigest, CanonicalSyncBaSplitVision) {
  SyncParams params;
  params.scenario = canonical_scenario();
  EXPECT_EQ(digest_seeds([&](Digest& d, u64 seed) {
              adv::SplitVisionSync adversary(Vote::kMinus, Rng::for_stream(seed, 7));
              d.outcome(run_sync_ba(params, adversary));
            }),
            0x57b35430debaaf25ULL);
}

TEST(GoldenDigest, CanonicalTimestampBa) {
  TimestampParams params;
  params.scenario = canonical_scenario();
  params.k = 15;
  params.lambda = 1.0;
  EXPECT_EQ(digest_seeds([&](Digest& d, u64 seed) {
              d.outcome(run_timestamp_ba(params, Rng::for_stream(seed, 11)));
            }),
            0x902d0da36f8ed6f3ULL);
}

TEST(GoldenDigest, CanonicalChainContinuousRushExtend) {
  ChainParams params;
  params.scenario = canonical_scenario();
  params.k = 15;
  params.lambda = 0.5;
  params.tie_break = chain::TieBreak::kRandomized;
  params.adversary = ChainAdversary::kRushExtend;
  EXPECT_EQ(digest_seeds([&](Digest& d, u64 seed) {
              d.outcome(run_chain_continuous(params, Rng::for_stream(seed, 13)));
            }),
            0x8a85050352b1bffaULL);
}

TEST(GoldenDigest, CanonicalDagRateAndWithhold) {
  DagParams params;
  params.scenario = canonical_scenario();
  params.k = 15;
  params.lambda = 0.5;
  params.adversary = DagAdversary::kRateAndWithhold;
  EXPECT_EQ(digest_seeds([&](Digest& d, u64 seed) {
              d.dag(run_dag_continuous(params, Rng::for_stream(seed, 17)));
            }),
            0x7b7a6412c0634e52ULL);
}

TEST(GoldenDigest, CanonicalNakamotoDoubleSpend) {
  NakamotoParams params;
  params.scenario = canonical_scenario();
  params.confirmation_depth = 4;
  EXPECT_EQ(digest_seeds([&](Digest& d, u64 seed) {
              const NakamotoResult res = run_double_spend_race(params, Rng::for_stream(seed, 19));
              d.word(res.terminated ? 1 : 0);
              d.word(res.reversed ? 1 : 0);
              d.word(res.blocks_to_confirm);
              d.time(res.time_to_confirm);
              d.word(static_cast<u64>(res.final_lead));
            }),
            0x31c8ccaa037e3c08ULL);
}

}  // namespace
}  // namespace amm::proto
