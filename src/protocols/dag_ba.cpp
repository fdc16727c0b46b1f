#include "protocols/dag_ba.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "am/memory.hpp"
#include "chain/block_graph.hpp"
#include "check/audit.hpp"
#include "sched/poisson.hpp"

namespace amm::proto {
namespace {

/// Incremental DAG state: append-order records, parent-edge depths, and the
/// tips of two views as ascending index lists — the true current view (the
/// rushing adversary's) and a lagging stale view, the correct nodes' Δ-old
/// read. Every reference points to an earlier record, so a record's first
/// referrer is its lowest-indexed one, and "referenced within the first p
/// records" is one comparison for every view prefix p. An append or an
/// advance of the stale view therefore costs O(refs + tips), not a rescan
/// of the trial's history.
class DagState {
 public:
  explicit DagState(u32 node_count) : memory_(node_count) {}

  /// Empties the state for a new trial over `node_count` nodes, as a fresh
  /// DagState(node_count) would be; every buffer keeps its capacity.
  void reset(u32 node_count) {
    memory_.clear(node_count);
    auditor_ = check::MemoryAuditor();
    recs_.clear();
    true_tips_.clear();
    stale_tips_.clear();
    stale_end_ = 0;
    deepest_depth_ = 0;
    deepest_idx_ = 0;
  }

  am::AppendMemory& memory() { return memory_; }

  /// Invariant audit hook (no-op unless AMM_AUDIT): append-only growth and
  /// prefix immutability of the backing memory, monotone observed views.
  void audit() {
    if constexpr (check::kAuditEnabled) {
      auditor_.audit(memory_);
      auditor_.audit_view(memory_.read());
    }
  }

  /// Appends a block referencing `refs` (local indices; refs[0] = parent).
  usize append(NodeId author, Vote vote, std::span<const usize> refs, SimTime now, bool byz) {
    const usize idx = recs_.size();
    ref_ids_.clear();
    bool retired = false;
    for (const usize r : refs) {
      ref_ids_.push_back(recs_[r].id);
      if (recs_[r].first_referrer == kNone) {
        recs_[r].first_referrer = idx;
        retired = true;
      }
    }
    Rec rec;
    rec.id = memory_.append(author, vote, /*payload=*/0, ref_ids_, now);
    rec.time = now;
    rec.byz = byz;
    rec.depth = refs.empty() ? 1 : recs_[refs.front()].depth + 1;
    recs_.push_back(rec);

    if (retired) drop_referenced(true_tips_, recs_.size());
    true_tips_.push_back(idx);
    if (rec.depth >= deepest_depth_) {
      deepest_depth_ = rec.depth;
      deepest_idx_ = idx;
    }
    return idx;
  }

  usize size() const { return recs_.size(); }
  bool byz(usize i) const { return recs_[i].byz; }
  u32 depth(usize i) const { return recs_[i].depth; }

  /// Deepest block of the true current view (dump target); size() must be > 0.
  usize deepest() const { return deepest_idx_; }

  /// True current tips (the adversary's rushing view), ascending.
  const std::vector<usize>& true_tips() const { return true_tips_; }

  /// Tips of the view as of `horizon` (correct nodes' stale read),
  /// ascending. The frontier only moves forward; callers must pass
  /// non-decreasing horizons.
  const std::vector<usize>& stale_tips(SimTime horizon) {
    const usize before = stale_end_;
    while (stale_end_ < recs_.size() && recs_[stale_end_].time < horizon) {
      stale_tips_.push_back(stale_end_++);
    }
    if (stale_end_ != before) drop_referenced(stale_tips_, stale_end_);
    return stale_tips_;
  }

 private:
  static constexpr usize kNone = ~usize{0};

  struct Rec {
    am::MsgId id;
    SimTime time = 0.0;
    usize first_referrer = kNone;
    u32 depth = 1;
    bool byz = false;
  };

  /// Removes the tips referenced by one of the first `view_end` records.
  void drop_referenced(std::vector<usize>& tips, usize view_end) const {
    std::erase_if(tips, [&](usize i) { return recs_[i].first_referrer < view_end; });
  }

  am::AppendMemory memory_;
  check::MemoryAuditor auditor_;
  std::vector<Rec> recs_;
  std::vector<am::MsgId> ref_ids_;  ///< the next append's references, reused
  std::vector<usize> true_tips_;
  std::vector<usize> stale_tips_;
  usize stale_end_ = 0;
  u32 deepest_depth_ = 0;
  usize deepest_idx_ = 0;
};

/// One thread's DAG trial workspace. run_dag_continuous resets it at trial
/// start, so a trial's memory, graph and buffers keep their capacity for
/// the thread's next trial. Nothing of one trial survives reset():
/// outcomes stay a function of (params, rng).
struct Workspace {
  explicit Workspace(u32 node_count) : state(node_count) {}

  void reset(u32 node_count) {
    state.reset(node_count);
    graph.clear();
    refs.clear();
    delayed.clear();
  }

  DagState state;
  /// The full-ordering decide's graph (Algorithm 6 line 9).
  chain::BlockGraph graph;
  /// The references of the next append: a tip list, parent first.
  std::vector<usize> refs;
  /// Correct tokens exercised late under temporary asynchrony, in release
  /// order (token times only grow): (release time, holder).
  std::vector<std::pair<SimTime, NodeId>> delayed;
};

Workspace& workspace(u32 node_count) {
  thread_local Workspace ws(node_count);
  ws.reset(node_count);
  return ws;
}

/// Chooses the parent (refs[0]) among tips: the deepest one, ties toward
/// the oldest — the longest-chain attachment every cited DAG rule uses.
void order_parent_first(const DagState& st, std::vector<usize>& tips) {
  AMM_EXPECTS(!tips.empty());
  usize best = 0;
  for (usize i = 1; i < tips.size(); ++i) {
    if (st.depth(tips[i]) > st.depth(tips[best])) best = i;
  }
  std::swap(tips[0], tips[best]);
}

}  // namespace

DagResult run_dag_continuous(const DagParams& params, Rng rng) {
  const Scenario& s = params.scenario;
  s.validate();
  AMM_EXPECTS(params.k > 0 && params.k % 2 == 1);

  Workspace& ws = workspace(s.n);
  DagState& st = ws.state;
  sched::TokenSource tokens(s.n, params.lambda, params.delta, params.weights,
                            Rng::for_stream(rng.next(), 1));

  const Vote byz_vote = opposite(s.correct_input);

  // Withholding bookkeeping (Lemma 5.5). The adversary banks tokens inside
  // the current quiet interval (no correct appends) and dumps a private
  // chain once the bank can push the ordered value count to k. The banking
  // window W caps how early the rate-and-withhold adversary stops spending
  // tokens on the rate attack.
  const u64 ambition = static_cast<u64>(
      std::ceil(6.0 * params.lambda * std::log(static_cast<double>(s.n) + 1.0))) + 4;
  const u64 window = params.adversary == DagAdversary::kRateAndWithhold
                         ? std::min<u64>(params.k - 1, ambition)
                         : params.k;  // withhold-only banks from the start

  u64 public_count = 0;   // blocks in the public DAG (correct + Byzantine rate)
  u64 byz_public = 0;     // Byzantine blocks among them
  u64 bank = 0;           // withheld tokens in the current quiet interval
  u64 gap_byz_tokens = 0; // all Byzantine tokens in the current gap (omniscient stat)
  u64 omniscient = 0;     // max over gaps of min(gap tokens, k - public_count)
  SimTime last_correct = 0.0;

  DagResult result;

  auto decide_fast = [&](u64 dumped) {
    const u64 byz_in_cut = byz_public + dumped;
    AMM_ASSERT(byz_in_cut <= params.k);
    const i64 sum =
        static_cast<i64>(params.k - byz_in_cut) - static_cast<i64>(byz_in_cut);
    const Vote decision =
        sum >= 0 ? s.correct_input : opposite(s.correct_input);
    Outcome& out = result.outcome;
    out.terminated = true;
    out.decisions.assign(s.correct_count(), decision);
    out.total_appends = st.size();
    out.byz_in_decision_set = byz_in_cut;
    out.decision_set_size = params.k;
  };

  auto decide_full = [&] {
    // Exact Algorithm 6 lines 9–10: linearize the whole DAG along the
    // pivot chain and take the first k values of the ordering.
    const am::MemoryView view = st.memory().read();
    ws.graph.extend(view);
    check::check_graph(ws.graph);
    const std::vector<am::MsgId> order = chain::linearize_dag(ws.graph, params.pivot_rule);
    i64 sum = 0;
    u64 byz_in_cut = 0;
    const u32 cut = std::min<u32>(params.k, static_cast<u32>(order.size()));
    for (u32 i = 0; i < cut; ++i) {
      const am::Message& m = view.msg(order[i]);
      sum += vote_value(m.value);
      if (s.is_byzantine(NodeId{m.id.author})) ++byz_in_cut;
    }
    Outcome& out = result.outcome;
    out.terminated = true;
    out.decisions.assign(s.correct_count(), sign_decision(sum));
    out.total_appends = st.size();
    out.byz_in_decision_set = byz_in_cut;
    out.decision_set_size = cut;
  };

  std::vector<usize>& refs = ws.refs;

  // Temporary asynchrony (the §5.3 closing remark): correct tokens near the
  // decision cut are exercised late; they queue in ws.delayed until
  // release, consumed from a moving head.
  usize released = 0;
  const u64 async_window = params.async_window != 0 ? params.async_window : window;

  u64 steps = 0;
  bool decided = false;

  auto finish = [&](u64 dumped, SimTime at) {
    st.audit();
    result.omniscient_bound = omniscient;
    result.outcome.elapsed = at;
    result.outcome.rounds = steps;
    if (params.full_ordering) {
      decide_full();
    } else {
      decide_fast(dumped);
    }
    decided = true;
  };

  // Applies one correct append at time `when` (closing the quiet interval).
  auto apply_correct = [&](NodeId holder, SimTime when) {
    if (public_count < params.k) {
      omniscient = std::max(omniscient, std::min(gap_byz_tokens, params.k - public_count));
    }
    gap_byz_tokens = 0;
    if (bank > 0 && params.adversary == DagAdversary::kRateAndWithhold) {
      // The dump did not trigger inside this gap. A withheld token is not
      // lost: the adversary simply publishes the banked blocks now (still
      // before this correct append), where the inclusive DAG orders them
      // like ordinary rate-attack blocks. Withholding is therefore never
      // worse than the pure rate attack.
      refs = st.true_tips();
      if (!refs.empty()) order_parent_first(st, refs);
      for (u64 d = 0; d < bank && public_count < params.k; ++d) {
        const usize prev = st.size() - 1;
        const auto r = d == 0 ? std::span<const usize>(refs) : std::span<const usize>(&prev, 1);
        st.append(NodeId{s.n - 1}, byz_vote, r, when, /*byz=*/true);
        ++public_count;
        ++byz_public;
      }
      if (public_count >= params.k) {
        finish(0, when);
        return;
      }
    }
    bank = 0;  // withhold-only: a correct append outruns the private chain
    last_correct = when;

    refs = st.stale_tips(when - params.delta);
    if (!refs.empty()) order_parent_first(st, refs);
    st.append(holder, s.correct_input, refs, when, /*byz=*/false);
    ++public_count;
    if (public_count >= params.k) finish(0, when);
  };

  sched::Token lookahead = tokens.next();
  while (steps < params.max_tokens && !decided) {
    ++steps;
    // Release any delayed correct append that precedes the next token.
    if (released < ws.delayed.size() && ws.delayed[released].first <= lookahead.time) {
      const auto [when, holder] = ws.delayed[released++];
      apply_correct(holder, when);
      continue;
    }

    const sched::Token token = lookahead;
    lookahead = tokens.next();

    if (s.is_byzantine(token.holder)) {
      ++gap_byz_tokens;
      const bool banking = params.adversary != DagAdversary::kHonestOpposite &&
                           public_count + window >= params.k;
      if (banking) {
        ++bank;
        if (public_count + bank >= params.k) {
          // Dump: release a private chain extending the current deepest tip.
          // The first withheld block references all current tips so every
          // public block is ordered before it; the rest chain linearly.
          const u64 need = params.k - public_count;
          refs = st.true_tips();
          if (!refs.empty()) order_parent_first(st, refs);
          usize prev = 0;
          for (u64 d = 0; d < need; ++d) {
            const auto r = d == 0 ? std::span<const usize>(refs) : std::span<const usize>(&prev, 1);
            prev = st.append(token.holder, byz_vote, r, token.time, /*byz=*/true);
          }
          result.dumped = need;
          result.final_gap = token.time - last_correct;
          omniscient = std::max(omniscient, need);
          finish(need, token.time);
        }
      } else if (params.adversary != DagAdversary::kWithholdOnly) {
        // Rate attack: protocol-following append voting the opposite value,
        // on the adversary's true (rushing) view.
        refs = st.true_tips();
        if (!refs.empty()) order_parent_first(st, refs);
        st.append(token.holder, byz_vote, refs, token.time, /*byz=*/true);
        ++public_count;
        ++byz_public;
      }
      continue;
    }

    // Correct token: under temporary asynchrony near the cut, the append
    // happens async_delay late; otherwise immediately.
    const bool async_active =
        params.async_delay > 0.0 && public_count + async_window >= params.k;
    if (async_active) {
      ws.delayed.emplace_back(token.time + params.async_delay, token.holder);
    } else {
      apply_correct(token.holder, token.time);
    }
  }
  if (decided) return result;

  result.outcome.terminated = false;
  result.outcome.decisions.assign(s.correct_count(), std::nullopt);
  result.outcome.total_appends = st.size();
  return result;
}

}  // namespace amm::proto
