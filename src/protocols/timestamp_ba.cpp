#include "protocols/timestamp_ba.hpp"

#include <cmath>

#include "am/memory.hpp"
#include "check/audit.hpp"
#include "sched/poisson.hpp"
#include "support/stats.hpp"

namespace amm::proto {

Outcome run_timestamp_ba(const TimestampParams& params, Rng rng) {
  const Scenario& s = params.scenario;
  s.validate();
  AMM_EXPECTS(params.k > 0);
  AMM_EXPECTS(params.k % 2 == 1);  // odd k: the sign of the sum is never zero

  am::AppendMemory memory(s.n);
  sched::TokenAuthority authority(s.n, params.lambda, params.delta,
                                  Rng::for_stream(rng.next(), 1));
  check::MemoryAuditor auditor;

  // Every node loops: read, and on a granted token append its value. The
  // optimal Byzantine strategy (proof of Thm 5.2) appends the opposite of
  // the correct input on every token.
  while (memory.total_appends() < params.k) {
    const sched::Token token = authority.next();
    const Vote vote = s.is_byzantine(token.holder) ? opposite(s.correct_input)
                                                   : s.input_of(token.holder.index);
    memory.append(token.holder, vote, /*payload=*/0, /*refs=*/{}, token.time);
    if constexpr (check::kAuditEnabled) {
      if ((memory.total_appends() & 0x3f) == 0) {
        auditor.audit(memory);
        auditor.audit_view(memory.read());
      }
    }
  }

  // Decision: order all appends by the authority's absolute timestamps and
  // take the sign of the first k. Every node reads the same memory, so all
  // correct nodes compute the identical decision. by_append_time() is one
  // scan of the memory's arrival-ordered log.
  const am::MemoryView view = memory.read();
  auditor.check(memory);
  auditor.check_view(view);
  const std::vector<am::MsgId> ordered = view.by_append_time();
  AMM_ASSERT(ordered.size() >= params.k);

  i64 sum = 0;
  u64 byz = 0;
  for (u32 i = 0; i < params.k; ++i) {
    const am::Message& m = view.msg(ordered[i]);
    sum += vote_value(m.value);
    if (s.is_byzantine(NodeId{m.id.author})) ++byz;
  }
  const Vote decision = sign_decision(sum);

  Outcome out;
  out.terminated = true;
  out.decisions.assign(s.correct_count(), decision);
  out.elapsed = memory.last_append_time();
  out.total_appends = memory.total_appends();
  out.byz_in_decision_set = byz;
  out.decision_set_size = params.k;
  return out;
}

double timestamp_validity_failure_bound(u32 n, u32 t, u32 k) {
  AMM_EXPECTS(t < n && k > 0);
  // Each of the first k appends is Byzantine with probability t/n and
  // contributes -1, else +1. Sum has mean k(n-2t)/n and variance
  // k(1 - ((n-2t)/n)^2); validity fails when the sum goes negative.
  const double gap = static_cast<double>(n) - 2.0 * static_cast<double>(t);
  const double mu = static_cast<double>(k) * gap / static_cast<double>(n);
  const double p_plus = static_cast<double>(n - t) / static_cast<double>(n);
  const double sigma2 = 4.0 * static_cast<double>(k) * p_plus * (1.0 - p_plus);
  if (sigma2 <= 0.0) return mu >= 0.0 ? 0.0 : 1.0;
  return normal_cdf(-mu / std::sqrt(sigma2));
}

}  // namespace amm::proto
