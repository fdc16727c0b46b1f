// Self-test of the benchmark itself (amm_perfbench --self-test):
//
//   1. The checks reject seeded violations — a dropped acked record, a wrong
//      value, an under-replicated append, a flipped or short decision — and
//      accept the clean inputs; the Algorithm 6 reference agrees with
//      net::decide_first_k on random views.
//   2. The decorators pass calls through unchanged: a traced and an untraced
//      fixed-size run of one seed send the same messages and bytes and issue
//      the same fsyncs.
//   3. The traced run's layer self times add up to its wall time: the spans
//      cover at least 95% of it.
#include "checks.hpp"
#include "net/decision.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

namespace mp = amm::mp;

int g_failures = 0;  // NOLINT(cppcoreguidelines-avoid-non-const-global-variables)

void expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

std::vector<mp::SignedAppend> full_view(const AckedSet& acked, u64 seed) {
  std::vector<mp::SignedAppend> view;
  for (u32 a = 0; a < acked.issued.size(); ++a) {
    for (u32 seq = 0; seq < acked.issued[a]; ++seq) {
      mp::SignedAppend rec;
      rec.author = amm::NodeId{a};
      rec.seq = seq;
      rec.value = value_of(seed, a, seq);
      view.push_back(rec);
    }
  }
  return view;
}

void check_checkers() {
  constexpr u64 kSeed = 7;
  AckedSet acked;
  acked.issued = {40, 41, 39};
  acked.unacked = {{}, {40}, {}};
  const std::vector<mp::SignedAppend> view = full_view(acked, kSeed);

  expect(count_missing(acked, holdings_of(acked, view, 0, kSeed)) == 0,
         "Lemma 4.2 check accepts a complete view");
  std::vector<mp::SignedAppend> dropped = view;
  dropped.erase(dropped.begin() + 17);
  expect(count_missing(acked, holdings_of(acked, dropped, 0, kSeed)) == 1,
         "Lemma 4.2 check rejects a dropped acked record");
  std::vector<mp::SignedAppend> unacked_gone = view;
  std::erase_if(unacked_gone, [](const auto& r) { return r.author.index == 1 && r.seq == 40; });
  expect(count_missing(acked, holdings_of(acked, unacked_gone, 0, kSeed)) == 0,
         "Lemma 4.2 check ignores an append that was never acked");
  std::vector<mp::SignedAppend> corrupt = view;
  corrupt[5].value += 1;
  expect(count_missing(acked, holdings_of(acked, corrupt, 0, kSeed)) == 1,
         "Lemma 4.2 check rejects a wrong value");
  std::vector<mp::SignedAppend> suffix = view;
  std::erase_if(suffix, [](const auto& r) { return r.seq < 16; });
  expect(count_missing(acked, holdings_of(acked, suffix, 16, kSeed)) == 0,
         "Lemma 4.2 check counts records below the fold as held");
  expect(count_missing(acked, holdings_of(acked, suffix, 15, kSeed)) == 3,
         "Lemma 4.2 check rejects records missing just above the fold");

  const Holdings full = holdings_of(acked, view, 0, kSeed);
  const Holdings lost = holdings_of(acked, dropped, 0, kSeed);
  expect(count_under_replicated(acked, {full, full, lost}, 2) == 0,
         "durability check accepts a record lost on one node of three");
  expect(count_under_replicated(acked, {full, lost, lost}, 2) == 1,
         "durability check rejects a record lost on two nodes of three");

  // Algorithm 6: decisions from net::decide_first_k pass; a flipped sign or
  // a short cut fails.
  std::vector<DecideRecord> decisions;
  for (u32 k = 1; k <= view.size(); k += 2) {
    const amm::net::Decision d = amm::net::decide_first_k(view, k);
    decisions.push_back(DecideRecord{k, d.sign, d.decided_over});
  }
  expect(count_wrong_decisions(view, decisions) == 0,
         "Algorithm 6 reference agrees with decide_first_k for every odd k");
  std::vector<DecideRecord> flipped = decisions;
  flipped[11].sign = -flipped[11].sign;
  expect(count_wrong_decisions(view, flipped) == 1, "Algorithm 6 check rejects a flipped decision");
  std::vector<DecideRecord> short_cut = decisions;
  short_cut[3].decided_over -= 1;
  expect(count_wrong_decisions(view, short_cut) == 1,
         "Algorithm 6 check rejects a decision over fewer than k records");

  // Random interleavings: the reference is order-independent like the rule.
  amm::Rng rng(kSeed);
  bool agree = true;
  for (int round = 0; round < 50; ++round) {
    std::vector<mp::SignedAppend> shuffled = view;
    for (usize i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.uniform_below(i)]);
    }
    const u32 k = 2 * static_cast<u32>(rng.uniform_below(view.size() / 2)) + 1;
    const amm::net::Decision d = amm::net::decide_first_k(shuffled, k);
    agree = agree && count_wrong_decisions(shuffled, {DecideRecord{k, d.sign, d.decided_over}}) == 0;
  }
  expect(agree, "Algorithm 6 reference agrees with decide_first_k on shuffled views");
}

void check_decorators(const Options& base) {
  constexpr u64 kOps = 6000;
  for (const char* workload : {"append_mem", "append_durable", "read_decide"}) {
    Options opt = base;
    opt.workload = workload;
    opt.seed = 11;
    opt.trace = false;
    const FixedRun plain = run_cluster_fixed(opt, kOps);
    opt.trace = true;
    const FixedRun traced = run_cluster_fixed(opt, kOps);
    const std::string w = workload;
    expect(plain.ok && traced.ok,
           w + ": fixed runs complete with messages == 6 x (appends + reads + fallbacks)");
    expect(plain.ops == traced.ops && plain.messages == traced.messages,
           w + ": traced and untraced runs send the same messages (" +
               std::to_string(plain.messages) + " / " + std::to_string(traced.messages) + ")");
    if (w != "read_decide") {  // delta-read replies carry what is in flight: sizes vary
      expect(plain.bytes == traced.bytes, w + ": traced and untraced runs send the same bytes (" +
                                              std::to_string(plain.bytes) + " / " +
                                              std::to_string(traced.bytes) + ")");
    }
    expect(plain.fsyncs == traced.fsyncs,
           w + ": traced and untraced runs issue the same fsyncs (" +
               std::to_string(plain.fsyncs) + " / " + std::to_string(traced.fsyncs) + ")");
    expect(traced.span_coverage >= 0.95 && traced.span_coverage <= 1.0,
           w + ": layer self times cover the traced wall time (" +
               std::to_string(traced.span_coverage) + ")");
  }
}

}  // namespace

int run_self_test(const Options& opt) {
  check_checkers();
  check_decorators(opt);
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "self-test passed" : "self-test FAILED",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
