// Isolated micro-benchmarks reported beside the traced run's layer table:
// the codec, KeyRegistry signatures and the Algorithm 6 graph machinery on
// inputs generated from the seed. Each figure is the median of several
// timed repetitions.
#include <algorithm>

#include "am/memory.hpp"
#include "chain/block_graph.hpp"
#include "chain/rules.hpp"
#include "net/codec.hpp"
#include "support/rng.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

volatile u64 g_sink = 0;  // NOLINT(cppcoreguidelines-avoid-non-const-global-variables)

constexpr int kReps = 9;

/// Median over kReps repetitions of the time per call of `fn(i)`, run
/// `calls` times per repetition, in nanoseconds.
template <typename Fn>
double ns_per_call(usize calls, Fn&& fn) {
  std::vector<double> reps;
  for (int r = 0; r < kReps; ++r) {
    const u64 t0 = now_ns();
    for (usize i = 0; i < calls; ++i) fn(i);
    reps.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(calls));
  }
  return median(reps);
}

amm::mp::SignedAppend make_record(const amm::crypto::KeyRegistry& keys, amm::Rng& rng, u32 seq) {
  amm::mp::SignedAppend rec;
  rec.author = amm::NodeId{static_cast<u32>(rng.uniform_below(keys.node_count()))};
  rec.seq = seq;
  rec.value = static_cast<i64>(rng.uniform_below(2001)) - 1000;
  rec.sig = keys.sign(rec.author, rec.digest());
  return rec;
}

/// A DAG shaped like dag_ba's: each append references up to three of the
/// eight newest blocks, with strictly increasing timestamps.
amm::am::AppendMemory build_dag(u32 authors, u32 blocks, amm::Rng& rng) {
  amm::am::AppendMemory memory(authors);
  std::vector<amm::am::MsgId> all;
  all.reserve(blocks);
  for (u32 i = 0; i < blocks; ++i) {
    std::vector<amm::am::MsgId> refs;
    if (!all.empty()) {
      const u64 want = 1 + rng.uniform_below(3);
      for (u64 r = 0; r < want; ++r) {
        const amm::am::MsgId pick =
            all[all.size() - 1 - rng.uniform_below(std::min<usize>(all.size(), 8))];
        if (std::find(refs.begin(), refs.end(), pick) == refs.end()) refs.push_back(pick);
      }
    }
    const auto author = amm::NodeId{static_cast<u32>(rng.uniform_below(authors))};
    const amm::Vote vote = rng.uniform_below(2) == 0 ? amm::Vote::kPlus : amm::Vote::kMinus;
    all.push_back(memory.append(author, vote, 0, std::move(refs), static_cast<amm::SimTime>(i + 1)));
  }
  return memory;
}

}  // namespace

void add_micros(Result& result, u64 seed) {
  amm::Rng rng(seed ^ 0x6d6963726f73ULL);
  const amm::crypto::KeyRegistry keys(3, seed);

  // Codec: one framed kAppend, and decoding a 1000-record read reply.
  std::vector<amm::mp::WireMessage> appends(256);
  for (u32 i = 0; i < appends.size(); ++i) {
    appends[i].kind = amm::mp::WireMessage::Kind::kAppend;
    appends[i].append = make_record(keys, rng, i);
  }
  result.add("net.codec_encode_append_ns", ns_per_call(200'000, [&](usize i) {
               g_sink = g_sink + amm::net::encode_framed_message(appends[i % appends.size()]).size();
             }),
             "ns");
  amm::mp::WireMessage reply;
  reply.kind = amm::mp::WireMessage::Kind::kReadReply;
  reply.read_id = rng.next();
  for (u32 i = 0; i < 1000; ++i) reply.view.push_back(make_record(keys, rng, i));
  const std::vector<u8> payload = amm::net::encode_message(reply);
  result.add("net.codec_decode_reply1k_us", ns_per_call(500, [&](usize) {
               const auto msg = amm::net::decode_message(payload);
               g_sink = g_sink + (msg ? msg->view.size() : 0);
             }) * 1e-3,
             "us");

  // KeyRegistry: sign and verify over varying digests.
  std::vector<u64> digests(1024);
  for (u64& d : digests) d = rng.next();
  std::vector<amm::crypto::Signature> sigs;
  for (u64 i = 0; i < digests.size(); ++i) {
    sigs.push_back(keys.sign(amm::NodeId{static_cast<u32>(i % 3)}, digests[i]));
  }
  result.add("crypto.sign_ns", ns_per_call(200'000, [&](usize i) {
               g_sink = g_sink + keys.sign(amm::NodeId{static_cast<u32>(i % 3)},
                                           digests[i % digests.size()]).tag;
             }),
             "ns");
  result.add("crypto.verify_ns", ns_per_call(200'000, [&](usize i) {
               g_sink = g_sink + (keys.verify(digests[i % digests.size()],
                                              sigs[i % sigs.size()]) ? 1 : 0);
             }),
             "ns");

  // chain: build a 10k-block graph with extend(), then linearize it.
  const amm::am::AppendMemory memory = build_dag(64, 10'000, rng);
  const amm::am::MemoryView view = memory.read();
  std::vector<double> extend_ns;
  std::vector<double> linearize_ns;
  for (int r = 0; r < kReps; ++r) {
    const u64 t0 = now_ns();
    amm::chain::BlockGraph graph;
    graph.extend(view);
    const u64 t1 = now_ns();
    g_sink = g_sink + amm::chain::linearize_dag(graph, amm::chain::PivotRule::kGhost).size();
    const u64 t2 = now_ns();
    extend_ns.push_back(static_cast<double>(t1 - t0));
    linearize_ns.push_back(static_cast<double>(t2 - t1));
  }
  result.add("chain.extend_us", median(extend_ns) * 1e-3, "us");
  result.add("chain.linearize_us", median(linearize_ns) * 1e-3, "us");
}

}  // namespace perfbench
