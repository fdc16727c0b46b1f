// Running the append memory over a real (simulated) asynchronous network:
// the §4 ABD-style simulation with crashes and an active forger.
//
//   ./examples/abd_replication [--n 7] [--crashed 2] [--ops 20]
//
// Shows: operation latencies under random message delays, liveness with a
// crashed minority, signature-based rejection of forged records, and the
// message/byte bill the append memory model abstracts away.
#include <iostream>
#include <memory>

#include "exp/harness.hpp"
#include "mp/abd.hpp"
#include "mp/network.hpp"

using namespace amm;

int main(int argc, char** argv) {
  u32 n = 7;
  u32 crashed = 2;
  u32 ops = 20;
  exp::Harness h(argc, argv, "example: ABD simulation of the append memory", 1,
                 [&](OptionSet& opts) {
                   opts.add_u32("n", &n, "nodes, one of them the forger");
                   opts.add_u32("crashed", &crashed, "crashed nodes, at most n - 2");
                   opts.add_u32("ops", &ops, "operations issued by correct nodes");
                   // At least one correct node besides the forger.
                   opts.require([&] { return n >= 2 && crashed <= n - 2; },
                                "need --crashed <= --n - 2");
                 });
  if (crashed + 1 >= (n + 1) / 2 && crashed >= n / 2) {
    std::cout << "warning: crashed >= n/2 — operations will block (that's the point!)\n";
  }

  crypto::KeyRegistry keys(n, h.seed);
  mp::Network net(n, /*min_delay=*/0.05, /*max_delay=*/0.8, Rng(h.seed + 1));

  std::vector<std::unique_ptr<mp::AbdNode>> nodes;
  const u32 correct = n - crashed - 1;  // one slot for the forger
  for (u32 i = 0; i < correct; ++i) {
    nodes.push_back(std::make_unique<mp::AbdNode>(NodeId{i}, net, keys));
  }
  std::vector<std::unique_ptr<mp::CrashedNode>> dead;
  for (u32 i = correct; i < n - 1; ++i) {
    dead.push_back(std::make_unique<mp::CrashedNode>(NodeId{i}, net));
  }
  mp::ForgerNode forger(NodeId{n - 1}, /*victim=*/NodeId{0}, net, keys);

  std::cout << n << " nodes: " << correct << " correct, " << crashed << " crashed, 1 forger\n\n";

  Table table({"op", "node", "latency", "msgs", "bytes", "view size after"});
  Rng rng(h.seed + 2);
  for (u32 op = 0; op < ops; ++op) {
    const u32 who = static_cast<u32>(rng.uniform_below(correct));
    const bool do_read = op % 3 == 2;
    const SimTime t0 = net.queue().now();
    const u64 m0 = net.messages_sent(), b0 = net.bytes_sent();
    SimTime done_at = -1.0;
    if (do_read) {
      nodes[who]->begin_read(
          [&](const std::vector<mp::SignedAppend>&) { done_at = net.queue().now(); });
    } else {
      nodes[who]->begin_append(static_cast<i64>(op), [&] { done_at = net.queue().now(); });
    }
    net.queue().run();
    table.add_row({do_read ? "read" : "append", std::to_string(who),
                   done_at >= 0 ? fmt(done_at - t0, 2) : "BLOCKED",
                   std::to_string(net.messages_sent() - m0),
                   std::to_string(net.bytes_sent() - b0),
                   std::to_string(nodes[who]->local_view().size())});
  }
  h.emit(table);

  // Forgery audit: no correct view may contain a record by the victim that
  // the victim never appended.
  u64 victim_records = 0;
  for (const auto& node : nodes) {
    for (const auto& rec : node->local_view()) {
      if (rec.author == NodeId{0} && rec.seq >= nodes[0]->appends_issued()) ++victim_records;
    }
  }
  std::cout << "forged records accepted into correct views: " << victim_records
            << " (must be 0 — Lemma 4.1)\n"
            << "total network bill: " << net.messages_sent() << " messages, " << net.bytes_sent()
            << " bytes for " << ops << " operations\n";
  return 0;
}
