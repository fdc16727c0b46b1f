// In-process TCP transport tests: a real loopback cluster of TcpTransports
// pumped round-robin from the test thread (the transport is a
// single-threaded reactor, so driving several of them from one thread is
// the supported composition). The same AbdNode code that the simulated
// Network drives runs here over real sockets — the transport seam's
// correctness condition.
#include "net/transport.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <memory>

#include "mp/abd.hpp"
#include "mp/network.hpp"
#include "net/decision.hpp"

namespace amm::net {
namespace {

using namespace std::chrono_literals;

/// A loopback cluster on ephemeral ports, fully wired.
struct TcpCluster {
  explicit TcpCluster(u32 n, u64 seed = 1) : keys(n, seed) {
    for (u32 i = 0; i < n; ++i) {
      TransportConfig config;
      config.self = NodeId{i};
      config.peers.assign(n, Endpoint{"127.0.0.1", 0});
      config.backoff_base = 5ms;  // tests should not wait out production backoff
      config.backoff_max = 50ms;
      transports.push_back(
          std::make_unique<TcpTransport>(config, keys, Rng::for_stream(seed, i)));
      EXPECT_TRUE(transports.back()->start());
    }
    for (u32 i = 0; i < n; ++i) {
      for (u32 j = 0; j < n; ++j) {
        transports[i]->set_peer_endpoint(NodeId{j},
                                         Endpoint{"127.0.0.1", transports[j]->listen_port()});
      }
    }
    for (auto& transport : transports) transport->connect_peers();
  }

  /// Pumps every transport until `done` or the deadline; returns done().
  bool pump_until(const std::function<bool()>& done,
                  std::chrono::milliseconds budget = 5000ms) {
    const auto deadline = std::chrono::steady_clock::now() + budget;
    while (std::chrono::steady_clock::now() < deadline) {
      for (auto& transport : transports) transport->poll_once(1ms);
      if (done()) return true;
    }
    return done();
  }

  crypto::KeyRegistry keys;
  std::vector<std::unique_ptr<TcpTransport>> transports;
};

TEST(TcpTransport, AbdAppendAndReadOverRealSockets) {
  TcpCluster cluster(3);
  std::vector<std::unique_ptr<mp::AbdNode>> nodes;
  for (u32 i = 0; i < 3; ++i) {
    nodes.push_back(std::make_unique<mp::AbdNode>(NodeId{i}, *cluster.transports[i],
                                                  cluster.keys));
  }

  bool append_done = false;
  nodes[0]->begin_append(42, [&] { append_done = true; });
  ASSERT_TRUE(cluster.pump_until([&] { return append_done; }));

  std::vector<mp::SignedAppend> result;
  bool read_done = false;
  nodes[2]->begin_read([&](const std::vector<mp::SignedAppend>& view) {
    result = view;
    read_done = true;
  });
  ASSERT_TRUE(cluster.pump_until([&] { return read_done; }));
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].value, 42);
  EXPECT_EQ(result[0].author, NodeId{0});

  // §4 accounting: an append is one broadcast (n messages incl. self).
  EXPECT_GE(cluster.transports[0]->messages_sent(), 3u);
}

TEST(TcpTransport, PipelinedAppendsAndDeltaReadsOverRealSockets) {
  // Many appends issued back-to-back without waiting: the pipeline keeps
  // several in flight over the sockets and all complete; a subsequent read
  // is served from frontiers (delta mode is the default config).
  TcpCluster cluster(3);
  std::vector<std::unique_ptr<mp::AbdNode>> nodes;
  for (u32 i = 0; i < 3; ++i) {
    nodes.push_back(std::make_unique<mp::AbdNode>(NodeId{i}, *cluster.transports[i],
                                                  cluster.keys));
  }

  constexpr u32 kAppends = 48;
  u32 completed = 0;
  for (u32 v = 0; v < kAppends; ++v) {
    nodes[0]->begin_append(static_cast<i64>(v), [&] { ++completed; });
  }
  EXPECT_GT(nodes[0]->appends_in_flight(), 1u);  // actually pipelined
  EXPECT_EQ(nodes[0]->appends_in_flight() + nodes[0]->appends_queued(), kAppends);
  ASSERT_TRUE(cluster.pump_until([&] { return completed == kAppends; }));

  // Warm read syncs node 2's view; the second read's replies are deltas.
  for (int round = 0; round < 2; ++round) {
    std::vector<mp::SignedAppend> result;
    bool read_done = false;
    nodes[2]->begin_read([&](const std::vector<mp::SignedAppend>& view) {
      result = view;
      read_done = true;
    });
    ASSERT_TRUE(cluster.pump_until([&] { return read_done; }));
    ASSERT_EQ(result.size(), kAppends);
    // Submission order is preserved per author (the §1.1 register order).
    for (const mp::SignedAppend& rec : result) {
      EXPECT_EQ(static_cast<i64>(rec.seq), rec.value);
    }
  }
  u64 delta_served = 0, records_sent = 0;
  for (const auto& node : nodes) {
    delta_served += node->stats().reads_served_delta;
    records_sent += node->stats().read_records_sent;
  }
  EXPECT_GT(delta_served, 0u);
  // The second read was fully synced: far fewer records shipped than two
  // full-view reads (2 reads x 3 replies x 48 records = 288) would cost.
  EXPECT_LT(records_sent, 2u * 3u * kAppends);
}

TEST(TcpTransport, AppendCompletesWithMinorityDown) {
  // 3-node cluster, one transport never started its node: quorum 2 of 3
  // still completes — the Lemma 4.2 liveness condition on real sockets.
  TcpCluster cluster(3);
  std::vector<std::unique_ptr<mp::AbdNode>> nodes;
  for (u32 i = 0; i < 2; ++i) {
    nodes.push_back(std::make_unique<mp::AbdNode>(NodeId{i}, *cluster.transports[i],
                                                  cluster.keys));
  }
  cluster.transports[2]->stop();  // node 2 is dead

  bool append_done = false;
  nodes[0]->begin_append(7, [&] { append_done = true; });
  EXPECT_TRUE(cluster.pump_until([&] { return append_done; }));
}

TEST(TcpTransport, ReconnectsAfterKickAndDeliversQueuedFrames) {
  TcpCluster cluster(2);
  std::vector<std::unique_ptr<mp::AbdNode>> nodes;
  for (u32 i = 0; i < 2; ++i) {
    nodes.push_back(std::make_unique<mp::AbdNode>(NodeId{i}, *cluster.transports[i],
                                                  cluster.keys));
  }
  ASSERT_TRUE(
      cluster.pump_until([&] { return cluster.transports[0]->connected_outbound() == 1; }));

  cluster.transports[0]->kick_outbound();
  cluster.transports[1]->kick_outbound();

  // An append begun while the links are down must still complete: frames
  // queue per peer and flush after the backoff redial.
  bool append_done = false;
  nodes[0]->begin_append(5, [&] { append_done = true; });
  ASSERT_TRUE(cluster.pump_until([&] { return append_done; }));
  EXPECT_GE(cluster.transports[0]->reconnects(), 1u);
}

TEST(TcpTransport, UnauthenticatedHelloDropped) {
  TcpCluster cluster(2, /*seed=*/1);
  // An impostor with a *different* key universe dials node 0 and claims to
  // be node 1. Its hello signature cannot verify against the cluster's
  // registry, so the session must die with auth_rejects == 1.
  crypto::KeyRegistry foreign_keys(2, /*seed=*/999);
  TransportConfig config;
  config.self = NodeId{1};
  config.peers.assign(2, Endpoint{"127.0.0.1", 0});
  config.backoff_base = 5ms;
  TcpTransport impostor(config, foreign_keys, Rng(3));
  ASSERT_TRUE(impostor.start());
  impostor.set_peer_endpoint(NodeId{0},
                             Endpoint{"127.0.0.1", cluster.transports[0]->listen_port()});
  impostor.connect_peers();

  mp::WireMessage probe;
  probe.kind = mp::WireMessage::Kind::kReadReq;
  probe.read_id = 1;
  impostor.send(NodeId{1}, NodeId{0}, probe);

  u64 handler_calls = 0;
  cluster.transports[0]->attach(NodeId{0},
                                [&](NodeId, const mp::WireMessage&) { ++handler_calls; });

  const auto deadline = std::chrono::steady_clock::now() + 1000ms;
  while (std::chrono::steady_clock::now() < deadline &&
         cluster.transports[0]->auth_rejects() == 0) {
    impostor.poll_once(1ms);
    cluster.transports[0]->poll_once(1ms);
  }
  EXPECT_GE(cluster.transports[0]->auth_rejects(), 1u);
  EXPECT_EQ(handler_calls, 0u);
}

/// Forwards every call unchanged, like a tracing or fault-injecting
/// wrapper. A node behind it must refuse forgeries exactly as it does on
/// the bare transport.
class PassThrough final : public mp::Transport {
 public:
  explicit PassThrough(mp::Transport& inner) : inner_(&inner) {}
  u32 node_count() const override { return inner_->node_count(); }
  void attach(NodeId id, Handler handler) override { inner_->attach(id, std::move(handler)); }
  void send(NodeId from, NodeId to, mp::WireMessage msg) override {
    inner_->send(from, to, std::move(msg));
  }
  void broadcast(NodeId from, const mp::WireMessage& msg) override { inner_->broadcast(from, msg); }
  u64 messages_sent() const override { return inner_->messages_sent(); }
  u64 bytes_sent() const override { return inner_->bytes_sent(); }

 private:
  mp::Transport* inner_;
};

enum class Path { kSimulated, kTcp, kDecoratedTcp };

/// Three nodes on one path: node 0 is a correct AbdNode (the victim), node 1
/// is the test acting as a Byzantine peer, node 2 has crashed. Node 0 then
/// finishes no quorum operation without node 1, so a forgery that slipped
/// through would decide the outcome.
struct Lemma41Harness {
  explicit Lemma41Harness(Path path) {
    if (path == Path::kSimulated) {
      sim = std::make_unique<mp::Network>(3, 0.1, 1.0, Rng(41));
      transports.assign(3, sim.get());
    } else {
      tcp = std::make_unique<TcpCluster>(3, kSeed);
      for (const auto& transport : tcp->transports) {
        transports.push_back(transport.get());
        if (path == Path::kDecoratedTcp) {
          wrapped.push_back(std::make_unique<PassThrough>(*transport));
          transports.back() = wrapped.back().get();
        }
      }
    }
    transports[1]->attach(NodeId{1}, [this](NodeId, const mp::WireMessage& msg) {
      received[msg.kind] = msg;
    });
    crashed = std::make_unique<mp::CrashedNode>(NodeId{2}, *transports[2]);
    victim = std::make_unique<mp::AbdNode>(NodeId{0}, *transports[0], keys);
  }

  /// The simulator runs to quiescence; TCP pumps until `done` or timeout.
  bool pump_until(const std::function<bool()>& done) {
    if (!sim) return tcp->pump_until(done);
    sim->queue().run();
    return done();
  }

  /// The last message of `kind` the victim sent to node 1.
  mp::WireMessage await(mp::WireMessage::Kind kind) {
    EXPECT_TRUE(pump_until([&] { return received.contains(kind); }));
    return received[kind];
  }

  /// Sends `msg` from node 1 to the victim and pumps until `handled`.
  void deliver(mp::WireMessage msg, const std::function<bool()>& handled) {
    transports[1]->send(NodeId{1}, NodeId{0}, std::move(msg));
    EXPECT_TRUE(pump_until(handled));
  }

  /// Sends a forgery and pumps until the victim has refused it.
  void deliver_forgery(mp::WireMessage msg) {
    const u64 before = victim->stats().sig_rejects;
    deliver(std::move(msg), [&] { return victim->stats().sig_rejects > before; });
  }

  mp::SignedAppend record(NodeId author, i64 value, NodeId signer) const {
    mp::SignedAppend rec;
    rec.author = author;
    rec.value = value;
    rec.sig = keys.sign(signer, rec.digest());
    return rec;
  }

  bool holds(i64 value) const {
    const auto& view = victim->local_view();
    return std::any_of(view.begin(), view.end(),
                       [&](const mp::SignedAppend& r) { return r.value == value; });
  }

  static constexpr u64 kSeed = 1;
  crypto::KeyRegistry keys{3, kSeed};  // the same keys the TcpCluster derives
  std::unique_ptr<mp::Network> sim;
  std::unique_ptr<TcpCluster> tcp;
  std::vector<std::unique_ptr<PassThrough>> wrapped;
  std::vector<mp::Transport*> transports;
  std::map<mp::WireMessage::Kind, mp::WireMessage> received;  ///< by node 1
  std::unique_ptr<mp::CrashedNode> crashed;
  std::unique_ptr<mp::AbdNode> victim;  // last: detached before the transports die
};

/// One forgery per signed message kind, plus a forged copy of a record the
/// victim already holds: it must have no effect on the victim, and valid
/// traffic around it must still take effect.
const std::pair<const char*, void (*)(Lemma41Harness&)> kForgeries[] = {
    {"kAppend signed by a node other than its author",
     [](Lemma41Harness& h) {
       mp::WireMessage append;
       append.kind = mp::WireMessage::Kind::kAppend;
       append.append = h.record(NodeId{2}, -1, /*signer=*/NodeId{1});
       h.deliver_forgery(append);
       EXPECT_FALSE(h.holds(-1));

       append.append = h.record(NodeId{1}, 1, NodeId{1});
       h.deliver(append, [&] { return h.holds(1); });
     }},
    {"kAck signed by a node other than its sender",
     [](Lemma41Harness& h) {
       bool appended = false;
       h.victim->begin_append(7, [&] { appended = true; });
       mp::WireMessage ack;
       ack.kind = mp::WireMessage::Kind::kAck;
       ack.append = h.await(mp::WireMessage::Kind::kAppend).append;
       // Node 2's genuine ack, relayed by node 1: it must not count as a vote.
       ack.ack_sig = h.keys.sign(NodeId{2}, ack.append.digest());
       h.deliver_forgery(ack);
       EXPECT_FALSE(appended);

       ack.ack_sig = h.keys.sign(NodeId{1}, ack.append.digest());
       h.deliver(ack, [&] { return appended; });
     }},
    {"kAppend repeating a held (author, seq) with another value",
     [](Lemma41Harness& h) {
       mp::WireMessage append;
       append.kind = mp::WireMessage::Kind::kAppend;
       append.append = h.record(NodeId{1}, 1, NodeId{1});
       h.deliver(append, [&] { return h.holds(1); });

       // The genuine record's signature over another value in the same
       // (author, seq) slot. The slot is already held, so only a check that
       // runs before deduplication can refuse and count it.
       append.append.value = -1;
       h.deliver_forgery(append);
       EXPECT_FALSE(h.holds(-1));
       EXPECT_TRUE(h.holds(1));
       EXPECT_EQ(h.victim->local_view().size(), 1u);
     }},
    {"kReadReply with one forged record among valid ones",
     [](Lemma41Harness& h) {
       std::vector<mp::SignedAppend> result;
       h.victim->begin_read([&](const std::vector<mp::SignedAppend>& view) { result = view; });
       const mp::WireMessage request = h.await(mp::WireMessage::Kind::kReadReq);
       mp::WireMessage reply;
       reply.kind = mp::WireMessage::Kind::kReadReply;
       reply.read_id = request.read_id;
       reply.frontier_echo = mp::frontier_digest(request.frontier);
       mp::SignedAppend forged = h.record(NodeId{2}, -1, NodeId{2});
       forged.seq = 1;  // node 2's genuine signature, over another record
       reply.view = {h.record(NodeId{1}, 1, NodeId{1}), forged, h.record(NodeId{2}, 2, NodeId{2})};
       h.deliver_forgery(reply);
       EXPECT_EQ(result.size(), 2u);  // the read completed on this reply
       EXPECT_TRUE(h.holds(1) && h.holds(2));
       EXPECT_FALSE(h.holds(-1));
     }},
    {"kCheckpointReply signed by a node other than the responder",
     [](Lemma41Harness& h) {
       bool synced = false;
       h.victim->begin_checkpoint_sync([&](bool ok) { synced = ok; });
       mp::WireMessage reply;
       reply.kind = mp::WireMessage::Kind::kCheckpointReply;
       reply.read_id = h.await(mp::WireMessage::Kind::kCheckpointReq).read_id;
       // Node 2's checkpoint agrees with the victim's own, so counting it
       // would complete the sync.
       reply.checkpoint.sig = h.keys.sign(NodeId{2}, reply.checkpoint.digest());
       h.deliver_forgery(reply);
       EXPECT_FALSE(synced);

       reply.checkpoint.sig = h.keys.sign(NodeId{1}, reply.checkpoint.digest());
       h.deliver(reply, [&] { return synced; });
     }},
};

TEST(Lemma41, ForgeriesRejectedOnEveryTransport) {
  // AbdNode is the one place that checks signatures, so every path into
  // it — the simulator, bare TCP and a decorator over TCP — refuses the
  // same forgeries and counts them the same way.
  for (const auto& [forgery, run] : kForgeries) {
    SCOPED_TRACE(forgery);
    std::vector<u64> rejects;
    for (const auto& [path, name] : {std::pair{Path::kSimulated, "mp::Network"},
                                     std::pair{Path::kTcp, "TcpTransport"},
                                     std::pair{Path::kDecoratedTcp, "PassThrough(TcpTransport)"}}) {
      SCOPED_TRACE(name);
      Lemma41Harness harness(path);
      run(harness);
      rejects.push_back(harness.victim->stats().sig_rejects);
    }
    EXPECT_EQ(rejects, std::vector<u64>(3, 1u));
  }
}

TEST(TcpTransport, DecisionRuleAgreesAcrossNodes) {
  // Replicate a handful of appends, then apply Algorithm 6's decision rule
  // at two different nodes: identical views ⇒ identical decisions.
  TcpCluster cluster(3);
  std::vector<std::unique_ptr<mp::AbdNode>> nodes;
  for (u32 i = 0; i < 3; ++i) {
    nodes.push_back(std::make_unique<mp::AbdNode>(NodeId{i}, *cluster.transports[i],
                                                  cluster.keys));
  }
  for (int v : {1, -2, 3, -4, 5}) {
    bool done = false;
    nodes[static_cast<u32>(v > 0 ? 0 : 1)]->begin_append(v, [&] { done = true; });
    ASSERT_TRUE(cluster.pump_until([&] { return done; }));
  }

  std::vector<Decision> decisions;
  for (const u32 reader : {0u, 2u}) {
    bool done = false;
    nodes[reader]->begin_read([&](const std::vector<mp::SignedAppend>& view) {
      decisions.push_back(decide_first_k(view, 5));
      done = true;
    });
    ASSERT_TRUE(cluster.pump_until([&] { return done; }));
  }
  ASSERT_EQ(decisions.size(), 2u);
  EXPECT_EQ(decisions[0].sign, decisions[1].sign);
  EXPECT_EQ(decisions[0].decided_over, 5u);
  EXPECT_NE(decisions[0].sign, 0);
}

}  // namespace
}  // namespace amm::net
