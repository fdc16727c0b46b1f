// The three cluster workloads: a 3-node cluster of real net::TcpTransport +
// mp::AbdNode instances inside this process, pumped round-robin by one
// thread (the composition tests/net/transport_test.cpp uses), so CPU time is
// wall time and the OS scheduler stays out of the numbers. No delay is
// injected: latency is processor time plus loopback TCP.
//
// Load: a closed loop of 4 clients with 12 ops in flight each; client c sends
// its op i to node (c + i) mod 3. Op kinds, decide cut sizes and appended
// values come from the seed; the nodes see only those generated inputs.
#include <sys/statfs.h>
#include <unistd.h>

#include <array>
#include <cmath>
#include <filesystem>
#include <fcntl.h>

#include "checks.hpp"
#include "mp/abd.hpp"
#include "mp/network.hpp"
#include "net/decision.hpp"
#include "net/transport.hpp"
#include "storage/file_log.hpp"
#include "support/rng.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace mp = amm::mp;
namespace net = amm::net;
using amm::NodeId;
using namespace std::chrono_literals;

constexpr u32 kNodes = 3;
constexpr u32 kClients = 4;
constexpr u32 kDepth = 12;  // ops in flight per client: 48 in all
constexpr u32 kSlots = kClients * kDepth;
constexpr u32 kSetups = 5;  // setup_s is the median of this many set-ups
constexpr u64 kWindowNs = 100'000'000;  // see summarize() for the tail
constexpr double kMaxOpsPerSecond = 400'000.0;  // what the sample buffers are sized for
constexpr u64 kDrainNs = 10'000'000'000;        // an op not done this long after the phase failed
constexpr usize kSpanCapacity = 200'000;

struct Spec {
  const char* name;
  bool summary;     ///< summary-mode compaction with the default lag/quantum
  bool durable;     ///< a FileLog per node with fsync always
  u32 preload;      ///< appends completed before the warm-up
  u32 warmup;       ///< ops of the workload mix completed before timing
  u32 read_pct;     ///< share of reads in the op mix, percent
  u32 decide_pct;   ///< share of decides (a read, then decide_first_k)
};

// Why these three: append_mem puts the per-message path (codec, reactor,
// batched verify, admission, quorum) alone under load; append_durable adds
// fdatasync per admission and is the workload group commit would move;
// read_decide runs the read path (reply assembly over the whole view,
// decide's copy and partial sort) beside writes on an uncompacted node.
constexpr std::array<Spec, 3> kSpecs = {{
    {"append_mem", true, false, 0, 40'000, 0, 0},
    {"append_durable", true, true, 0, 2'000, 0, 0},
    {"read_decide", false, false, 20'000, 2'000, 40, 10},
}};

enum class OpKind : u8 { kAppend, kRead, kDecide };

/// Sum of the counters one run reads from the transports, nodes and stores.
struct Counters {
  u64 messages = 0, bytes = 0, writev = 0, handled = 0;
  u64 verify_hits = 0, verify_misses = 0;
  u64 read_records = 0, reads_served = 0, fallbacks = 0;
  u64 fsyncs = 0, log_appended = 0;

  Counters operator-(const Counters& o) const {
    return {messages - o.messages,         bytes - o.bytes,
            writev - o.writev,             handled - o.handled,
            verify_hits - o.verify_hits,   verify_misses - o.verify_misses,
            read_records - o.read_records, reads_served - o.reads_served,
            fallbacks - o.fallbacks,       fsyncs - o.fsyncs,
            log_appended - o.log_appended};
  }
};

mp::AbdConfig node_config(const Spec& spec) {
  mp::AbdConfig config;
  if (spec.summary) {
    config.compact.enabled = true;
    config.compact.retain_records = false;
  }
  return config;
}

amm::storage::FileLogConfig log_config(const std::string& store_dir, u32 node) {
  amm::storage::FileLogConfig config;
  config.dir = store_dir + "/node-" + std::to_string(node);
  config.fsync = mp::FsyncPolicy::kAlways;
  // A run logs 3-6 MB per node. With the default 4 MiB segments only the
  // faster runs roll one, and pruning it (which re-reads the closed segment)
  // added 12 MB to rss_mb in those runs alone; 1 MiB segments roll and prune
  // several times in every run.
  config.segment_bytes = 1u << 20;
  return config;
}

/// One in-process cluster. With a tracer, every node talks through a
/// TracedTransport and writes through a TracedStorage.
class Cluster {
 public:
  Cluster(const Spec& spec, u64 seed, const std::string& store_dir, Tracer* tracer)
      : keys(kNodes, seed) {
    for (u32 i = 0; i < kNodes; ++i) {
      net::TransportConfig config;
      config.self = NodeId{i};
      config.peers.assign(kNodes, net::Endpoint{"127.0.0.1", 0});
      config.backoff_base = 5ms;
      config.backoff_max = 50ms;
      tcp.push_back(std::make_unique<net::TcpTransport>(config, keys,
                                                        amm::Rng::for_stream(seed, 1000 + i)));
      ok = tcp.back()->start() && ok;
    }
    for (u32 i = 0; i < kNodes; ++i) {
      for (u32 j = 0; j < kNodes; ++j) {
        tcp[i]->set_peer_endpoint(NodeId{j}, net::Endpoint{"127.0.0.1", tcp[j]->listen_port()});
      }
    }
    for (auto& t : tcp) t->connect_peers();
    for (u32 i = 0; i < kNodes; ++i) {
      mp::Transport* transport = tcp[i].get();
      if (tracer != nullptr) {
        traced.push_back(std::make_unique<TracedTransport>(*tcp[i], *tracer));
        transport = traced.back().get();
      }
      mp::AbdConfig config = node_config(spec);
      if (spec.durable) {
        logs.push_back(std::make_unique<amm::storage::FileLog>(log_config(store_dir, i)));
        ok = logs.back()->ok() && ok;
        config.storage = logs.back().get();
        if (tracer != nullptr) {
          traced_logs.push_back(std::make_unique<TracedStorage>(*logs.back(), *tracer));
          config.storage = traced_logs.back().get();
        }
      }
      nodes.push_back(std::make_unique<mp::AbdNode>(NodeId{i}, *transport, keys, config));
    }
  }

  /// One reactor round: poll_once on every transport without waiting.
  void pump(Tracer* tracer) {
    for (auto& t : tcp) {
      const Scope scope(tracer, Layer::kPoll);
      t->poll_once(0ms);
    }
  }

  bool connected() const {
    for (const auto& t : tcp) {
      if (t->connected_outbound() != kNodes - 1) return false;
    }
    return true;
  }

  Counters counters() const {
    Counters c;
    for (u32 i = 0; i < kNodes; ++i) {
      c.messages += tcp[i]->messages_sent();
      c.bytes += tcp[i]->bytes_sent();
      c.writev += tcp[i]->writev_calls();
      c.verify_hits += tcp[i]->verify_cache_hits() + nodes[i]->verify_cache_hits();
      c.verify_misses += tcp[i]->verify_cache_misses() + nodes[i]->verify_cache_misses();
      const mp::AbdNode::Stats& s = nodes[i]->stats();
      c.read_records += s.read_records_sent;
      c.reads_served += s.reads_served_full + s.reads_served_delta;
      c.fallbacks += s.read_fallbacks;
      if (!traced.empty()) c.handled += traced[i]->handled();
      if (!logs.empty()) c.fsyncs += logs[i]->stats().fsyncs;
      if (!traced_logs.empty()) c.log_appended += traced_logs[i]->appended_bytes();
    }
    return c;
  }

  bool ok = true;
  amm::crypto::KeyRegistry keys;
  std::vector<std::unique_ptr<net::TcpTransport>> tcp;
  std::vector<std::unique_ptr<TracedTransport>> traced;
  std::vector<std::unique_ptr<amm::storage::FileLog>> logs;
  std::vector<std::unique_ptr<TracedStorage>> traced_logs;
  std::vector<std::unique_ptr<mp::AbdNode>> nodes;  // last: destroyed first
};

/// The closed-loop clients. All buffers are sized in the constructor (setup)
/// and never grow while the clients run.
class LoadGen {
 public:
  LoadGen(Cluster& cluster, const Spec& spec, u64 seed, double seconds, Tracer* tracer)
      : appends(capacity(seconds)),
        reads(capacity(seconds)),
        decides(capacity(seconds)),
        issued_per_author(kNodes, 0),
        cluster_(&cluster),
        spec_(&spec),
        seed_(seed),
        tracer_(tracer) {
    for (u32 c = 0; c < kClients; ++c) streams_.push_back(amm::Rng::for_stream(seed, 100 + c));
    decisions.reserve(capacity(seconds) / 4);
  }

  /// Issues ops until `total` have been issued (0 = no limit while
  /// `issuing`) and pumps until all of them completed or the deadline passed.
  bool run_ops(u64 total, u64 deadline_ns) {
    if (total == 0) return true;
    limit_ = issued + total;
    issuing = true;
    start_idle_slots();
    while (outstanding > 0 && now_ns() < deadline_ns) cluster_->pump(tracer_);
    issuing = false;
    return outstanding == 0;
  }

  /// Fills every idle slot (at most kSlots ops in flight).
  void start_idle_slots() {
    for (u32 s = 0; s < kSlots; ++s) {
      if (!slots_[s].busy && may_issue()) issue(s);
    }
  }

  void set_limit(u64 limit) { limit_ = limit; }

  /// Decides draw odd k <= k_max: 3 x the smallest per-author preload, so
  /// the first k records of the canonical (seq, author) order all exist
  /// before any decide is issued and its result is fixed.
  void fix_decide_range() {
    const u32 least = *std::min_element(issued_per_author.begin(), issued_per_author.end());
    k_max_ = 3 * least;
    if (k_max_ % 2 == 0) --k_max_;
  }

  AckedSet acked() const {
    AckedSet set;
    set.issued = issued_per_author;
    set.unacked.resize(kNodes);
    for (const Slot& slot : slots_) {
      if (slot.busy && slot.kind == OpKind::kAppend) set.unacked[slot.author].push_back(slot.seq);
    }
    return set;
  }

  bool issuing = false;
  bool recording = false;
  bool appends_only = false;  ///< preload: every op is an append
  u64 issued = 0;
  u64 completed = 0;
  u64 outstanding = 0;
  u64 appends_issued = 0;
  u64 reads_issued = 0;  ///< reads and decides (each one M.read)
  u64 decision_overflow = 0;
  LatencyLog appends;
  LatencyLog reads;
  LatencyLog decides;
  std::vector<DecideRecord> decisions;
  std::vector<u32> issued_per_author;

 private:
  struct Slot {
    u64 issued_ns = 0;
    OpKind kind = OpKind::kAppend;
    u32 author = 0;
    u32 seq = 0;
    u32 k = 0;
    bool busy = false;
  };

  static usize capacity(double seconds) {
    return static_cast<usize>(kMaxOpsPerSecond * seconds) + 100'000;
  }

  bool may_issue() const { return issuing && (limit_ == 0 || issued < limit_); }

  void issue(u32 s) {
    Slot& slot = slots_[s];
    const u32 c = s / kDepth;
    const u64 i = next_op_[c]++;
    const u32 node = static_cast<u32>((c + i) % kNodes);
    slot.kind = OpKind::kAppend;
    if (!appends_only && spec_->read_pct + spec_->decide_pct > 0) {
      const u64 u = streams_[c].uniform_below(100);
      if (u < spec_->decide_pct) {
        slot.kind = OpKind::kDecide;
        slot.k = 2 * static_cast<u32>(streams_[c].uniform_below((k_max_ + 1) / 2)) + 1;
      } else if (u < spec_->decide_pct + spec_->read_pct) {
        slot.kind = OpKind::kRead;
      }
    }
    slot.busy = true;
    ++outstanding;
    ++issued;
    mp::AbdNode& target = *cluster_->nodes[node];
    slot.issued_ns = now_ns();
    const Scope scope(tracer_, Layer::kIssue);
    if (slot.kind == OpKind::kAppend) {
      ++appends_issued;
      slot.author = node;
      slot.seq = issued_per_author[node]++;
      target.begin_append(value_of(seed_, node, slot.seq), [this, s] { complete(s, nullptr); });
    } else {
      ++reads_issued;
      target.begin_read(
          [this, s](const std::vector<mp::SignedAppend>& view) { complete(s, &view); });
    }
  }

  void complete(u32 s, const std::vector<mp::SignedAppend>* view) {
    const Scope scope(tracer_, Layer::kClient);
    Slot& slot = slots_[s];
    slot.busy = false;
    --outstanding;
    ++completed;
    switch (slot.kind) {
      case OpKind::kAppend:
        if (recording) appends.add(now_ns() - slot.issued_ns);
        break;
      case OpKind::kRead:
        if (recording) reads.add(now_ns() - slot.issued_ns);
        break;
      case OpKind::kDecide: {
        net::Decision d;
        {
          const Scope decide_scope(tracer_, Layer::kDecide);
          d = net::decide_first_k(*view, slot.k);
        }
        if (recording) decides.add(now_ns() - slot.issued_ns);
        if (decisions.size() < decisions.capacity()) {
          decisions.push_back(DecideRecord{slot.k, d.sign, d.decided_over});
        } else {
          ++decision_overflow;
        }
        break;
      }
    }
    if (may_issue()) issue(s);
  }

  Cluster* cluster_;
  const Spec* spec_;
  u64 seed_;
  Tracer* tracer_;
  u64 limit_ = 0;
  u32 k_max_ = 1;
  std::array<Slot, kSlots> slots_{};
  std::array<u64, kClients> next_op_{};
  std::vector<amm::Rng> streams_;
};

const Spec* find_spec(const std::string& name) {
  for (const Spec& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

/// A quorum read on `node`, pumped to completion; false on timeout.
bool quorum_read(Cluster& cluster, u32 node, std::vector<mp::SignedAppend>* out) {
  bool done = false;
  cluster.nodes[node]->begin_read([&](const std::vector<mp::SignedAppend>& view) {
    *out = view;
    done = true;
  });
  const u64 deadline = now_ns() + kDrainNs;
  while (!done && now_ns() < deadline) cluster.pump(nullptr);
  return done;
}

/// Reopens every store into a fresh node on a throwaway simulated network and
/// returns what each recovered.
std::vector<Holdings> recover_stores(const Spec& spec, u64 seed, const std::string& store_dir,
                                     const AckedSet& acked, Result& result) {
  const amm::crypto::KeyRegistry keys(kNodes, seed);
  std::vector<Holdings> out;
  for (u32 i = 0; i < kNodes; ++i) {
    amm::storage::FileLog log(log_config(store_dir, i));
    result.fail(log.ok() ? 0 : 1, "reopen store of node " + std::to_string(i) + ": " + log.error());
    mp::Network network(kNodes, 0.0, 0.0, amm::Rng(seed));
    mp::AbdConfig config = node_config(spec);
    config.storage = &log;
    mp::AbdNode node(NodeId{i}, network, keys, config);
    node.recover_from_storage();
    out.push_back(holdings_of(acked, node.local_view(), node.checkpoint().folded_below, seed));
  }
  return out;
}

/// Refuses a store root on tmpfs/ramfs, where fdatasync costs nothing.
bool disk_backed(const std::string& dir) {
  struct statfs st {};
  if (::statfs(dir.c_str(), &st) != 0) return false;
  constexpr long kTmpfsMagic = 0x01021994;
  constexpr long kRamfsMagic = 0x858458f6;
  return st.f_type != kTmpfsMagic && st.f_type != kRamfsMagic;
}

/// Deletes a run's stores and flushes the filesystem, so no writeback of
/// this run spills into the next one.
void remove_stores(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  const int fd = ::open(fs::path(dir).parent_path().c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
}

/// Starts a cluster, connects it, then completes the preload and `warmup`
/// ops of the workload mix. A cluster that cannot do so ends the process:
/// nothing after it would measure anything.
void start_cluster(const Spec& spec, const Options& opt, const std::string& store_dir,
                   Tracer* tracer, u32 warmup, std::unique_ptr<Cluster>& cluster,
                   std::unique_ptr<LoadGen>& gen) {
  cluster = std::make_unique<Cluster>(spec, opt.seed, store_dir, tracer);
  const u64 connect_deadline = now_ns() + 5'000'000'000;
  while (!cluster->connected() && now_ns() < connect_deadline) cluster->pump(nullptr);
  if (!cluster->ok || !cluster->connected()) {
    std::fprintf(stderr, "perfbench: cluster failed to start or connect\n");
    std::exit(2);
  }
  gen = std::make_unique<LoadGen>(*cluster, spec, opt.seed, opt.seconds, tracer);
  bool ok = true;
  if (spec.preload > 0) {
    gen->appends_only = true;
    ok = gen->run_ops(spec.preload, now_ns() + 6 * kDrainNs);
    gen->appends_only = false;
  }
  gen->fix_decide_range();
  ok = ok && gen->run_ops(warmup, now_ns() + 6 * kDrainNs);
  if (!ok) {
    std::fprintf(stderr, "perfbench: setup ops did not complete\n");
    std::exit(2);
  }
}

double per_op(u64 count, u64 ops) {
  return ops == 0 ? 0.0 : static_cast<double>(count) / static_cast<double>(ops);
}

}  // namespace

Result run_cluster(const Options& opt) {
  Result result;
  const Spec* spec_ptr = find_spec(opt.workload);
  AMM_EXPECTS(spec_ptr != nullptr);
  const Spec& spec = *spec_ptr;

  const std::string store_root = opt.work_dir + "/stores";
  const std::string store_dir = store_root + "/" + spec.name + "-" + std::to_string(::getpid());
  if (spec.durable) {
    fs::create_directories(store_root);
    if (!disk_backed(store_root)) {
      std::fprintf(stderr, "perfbench: %s is on tmpfs/ramfs, where fdatasync is free\n",
                   store_root.c_str());
      std::exit(2);
    }
  }

  std::unique_ptr<Tracer> tracer;
  if (opt.trace) tracer = std::make_unique<Tracer>(kSpanCapacity);

  // Set up kSetups times (start, connect, stores, preload, warm-up) and keep
  // the last cluster for the timed phase; setup_s is the median.
  std::vector<double> setup_times;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<LoadGen> gen;
  for (u32 round = 0; round < kSetups; ++round) {
    gen.reset();
    cluster.reset();
    if (spec.durable) remove_stores(store_dir);
    const u64 t0 = now_ns();
    start_cluster(spec, opt, store_dir, tracer.get(), spec.warmup, cluster, gen);
    setup_times.push_back(seconds_between(t0, now_ns()));
  }

  // Timed phase. In a traced run, windows alternate untraced / traced so
  // the tracing overhead is measured on interleaved slices.
  const Counters before = cluster->counters();
  const u64 issued_before = gen->issued;
  const u64 completed_before = gen->completed;
  const usize window_count =
      std::max<usize>(2, static_cast<usize>(std::llround(opt.seconds * 1e9 / kWindowNs)));
  Windows windows(now_ns(), kWindowNs, window_count, 3);
  const std::vector<const LatencyLog*> logs = {&gen->appends, &gen->reads, &gen->decides};
  gen->recording = true;
  gen->set_limit(0);
  gen->issuing = true;
  gen->start_idle_slots();
  while (true) {
    cluster->pump(tracer.get());
    const u64 now = now_ns();
    if (now < windows.next_boundary()) continue;
    windows.close(now, gen->completed, logs);
    if (windows.done()) break;
    if (tracer) tracer->on = windows.closed() % 2 == 1;
  }
  if (tracer) tracer->on = false;
  gen->recording = false;
  gen->issuing = false;
  const u64 phase_ops = gen->issued - issued_before;

  // Drain: every op issued must complete; then let trailing acks land.
  const u64 drain_deadline = now_ns() + kDrainNs;
  while (gen->outstanding > 0 && now_ns() < drain_deadline) cluster->pump(nullptr);
  const u64 settle = now_ns() + 50'000'000;
  while (now_ns() < settle) cluster->pump(nullptr);
  const Counters after = cluster->counters();
  const Counters delta = after - before;
  const double rss_mb =
      peak_rss_mb(gen->appends.touched_bytes() + gen->reads.touched_bytes() +
                  gen->decides.touched_bytes() + gen->decisions.size() * sizeof(DecideRecord));

  result.attempted = phase_ops;
  result.fail(gen->outstanding, "ops that never completed");
  result.fail(gen->appends.dropped() + gen->reads.dropped() + gen->decides.dropped() +
                  gen->decision_overflow,
              "samples beyond the preallocated buffers");

  // Every protocol message is accounted for: an append is a broadcast (3)
  // plus 3 acks, a read a broadcast plus 3 replies, a fallback one more read.
  const u64 expected_messages = 6 * (gen->appends_issued + gen->reads_issued + after.fallbacks);
  if (gen->outstanding == 0 && after.messages != expected_messages) {
    result.fail(1, "messages sent " + std::to_string(after.messages) +
                       " != 6 x (appends + reads + fallbacks) = " +
                       std::to_string(expected_messages));
  }

  // Lemma 4.2: a quorum read on every node holds every acked record.
  const AckedSet acked = gen->acked();
  std::vector<std::vector<mp::SignedAppend>> final_views(kNodes);
  for (u32 i = 0; i < kNodes; ++i) {
    if (!quorum_read(*cluster, i, &final_views[i])) {
      result.fail(1, "post-run quorum read on node " + std::to_string(i) + " did not complete");
      continue;
    }
    const Holdings h = holdings_of(acked, final_views[i],
                                   cluster->nodes[i]->checkpoint().folded_below, opt.seed);
    result.fail(count_missing(acked, h),
                "Lemma 4.2: acked records missing from node " + std::to_string(i) + "'s read");
  }

  // Algorithm 6: every decision equals the reference for its k.
  if (spec.decide_pct > 0) {
    result.fail(count_wrong_decisions(final_views[0], gen->decisions),
                "Algorithm 6: decisions differing from the reference");
  }

  // End-to-end figures come from untraced windows only.
  const auto untraced = [&](usize w) { return !opt.trace || w % 2 == 0; };
  const auto traced = [](usize w) { return w % 2 == 1; };
  const Summary appends = summarize(windows, gen->appends, 0, completed_before, untraced);
  print_summary(std::string(spec.name) + " (appends)", appends);

  if (!opt.trace) {
    result.add("ops_per_s", appends.rate, "1/s");
    result.add("op_p50_ms", appends.p50_ms, "ms");
    result.add("op_p90_ms", appends.p90_ms, "ms");
    result.add("setup_s", median(setup_times), "s");
    result.add("rss_mb", rss_mb, "MB");
  } else {
    const Summary reads = summarize(windows, gen->reads, 1, completed_before, untraced);
    const Summary decides = summarize(windows, gen->decides, 2, completed_before, untraced);
    print_summary(std::string(spec.name) + " (reads)", reads);
    print_summary(std::string(spec.name) + " (decides)", decides);
    const Summary in_traced = summarize(windows, gen->appends, 0, completed_before, traced);
    u64 ops_t = 0;
    u64 wall_t = 0;
    for (usize w = 0; w < windows.closed(); ++w) {
      if (!traced(w)) continue;
      ops_t += windows.ops(w, completed_before);
      wall_t += windows.length_ns(w);
    }
    const Tracer& t = *tracer;
    const auto self_us = [&](Layer l) { return per_op(t.totals(l).self_ns, ops_t) * 1e-3; };
    const auto total_us = [&](Layer l) { return per_op(t.totals(l).total_ns, ops_t) * 1e-3; };
    const Tracer::Totals& decide = t.totals(Layer::kDecide);
    const mp::AbdNode& node0 = *cluster->nodes[0];
    const u64 spanned = t.self_ns_all();
    result.add("net.reactor_us_per_op", self_us(Layer::kPoll), "us");
    result.add("net.send_us_per_op", self_us(Layer::kSend), "us");
    result.add("net.msgs_per_op", per_op(delta.messages, phase_ops), "count");
    result.add("net.bytes_per_op", per_op(delta.bytes, phase_ops), "B");
    result.add("net.writev_per_op", per_op(delta.writev, phase_ops), "count");
    result.add("net.useful_poll_share", per_op(t.useful_polls(), t.totals(Layer::kPoll).count),
               "ratio");
    result.add("net.decide_us", per_op(decide.total_ns, decide.count) * 1e-3, "us");
    result.add("net.decide_p50_ms", decides.p50_ms, "ms");
    result.add("mp.handle_us_per_op", self_us(Layer::kHandle), "us");
    result.add("mp.issue_us_per_op", self_us(Layer::kIssue), "us");
    result.add("mp.handled_msgs_per_op", per_op(delta.handled, phase_ops), "count");
    result.add("mp.read_records_per_read", per_op(delta.read_records, delta.reads_served),
               "count");
    result.add("mp.read_fallbacks", static_cast<double>(delta.fallbacks), "count");
    result.add("mp.read_p50_ms", reads.p50_ms, "ms");
    result.add("mp.live_records", static_cast<double>(node0.live_records()), "count");
    result.add("mp.records_folded", static_cast<double>(node0.stats().records_folded), "count");
    result.add("crypto.registry_verifies_per_op", per_op(delta.verify_misses, phase_ops), "count");
    result.add("crypto.verify_cache_hit_share",
               per_op(delta.verify_hits, delta.verify_hits + delta.verify_misses), "ratio");
    result.add("storage.append_us_per_op", total_us(Layer::kStorageAppend), "us");
    result.add("storage.fsyncs_per_op", per_op(delta.fsyncs, phase_ops), "count");
    result.add("storage.snapshot_us_per_op", total_us(Layer::kStorageSnapshot), "us");
    result.add("storage.log_bytes_per_op", per_op(delta.log_appended, phase_ops), "B");
    result.add("bench.client_share",
               per_op(t.totals(Layer::kClient).self_ns + (wall_t - spanned), wall_t), "ratio");
    result.add("bench.span_coverage", per_op(spanned, wall_t), "ratio");
    result.add("bench.trace_overhead", 1.0 - in_traced.rate / appends.rate, "ratio");
    const std::string spans = opt.work_dir + "/spans-" + spec.name + ".tsv";
    if (!t.write(spans)) std::fprintf(stderr, "perfbench: could not write %s\n", spans.c_str());
  }

  // No acked append lost: reopen every store into a fresh node and recover.
  gen.reset();
  cluster.reset();
  if (spec.durable) {
    const std::vector<Holdings> recovered = recover_stores(spec, opt.seed, store_dir, acked, result);
    result.fail(count_under_replicated(acked, recovered, 2),
                "durability: acked appends recovered on fewer than 2 of 3 nodes");
    remove_stores(store_dir);
  }
  return result;
}

FixedRun run_cluster_fixed(const Options& opt, u64 ops) {
  const Spec* spec = find_spec(opt.workload);
  AMM_EXPECTS(spec != nullptr);
  const std::string store_dir = opt.work_dir + "/stores/selftest-" + spec->name + "-" +
                                std::to_string(::getpid()) + (opt.trace ? "-traced" : "");
  if (spec->durable) fs::create_directories(store_dir);
  std::unique_ptr<Tracer> tracer;
  if (opt.trace) tracer = std::make_unique<Tracer>(kSpanCapacity);
  FixedRun out;
  {
    std::unique_ptr<Cluster> cluster;
    std::unique_ptr<LoadGen> gen;
    start_cluster(*spec, opt, store_dir, tracer.get(), 0, cluster, gen);
    if (tracer) tracer->on = true;
    const u64 t0 = now_ns();
    out.ok = gen->run_ops(ops, t0 + 6 * kDrainNs);
    const u64 wall = now_ns() - t0;
    if (tracer) tracer->on = false;
    const u64 settle = now_ns() + 50'000'000;
    while (now_ns() < settle) cluster->pump(nullptr);
    const Counters c = cluster->counters();
    out.ops = gen->appends_issued + gen->reads_issued;
    out.messages = c.messages;
    out.bytes = c.bytes;
    out.fsyncs = c.fsyncs;
    out.ok = out.ok && c.messages == 6 * (out.ops + c.fallbacks);
    if (tracer) out.span_coverage = per_op(tracer->self_ns_all(), wall);
  }
  if (spec->durable) remove_stores(store_dir);
  return out;
}

}  // namespace perfbench
