// Spans for the traced run, recorded from the benchmark's own files around
// calls into public seams: an mp::Transport decorator (handler dispatch,
// send/broadcast), an mp::Storage decorator (append, write_snapshot), and
// scopes the drivers open around poll_once, begin_append/begin_read,
// decide_first_k and the protocol trials.
//
// Self time of a span is its duration minus the durations of its direct
// children, aggregated online per layer, so the per-layer table covers every
// span of the traced slices even after the fixed span buffer (allocated in
// setup, written out at exit) is full.
#pragma once

#include <array>
#include <string>

#include "bench.hpp"
#include "mp/storage.hpp"
#include "mp/transport.hpp"
#include "support/assert.hpp"

namespace perfbench {

enum class Layer : u8 {
  kPoll,             ///< TcpTransport::poll_once (reactor: epoll, reads, decode, verify, writev)
  kSend,             ///< Transport::send / broadcast (encode + enqueue)
  kHandle,           ///< the node's message handler
  kIssue,            ///< AbdNode::begin_append / begin_read
  kClient,           ///< the benchmark's completion callbacks (its own client code)
  kDecide,           ///< net::decide_first_k*
  kStorageAppend,    ///< Storage::append
  kStorageSnapshot,  ///< Storage::write_snapshot
  kChainTrial,       ///< proto::run_chain_slotted
  kDagTrial,         ///< proto::run_dag_continuous
  kDagFullTrial,     ///< proto::run_dag_continuous with full_ordering
  kCount,
};

inline constexpr std::array<const char*, static_cast<usize>(Layer::kCount)> kLayerNames = {
    "net.poll_once",         "net.send",
    "mp.handle",             "mp.issue",
    "bench.client",          "net.decide",
    "storage.append",        "storage.write_snapshot",
    "protocols.chain_trial", "protocols.dag_trial",
    "protocols.dag_full_trial"};

struct Span {
  u64 start_ns = 0;
  u64 end_ns = 0;
  u64 request = 0;  ///< record (author << 32 | seq) or read id the span served; 0 if none
  u32 parent = 0;   ///< buffer index of the enclosing span, kNoSpan for a root
  Layer layer = Layer::kPoll;
};

class Tracer {
 public:
  static constexpr u32 kNoSpan = ~u32{0};

  struct Totals {
    u64 count = 0;
    u64 total_ns = 0;
    u64 self_ns = 0;
  };

  explicit Tracer(usize capacity) : spans_(new Span[capacity]), capacity_(capacity) {}

  /// Whether new spans are recorded. Flipped only between reactor rounds or
  /// trial batches, never while a span is open.
  bool on = false;

  void begin(Layer layer, u64 request) {
    AMM_EXPECTS(depth_ < stack_.size());
    Open& o = stack_[depth_];
    o.layer = layer;
    o.request = request;
    o.child_ns = 0;
    o.children = 0;
    o.parent = depth_ == 0 ? kNoSpan : stack_[depth_ - 1].index;
    o.index = stored_ < capacity_ ? static_cast<u32>(stored_++) : kNoSpan;
    ++depth_;
    o.start_ns = now_ns();
  }

  void end() {
    const u64 t = now_ns();
    Open& o = stack_[--depth_];
    const u64 dur = t - o.start_ns;
    Totals& tot = totals_[static_cast<usize>(o.layer)];
    ++tot.count;
    tot.total_ns += dur;
    tot.self_ns += dur - o.child_ns;
    if (o.layer == Layer::kPoll && o.children > 0) ++useful_polls_;
    if (depth_ > 0) {
      stack_[depth_ - 1].child_ns += dur;
      if (o.layer == Layer::kHandle) ++stack_[depth_ - 1].children;
    }
    if (o.index != kNoSpan) spans_[o.index] = Span{o.start_ns, t, o.request, o.parent, o.layer};
  }

  const Totals& totals(Layer layer) const { return totals_[static_cast<usize>(layer)]; }
  u64 useful_polls() const { return useful_polls_; }

  /// Sum of self times over every layer = total duration of root spans.
  u64 self_ns_all() const {
    u64 sum = 0;
    for (const Totals& t : totals_) sum += t.self_ns;
    return sum;
  }

  /// Writes the stored spans as TSV (name, parent, request, start, end).
  bool write(const std::string& path) const;

 private:
  struct Open {
    u64 start_ns = 0;
    u64 child_ns = 0;
    u64 request = 0;
    u32 index = 0;
    u32 parent = 0;
    u32 children = 0;
    Layer layer = Layer::kPoll;
  };

  std::unique_ptr<Span[]> spans_;
  usize capacity_;
  usize stored_ = 0;
  std::array<Open, 16> stack_{};
  usize depth_ = 0;
  std::array<Totals, static_cast<usize>(Layer::kCount)> totals_{};
  u64 useful_polls_ = 0;
};

/// Opens a span for the enclosing block when a tracer is given and on.
class Scope {
 public:
  Scope(Tracer* tracer, Layer layer, u64 request = 0)
      : tracer_(tracer != nullptr && tracer->on ? tracer : nullptr) {
    if (tracer_ != nullptr) tracer_->begin(layer, request);
  }
  ~Scope() {
    if (tracer_ != nullptr) tracer_->end();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
};

/// The request a wire message belongs to: the record for appends and acks,
/// the read id for reads and checkpoint syncs.
inline u64 request_of(const amm::mp::WireMessage& msg) {
  using Kind = amm::mp::WireMessage::Kind;
  switch (msg.kind) {
    case Kind::kAppend:
    case Kind::kAck:
      return (static_cast<u64>(msg.append.author.index) << 32) | msg.append.seq;
    case Kind::kReadReq:
    case Kind::kReadReply:
    case Kind::kCheckpointReq:
    case Kind::kCheckpointReply:
      return msg.read_id;
  }
  return 0;
}

/// Transport decorator: forwards every call unchanged, timing handler
/// dispatch and send/broadcast, and counting handler calls.
class TracedTransport final : public amm::mp::Transport {
 public:
  TracedTransport(amm::mp::Transport& inner, Tracer& tracer) : inner_(&inner), tracer_(&tracer) {}

  u32 node_count() const override { return inner_->node_count(); }

  void attach(amm::NodeId id, Handler handler) override {
    inner_->attach(id, [this, h = std::move(handler)](amm::NodeId from,
                                                      const amm::mp::WireMessage& msg) {
      ++handled_;
      const Scope scope(tracer_, Layer::kHandle, request_of(msg));
      h(from, msg);
    });
  }

  void send(amm::NodeId from, amm::NodeId to, amm::mp::WireMessage msg) override {
    const Scope scope(tracer_, Layer::kSend);
    inner_->send(from, to, std::move(msg));
  }

  void broadcast(amm::NodeId from, const amm::mp::WireMessage& msg) override {
    const Scope scope(tracer_, Layer::kSend);
    inner_->broadcast(from, msg);
  }

  u64 messages_sent() const override { return inner_->messages_sent(); }
  u64 bytes_sent() const override { return inner_->bytes_sent(); }

  u64 handled() const { return handled_; }

 private:
  amm::mp::Transport* inner_;
  Tracer* tracer_;
  u64 handled_ = 0;
};

/// Storage decorator: forwards every call unchanged, timing append and
/// write_snapshot and counting the bytes appends add to the log (log_bytes
/// itself shrinks when a snapshot prunes segments).
class TracedStorage final : public amm::mp::Storage {
 public:
  TracedStorage(amm::mp::Storage& inner, Tracer& tracer) : inner_(&inner), tracer_(&tracer) {}

  bool append(const amm::mp::SignedAppend& rec) override {
    const Scope scope(tracer_, Layer::kStorageAppend);
    const u64 before = inner_->stats().log_bytes;
    const bool ok = inner_->append(rec);
    appended_bytes_ += inner_->stats().log_bytes - before;
    return ok;
  }
  std::optional<amm::mp::Snapshot> load_snapshot() override { return inner_->load_snapshot(); }
  bool write_snapshot(const amm::mp::Snapshot& snap) override {
    const Scope scope(tracer_, Layer::kStorageSnapshot);
    return inner_->write_snapshot(snap);
  }
  u64 replay(u64 from_seq,
             const std::function<void(const amm::mp::SignedAppend&)>& cb) override {
    return inner_->replay(from_seq, cb);
  }
  u64 log_seq() const override { return inner_->log_seq(); }
  amm::mp::FsyncPolicy fsync_policy() const override { return inner_->fsync_policy(); }
  const amm::mp::StorageStats& stats() const override { return inner_->stats(); }

  u64 appended_bytes() const { return appended_bytes_; }

 private:
  amm::mp::Storage* inner_;
  Tracer* tracer_;
  u64 appended_bytes_ = 0;
};

}  // namespace perfbench
