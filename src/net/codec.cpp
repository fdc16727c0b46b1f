#include "net/codec.hpp"

#include <cstring>

#include "crypto/signature.hpp"
#include "support/assert.hpp"

namespace amm::net {

void Encoder::put_u32(u32 v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<u8>(v >> (8 * i)));
}

void Encoder::put_u64(u64 v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<u8>(v >> (8 * i)));
}

std::optional<u8> Decoder::get_u8() {
  if (!ok_ || remaining() < 1) {
    ok_ = false;
    return std::nullopt;
  }
  return bytes_[pos_++];
}

std::optional<u32> Decoder::get_u32() {
  if (!ok_ || remaining() < 4) {
    ok_ = false;
    return std::nullopt;
  }
  u32 v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<u32>(bytes_[pos_ + static_cast<usize>(i)]) << (8 * i);
  pos_ += 4;
  return v;
}

std::optional<u64> Decoder::get_u64() {
  if (!ok_ || remaining() < 8) {
    ok_ = false;
    return std::nullopt;
  }
  u64 v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<u64>(bytes_[pos_ + static_cast<usize>(i)]) << (8 * i);
  pos_ += 8;
  return v;
}

std::optional<i64> Decoder::get_i64() {
  const auto v = get_u64();
  if (!v) return std::nullopt;
  return static_cast<i64>(*v);
}

// ---- records / messages ----

void encode_record(Encoder& enc, const mp::SignedAppend& rec) {
  enc.put_u32(rec.author.index);
  enc.put_u32(rec.seq);
  enc.put_i64(rec.value);
  enc.put_u32(rec.sig.signer.index);
  enc.put_u64(rec.sig.tag);
}

std::optional<mp::SignedAppend> decode_record(Decoder& dec) {
  mp::SignedAppend rec;
  const auto author = dec.get_u32();
  const auto seq = dec.get_u32();
  const auto value = dec.get_i64();
  const auto signer = dec.get_u32();
  const auto tag = dec.get_u64();
  if (!dec.ok()) return std::nullopt;
  rec.author = NodeId{*author};
  rec.seq = *seq;
  rec.value = *value;
  rec.sig = crypto::Signature{NodeId{*signer}, *tag};
  return rec;
}

namespace {

u32 load_u32(const u8* src) {
  u32 v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<u32>(src[i]) << (8 * i);
  return v;
}

u64 load_u64(const u8* src) {
  u64 v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<u64>(src[i]) << (8 * i);
  return v;
}

void store_u32(u8* dst, u32 v) {
  for (int i = 0; i < 4; ++i) dst[i] = static_cast<u8>(v >> (8 * i));
}

void store_u64(u8* dst, u64 v) {
  for (int i = 0; i < 8; ++i) dst[i] = static_cast<u8>(v >> (8 * i));
}

}  // namespace

std::optional<mp::SignedAppend> decode_record_from(std::span<const u8> src) {
  if (src.size() < mp::kWireRecordBytes) return std::nullopt;
  const u8* p = src.data();
  mp::SignedAppend rec;
  rec.author = NodeId{load_u32(p)};
  rec.seq = load_u32(p + 4);
  rec.value = static_cast<i64>(load_u64(p + 8));
  rec.sig = crypto::Signature{NodeId{load_u32(p + 16)}, load_u64(p + 20)};
  return rec;
}

void encode_record_to(std::span<u8, mp::kWireRecordBytes> dst, const mp::SignedAppend& rec) {
  u8* p = dst.data();
  store_u32(p, rec.author.index);
  store_u32(p + 4, rec.seq);
  store_u64(p + 8, static_cast<u64>(rec.value));
  store_u32(p + 16, rec.sig.signer.index);
  store_u64(p + 20, rec.sig.tag);
}

void encode_checkpoint(Encoder& enc, const mp::Checkpoint& ckpt) {
  enc.put_u32(ckpt.folded_below);
  enc.put_u32(static_cast<u32>(ckpt.chains.size()));
  for (const u64 chain : ckpt.chains) enc.put_u64(chain);
  enc.put_u64(ckpt.folded_records);
  enc.put_i64(ckpt.vote_sum);
  enc.put_u32(ckpt.sig.signer.index);
  enc.put_u64(ckpt.sig.tag);
}

std::optional<mp::Checkpoint> decode_checkpoint(Decoder& dec) {
  mp::Checkpoint ckpt;
  const auto folded_below = dec.get_u32();
  const auto count = dec.get_u32();
  if (!folded_below || !count) return std::nullopt;
  // The chain count must match the remaining bytes exactly (there is
  // nothing after a checkpoint in any frame that carries one) — a lying
  // count is corruption, not a short chain vector.
  if (dec.remaining() !=
      static_cast<usize>(*count) * mp::kWireChainBytes + 8 + 8 + mp::kWireSigBytes) {
    return std::nullopt;
  }
  ckpt.folded_below = *folded_below;
  ckpt.chains.reserve(*count);
  for (u32 i = 0; i < *count; ++i) {
    const auto chain = dec.get_u64();
    if (!chain) return std::nullopt;
    ckpt.chains.push_back(*chain);
  }
  const auto folded_records = dec.get_u64();
  const auto vote_sum = dec.get_i64();
  const auto signer = dec.get_u32();
  const auto tag = dec.get_u64();
  if (!dec.ok()) return std::nullopt;
  ckpt.folded_records = *folded_records;
  ckpt.vote_sum = *vote_sum;
  ckpt.sig = crypto::Signature{NodeId{*signer}, *tag};
  return ckpt;
}

namespace {

/// Shared body writer: kind byte plus per-kind fields. encode_message and
/// encode_framed_message differ only in what surrounds the payload.
void encode_message_body(Encoder& enc, const mp::WireMessage& msg) {
  enc.put_u8(static_cast<u8>(msg.kind));
  switch (msg.kind) {
    case mp::WireMessage::Kind::kAppend:
      encode_record(enc, msg.append);
      break;
    case mp::WireMessage::Kind::kAck:
      encode_record(enc, msg.append);
      enc.put_u32(msg.ack_sig.signer.index);
      enc.put_u64(msg.ack_sig.tag);
      break;
    case mp::WireMessage::Kind::kReadReq:
      enc.put_u64(msg.read_id);
      enc.put_u32(static_cast<u32>(msg.frontier.size()));
      for (const mp::FrontierEntry& e : msg.frontier) {
        enc.put_u32(e.author.index);
        enc.put_u32(e.seq);
      }
      break;
    case mp::WireMessage::Kind::kReadReply:
      enc.put_u64(msg.read_id);
      enc.put_u64(msg.frontier_echo);
      enc.put_u32(static_cast<u32>(msg.view.size()));
      for (const mp::SignedAppend& rec : msg.view) encode_record(enc, rec);
      break;
    case mp::WireMessage::Kind::kCheckpointReq:
      enc.put_u64(msg.read_id);
      break;
    case mp::WireMessage::Kind::kCheckpointReply:
      enc.put_u64(msg.read_id);
      encode_checkpoint(enc, msg.checkpoint);
      break;
  }
}

}  // namespace

std::vector<u8> encode_message(const mp::WireMessage& msg) {
  Encoder enc;
  enc.reserve(msg.wire_size());
  encode_message_body(enc, msg);
  AMM_ENSURES(enc.bytes().size() == msg.wire_size());
  return enc.take();
}

std::vector<u8> encode_framed_message(const mp::WireMessage& msg) {
  const usize len = 1 + msg.wire_size();  // frame kind byte + payload
  AMM_EXPECTS(len <= kMaxFrameBytes);
  Encoder enc;
  enc.reserve(kFrameHeaderBytes + len);
  enc.put_u32(static_cast<u32>(len));
  enc.put_u8(static_cast<u8>(FrameKind::kMsg));
  encode_message_body(enc, msg);
  AMM_ENSURES(enc.bytes().size() == kFrameHeaderBytes + len);
  return enc.take();
}

std::optional<mp::WireMessage> decode_message(std::span<const u8> payload) {
  Decoder dec(payload);
  const auto kind_byte = dec.get_u8();
  if (!kind_byte || *kind_byte > static_cast<u8>(mp::WireMessage::Kind::kCheckpointReply)) {
    return std::nullopt;
  }
  mp::WireMessage msg;
  msg.kind = static_cast<mp::WireMessage::Kind>(*kind_byte);
  switch (msg.kind) {
    case mp::WireMessage::Kind::kAppend: {
      const auto rec = decode_record(dec);
      if (!rec) return std::nullopt;
      msg.append = *rec;
      break;
    }
    case mp::WireMessage::Kind::kAck: {
      const auto rec = decode_record(dec);
      const auto signer = dec.get_u32();
      const auto tag = dec.get_u64();
      if (!rec || !dec.ok()) return std::nullopt;
      msg.append = *rec;
      msg.ack_sig = crypto::Signature{NodeId{*signer}, *tag};
      break;
    }
    case mp::WireMessage::Kind::kReadReq: {
      const auto rid = dec.get_u64();
      const auto count = dec.get_u32();
      if (!rid || !count) return std::nullopt;
      // The count must match the remaining bytes exactly — a lying count
      // is corruption, not a short frontier.
      if (dec.remaining() != static_cast<usize>(*count) * mp::kWireFrontierEntryBytes) {
        return std::nullopt;
      }
      msg.read_id = *rid;
      msg.frontier.reserve(*count);
      for (u32 i = 0; i < *count; ++i) {
        const auto author = dec.get_u32();
        const auto seq = dec.get_u32();
        if (!dec.ok()) return std::nullopt;
        msg.frontier.push_back(mp::FrontierEntry{NodeId{*author}, *seq});
      }
      break;
    }
    case mp::WireMessage::Kind::kReadReply: {
      const auto rid = dec.get_u64();
      const auto echo = dec.get_u64();
      const auto count = dec.get_u32();
      if (!rid || !echo || !count) return std::nullopt;
      // The count must match the remaining bytes exactly — a lying count
      // is corruption, not a short view.
      if (dec.remaining() != static_cast<usize>(*count) * mp::kWireRecordBytes) {
        return std::nullopt;
      }
      msg.read_id = *rid;
      msg.frontier_echo = *echo;
      msg.view.reserve(*count);
      for (u32 i = 0; i < *count; ++i) {
        const auto rec = decode_record(dec);
        if (!rec) return std::nullopt;
        msg.view.push_back(*rec);
      }
      break;
    }
    case mp::WireMessage::Kind::kCheckpointReq: {
      const auto rid = dec.get_u64();
      if (!rid) return std::nullopt;
      msg.read_id = *rid;
      break;
    }
    case mp::WireMessage::Kind::kCheckpointReply: {
      const auto rid = dec.get_u64();
      if (!rid) return std::nullopt;
      // decode_checkpoint enforces the exact chain-count-vs-remaining
      // match (the checkpoint is the tail of this frame).
      const auto ckpt = decode_checkpoint(dec);
      if (!ckpt) return std::nullopt;
      msg.read_id = *rid;
      msg.checkpoint = *ckpt;
      break;
    }
  }
  if (dec.remaining() != 0) return std::nullopt;  // trailing garbage
  return msg;
}

// ---- handshake ----

u64 Hello::digest() const {
  return crypto::DigestBuilder{}.add(kWireMagic).add(node.index).add(nonce).finish();
}

std::vector<u8> encode_hello(const Hello& hello) {
  Encoder enc;
  enc.put_u32(kWireMagic);
  enc.put_u32(hello.node.index);
  enc.put_u64(hello.nonce);
  enc.put_u32(hello.sig.signer.index);
  enc.put_u64(hello.sig.tag);
  return enc.take();
}

std::optional<Hello> decode_hello(std::span<const u8> payload) {
  Decoder dec(payload);
  const auto magic = dec.get_u32();
  if (!magic || *magic != kWireMagic) return std::nullopt;
  Hello hello;
  const auto node = dec.get_u32();
  const auto nonce = dec.get_u64();
  const auto signer = dec.get_u32();
  const auto tag = dec.get_u64();
  if (!dec.ok() || dec.remaining() != 0) return std::nullopt;
  hello.node = NodeId{*node};
  hello.nonce = *nonce;
  hello.sig = crypto::Signature{NodeId{*signer}, *tag};
  return hello;
}

// ---- control plane ----

std::vector<u8> encode_ctl_request(const CtlRequest& req) {
  Encoder enc;
  enc.put_u8(static_cast<u8>(req.op));
  enc.put_i64(req.value);
  enc.put_u32(req.k);
  return enc.take();
}

std::optional<CtlRequest> decode_ctl_request(std::span<const u8> payload) {
  Decoder dec(payload);
  const auto op = dec.get_u8();
  const auto value = dec.get_i64();
  const auto k = dec.get_u32();
  if (!dec.ok() || dec.remaining() != 0) return std::nullopt;
  if (*op < static_cast<u8>(CtlOp::kAppend) || *op > static_cast<u8>(CtlOp::kKick)) {
    return std::nullopt;
  }
  return CtlRequest{static_cast<CtlOp>(*op), *value, *k};
}

const char* ctl_status_name(CtlStatus status) {
  switch (status) {
    case CtlStatus::kOk: return "ok";
    case CtlStatus::kUnavailable: return "unavailable";
    case CtlStatus::kUndecided: return "undecided";
    case CtlStatus::kRefusedBelowFold: return "refused_below_fold";
  }
  return "unknown";
}

std::vector<u8> encode_ctl_reply(const CtlReply& rep) {
  Encoder enc;
  enc.put_u8(static_cast<u8>(rep.op));
  enc.put_u8(rep.ok ? 1 : 0);
  enc.put_u8(static_cast<u8>(rep.status));
  enc.put_i64(rep.decision);
  enc.put_u32(rep.decided_over);
  enc.put_u32(static_cast<u32>(rep.view.size()));
  for (const mp::SignedAppend& rec : rep.view) encode_record(enc, rec);
  // One u64 per NodeStats field, in kNodeStatsFields order — the field
  // table is the single source of truth for the stats wire layout.
  for (const mp::NodeStatsField& f : mp::kNodeStatsFields) enc.put_u64(rep.stats.*f.member);
  return enc.take();
}

std::optional<CtlReply> decode_ctl_reply(std::span<const u8> payload) {
  Decoder dec(payload);
  const auto op = dec.get_u8();
  const auto ok = dec.get_u8();
  const auto status = dec.get_u8();
  const auto decision = dec.get_i64();
  const auto decided_over = dec.get_u32();
  const auto count = dec.get_u32();
  if (!dec.ok()) return std::nullopt;
  if (*op < static_cast<u8>(CtlOp::kAppend) || *op > static_cast<u8>(CtlOp::kKick)) {
    return std::nullopt;
  }
  if (*status > static_cast<u8>(CtlStatus::kRefusedBelowFold)) return std::nullopt;
  CtlReply rep;
  rep.op = static_cast<CtlOp>(*op);
  rep.ok = (*ok != 0);
  rep.status = static_cast<CtlStatus>(*status);
  rep.decision = *decision;
  rep.decided_over = *decided_over;
  if (dec.remaining() < static_cast<usize>(*count) * mp::kWireRecordBytes) return std::nullopt;
  rep.view.reserve(*count);
  for (u32 i = 0; i < *count; ++i) {
    const auto rec = decode_record(dec);
    if (!rec) return std::nullopt;
    rep.view.push_back(*rec);
  }
  for (const mp::NodeStatsField& f : mp::kNodeStatsFields) {
    const auto v = dec.get_u64();
    if (!v) return std::nullopt;
    rep.stats.*f.member = *v;
  }
  if (!dec.ok() || dec.remaining() != 0) return std::nullopt;
  return rep;
}

// ---- framing ----

void append_frame(std::vector<u8>& out, FrameKind kind, std::span<const u8> payload) {
  const usize len = 1 + payload.size();  // kind byte + body
  AMM_EXPECTS(len <= kMaxFrameBytes);
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<u8>(len >> (8 * i)));
  out.push_back(static_cast<u8>(kind));
  out.insert(out.end(), payload.begin(), payload.end());
}

FrameStatus extract_frame_view(std::span<const u8> buf, FrameView* out, usize* consumed) {
  if (buf.size() < kFrameHeaderBytes) return FrameStatus::kNeedMore;
  const u32 len = load_u32(buf.data());
  if (len == 0 || len > kMaxFrameBytes) return FrameStatus::kCorrupt;
  if (buf.size() < kFrameHeaderBytes + len) return FrameStatus::kNeedMore;
  const u8 kind = buf[kFrameHeaderBytes];
  if (kind < static_cast<u8>(FrameKind::kHello) || kind > static_cast<u8>(FrameKind::kCtlRep)) {
    return FrameStatus::kCorrupt;
  }
  out->kind = static_cast<FrameKind>(kind);
  out->payload = buf.subspan(kFrameHeaderBytes + 1, len - 1);
  *consumed = kFrameHeaderBytes + len;
  return FrameStatus::kFrame;
}

FrameStatus extract_frame(std::vector<u8>& buf, Frame* out) {
  FrameView view;
  usize consumed = 0;
  const FrameStatus status = extract_frame_view(buf, &view, &consumed);
  if (status != FrameStatus::kFrame) return status;
  out->kind = view.kind;
  out->payload.assign(view.payload.begin(), view.payload.end());
  buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(consumed));
  return FrameStatus::kFrame;
}

}  // namespace amm::net
