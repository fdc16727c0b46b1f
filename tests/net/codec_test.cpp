// Codec invariants: exact wire_size agreement (the §4/E10 byte accounting
// is only honest if wire_size() IS the encoding), lossless round-trips,
// and total rejection of truncated/corrupted input (run under the
// ASan/UBSan matrix — decode must never read out of bounds).
#include "net/codec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "crypto/signature.hpp"
#include "net/peer.hpp"
#include "support/rng.hpp"

namespace amm::net {
namespace {

mp::SignedAppend make_record(Rng& rng, u32 node_count) {
  mp::SignedAppend rec;
  rec.author = NodeId{static_cast<u32>(rng.uniform_below(node_count))};
  rec.seq = static_cast<u32>(rng.uniform_below(1u << 20));
  rec.value = rng.uniform_int(-1'000'000, 1'000'000);
  rec.sig = crypto::Signature{rec.author, rng.next()};
  return rec;
}

mp::WireMessage make_message(Rng& rng, u32 kind_index, usize view_size) {
  // `view_size` sizes whichever variable-length payload the kind carries:
  // the frontier for kReadReq, the record view for kReadReply.
  mp::WireMessage msg;
  msg.kind = static_cast<mp::WireMessage::Kind>(kind_index);
  msg.append = make_record(rng, 8);
  msg.ack_sig = crypto::Signature{NodeId{static_cast<u32>(rng.uniform_below(8))}, rng.next()};
  msg.read_id = rng.next();
  if (msg.kind == mp::WireMessage::Kind::kReadReq) {
    for (usize i = 0; i < view_size; ++i) {
      msg.frontier.push_back(mp::FrontierEntry{NodeId{static_cast<u32>(rng.uniform_below(8))},
                                               static_cast<u32>(rng.uniform_below(1u << 20))});
    }
  }
  if (msg.kind == mp::WireMessage::Kind::kReadReply) {
    msg.frontier_echo = rng.next();
    for (usize i = 0; i < view_size; ++i) msg.view.push_back(make_record(rng, 8));
  }
  if (msg.kind == mp::WireMessage::Kind::kCheckpointReply) {
    msg.checkpoint.folded_below = static_cast<u32>(rng.uniform_below(1u << 16));
    for (usize i = 0; i < view_size; ++i) msg.checkpoint.chains.push_back(rng.next());
    msg.checkpoint.folded_records = rng.next();
    msg.checkpoint.vote_sum = rng.uniform_int(-1'000'000, 1'000'000);
    msg.checkpoint.sig =
        crypto::Signature{NodeId{static_cast<u32>(rng.uniform_below(8))}, rng.next()};
  }
  return msg;
}

bool equal(const mp::WireMessage& a, const mp::WireMessage& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case mp::WireMessage::Kind::kAppend:
      return a.append == b.append && a.append.sig == b.append.sig;
    case mp::WireMessage::Kind::kAck:
      return a.append == b.append && a.append.sig == b.append.sig && a.ack_sig == b.ack_sig;
    case mp::WireMessage::Kind::kReadReq:
      return a.read_id == b.read_id && a.frontier == b.frontier;
    case mp::WireMessage::Kind::kReadReply: {
      if (a.read_id != b.read_id || a.frontier_echo != b.frontier_echo ||
          a.view.size() != b.view.size()) {
        return false;
      }
      for (usize i = 0; i < a.view.size(); ++i) {
        if (!(a.view[i] == b.view[i]) || !(a.view[i].sig == b.view[i].sig)) return false;
      }
      return true;
    }
    case mp::WireMessage::Kind::kCheckpointReq:
      return a.read_id == b.read_id;
    case mp::WireMessage::Kind::kCheckpointReply:
      return a.read_id == b.read_id && a.checkpoint == b.checkpoint;
  }
  return false;
}

constexpr u32 kNumKinds = 6;

TEST(Codec, EncodedSizeEqualsWireSizeForAllKinds) {
  // The satellite invariant: encode(msg).size() == msg.wire_size() for all
  // six message kinds, including empty and large views.
  Rng rng(11);
  for (u32 kind = 0; kind < kNumKinds; ++kind) {
    for (const usize view_size : {usize{0}, usize{1}, usize{7}, usize{400}}) {
      const mp::WireMessage msg = make_message(rng, kind, view_size);
      EXPECT_EQ(encode_message(msg).size(), msg.wire_size())
          << "kind=" << kind << " view=" << view_size;
    }
  }
}

TEST(Codec, RoundTripAllKinds) {
  Rng rng(12);
  for (u32 kind = 0; kind < kNumKinds; ++kind) {
    const mp::WireMessage msg = make_message(rng, kind, 5);
    const auto decoded = decode_message(encode_message(msg));
    ASSERT_TRUE(decoded.has_value()) << "kind=" << kind;
    EXPECT_TRUE(equal(msg, *decoded)) << "kind=" << kind;
  }
}

TEST(Codec, FuzzRoundTripRandomMessages) {
  Rng rng(13);
  for (int trial = 0; trial < 500; ++trial) {
    const u32 kind = static_cast<u32>(rng.uniform_below(kNumKinds));
    const usize view_size = static_cast<usize>(rng.uniform_below(64));
    const mp::WireMessage msg = make_message(rng, kind, view_size);
    const std::vector<u8> bytes = encode_message(msg);
    const auto decoded = decode_message(bytes);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_TRUE(equal(msg, *decoded));
    // Re-encoding must be byte-identical (canonical encoding).
    EXPECT_EQ(encode_message(*decoded), bytes);
  }
}

TEST(Codec, FuzzLargeView) {
  Rng rng(14);
  const mp::WireMessage msg = make_message(rng, 3, 5000);
  const auto decoded = decode_message(encode_message(msg));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->view.size(), 5000u);
}

TEST(Codec, EveryTruncationRejected) {
  Rng rng(15);
  for (u32 kind = 0; kind < kNumKinds; ++kind) {
    const std::vector<u8> bytes = encode_message(make_message(rng, kind, 3));
    for (usize len = 0; len < bytes.size(); ++len) {
      EXPECT_FALSE(decode_message(std::span(bytes.data(), len)).has_value())
          << "kind=" << kind << " len=" << len;
    }
  }
}

TEST(Codec, TrailingGarbageRejected) {
  Rng rng(16);
  for (u32 kind = 0; kind < kNumKinds; ++kind) {
    std::vector<u8> bytes = encode_message(make_message(rng, kind, 2));
    bytes.push_back(0xAB);
    EXPECT_FALSE(decode_message(bytes).has_value()) << "kind=" << kind;
  }
}

TEST(Codec, FuzzCorruptionNeverCrashes) {
  // Flipped bytes either fail decode or yield a message that re-encodes to
  // the same corrupted bytes — never UB, never a crash.
  Rng rng(17);
  for (int trial = 0; trial < 500; ++trial) {
    const u32 kind = static_cast<u32>(rng.uniform_below(kNumKinds));
    std::vector<u8> bytes = encode_message(make_message(rng, kind, 4));
    const usize pos = static_cast<usize>(rng.uniform_below(bytes.size()));
    bytes[pos] ^= static_cast<u8>(1 + rng.uniform_below(255));
    const auto decoded = decode_message(bytes);
    if (decoded) {
      EXPECT_EQ(encode_message(*decoded), bytes);
    }
  }
}

TEST(Codec, LyingViewCountRejected) {
  Rng rng(18);
  mp::WireMessage msg = make_message(rng, 3, 3);
  std::vector<u8> bytes = encode_message(msg);
  bytes[1 + 8 + 8] = 200;  // count field (after kind+rid+echo): claims 200, carries 3
  EXPECT_FALSE(decode_message(bytes).has_value());
}

TEST(Codec, LyingFrontierCountRejected) {
  Rng rng(21);
  mp::WireMessage msg = make_message(rng, 2, 3);
  std::vector<u8> bytes = encode_message(msg);
  bytes[1 + 8] = 200;  // count field (after kind+rid): claims 200 entries, carries 3
  EXPECT_FALSE(decode_message(bytes).has_value());
}

TEST(Codec, FrontierWireSizesExact) {
  // The §9 byte accounting in closed form: a read request costs
  // 13 + 8·|frontier| bytes, a read reply 21 + 28·|view| — pinned here so
  // a codec change cannot silently shift the E10/cluster numbers.
  Rng rng(22);
  for (const usize size : {usize{0}, usize{1}, usize{5}, usize{333}}) {
    const mp::WireMessage req = make_message(rng, 2, size);
    EXPECT_EQ(req.wire_size(), 13 + 8 * size);
    EXPECT_EQ(encode_message(req).size(), req.wire_size());
    const mp::WireMessage reply = make_message(rng, 3, size);
    EXPECT_EQ(reply.wire_size(), 21 + 28 * size);
    EXPECT_EQ(encode_message(reply).size(), reply.wire_size());
  }
}

TEST(Codec, CheckpointWireSizesExact) {
  // The checkpoint pair in closed form: a request is 9 bytes, a reply
  // 45 + 8·|chains| — pinned so the restart-sync byte accounting of
  // DESIGN.md §8 stays honest.
  Rng rng(23);
  const mp::WireMessage req = make_message(rng, 4, 0);
  EXPECT_EQ(req.wire_size(), 9u);
  EXPECT_EQ(encode_message(req).size(), req.wire_size());
  for (const usize chains : {usize{0}, usize{1}, usize{7}, usize{333}}) {
    const mp::WireMessage reply = make_message(rng, 5, chains);
    EXPECT_EQ(reply.wire_size(), 45 + 8 * chains);
    EXPECT_EQ(encode_message(reply).size(), reply.wire_size());
  }
}

TEST(Codec, LyingChainCountRejected) {
  Rng rng(24);
  mp::WireMessage msg = make_message(rng, 5, 3);
  std::vector<u8> bytes = encode_message(msg);
  // Chain count field sits after kind + read_id + folded_below.
  bytes[1 + 8 + 4] = 200;  // claims 200 chains, carries 3
  EXPECT_FALSE(decode_message(bytes).has_value());
  bytes[1 + 8 + 4] = 0;  // claims 0 chains, carries 3 (trailing garbage)
  EXPECT_FALSE(decode_message(bytes).has_value());
}

TEST(Codec, FramedMessageMatchesAppendFrame) {
  // The transport's single-allocation send path must emit exactly the
  // bytes append_frame(encode_message(msg)) would.
  Rng rng(25);
  for (u32 kind = 0; kind < kNumKinds; ++kind) {
    for (const usize view_size : {usize{0}, usize{5}}) {
      const mp::WireMessage msg = make_message(rng, kind, view_size);
      std::vector<u8> framed_twice;
      append_frame(framed_twice, FrameKind::kMsg, encode_message(msg));
      EXPECT_EQ(encode_framed_message(msg), framed_twice) << "kind=" << kind;
    }
  }
}

TEST(Codec, RecordSpanVariantsMatchEncoderPath) {
  // decode_record_from (the zero-copy read storage/log_format.cpp uses)
  // parses exactly what the Encoder path writes, and encode_record_to
  // writes it.
  Rng rng(26);
  for (int trial = 0; trial < 200; ++trial) {
    const mp::SignedAppend rec = make_record(rng, 8);
    Encoder enc;
    encode_record(enc, rec);
    ASSERT_EQ(enc.bytes().size(), mp::kWireRecordBytes);

    const auto decoded = decode_record_from(enc.bytes());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_TRUE(*decoded == rec);
    EXPECT_EQ(decoded->sig, rec.sig);

    // encode_record_to (the stack-frame write FileLog uses) writes the
    // same bytes as the Encoder path.
    std::array<u8, mp::kWireRecordBytes> fixed{};
    encode_record_to(fixed, rec);
    EXPECT_TRUE(std::equal(fixed.begin(), fixed.end(), enc.bytes().begin()));
  }
  // Short input: total rejection, like every other decode path.
  const std::vector<u8> short_buf(mp::kWireRecordBytes - 1);
  EXPECT_FALSE(decode_record_from(short_buf).has_value());
}

TEST(Codec, FrameViewMatchesExtractFrame) {
  // extract_frame_view parses the same boundaries as extract_frame, byte
  // by byte, without consuming; parity pins the zero-copy drain loop to
  // the copying semantics the rest of the suite verifies.
  std::vector<u8> wire;
  const std::vector<u8> p1 = {9, 8, 7, 6};
  const std::vector<u8> p2 = {};
  const std::vector<u8> p3 = {1};
  append_frame(wire, FrameKind::kMsg, p1);
  append_frame(wire, FrameKind::kCtlReq, p2);
  append_frame(wire, FrameKind::kHello, p3);

  // Feed byte by byte through a view-based drain: kNeedMore until a frame
  // completes, then the view borrows the payload in place.
  std::vector<u8> buf;
  std::vector<Frame> frames;
  for (const u8 byte : wire) {
    buf.push_back(byte);
    usize offset = 0;
    for (;;) {
      FrameView view;
      usize consumed = 0;
      const std::span<const u8> rest{buf.data() + offset, buf.size() - offset};
      if (extract_frame_view(rest, &view, &consumed) != FrameStatus::kFrame) break;
      frames.push_back(Frame{view.kind, {view.payload.begin(), view.payload.end()}});
      offset += consumed;
    }
    buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(offset));
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].kind, FrameKind::kMsg);
  EXPECT_EQ(frames[0].payload, p1);
  EXPECT_EQ(frames[1].kind, FrameKind::kCtlReq);
  EXPECT_TRUE(frames[1].payload.empty());
  EXPECT_EQ(frames[2].kind, FrameKind::kHello);
  EXPECT_EQ(frames[2].payload, p3);
  EXPECT_TRUE(buf.empty());

  // The corrupt cases reject identically to extract_frame.
  FrameView view;
  usize consumed = 0;
  const std::vector<u8> oversized = {0xFF, 0xFF, 0xFF, 0xFF, 2};
  EXPECT_EQ(extract_frame_view(oversized, &view, &consumed), FrameStatus::kCorrupt);
  const std::vector<u8> zero_len = {0, 0, 0, 0};
  EXPECT_EQ(extract_frame_view(zero_len, &view, &consumed), FrameStatus::kCorrupt);
  std::vector<u8> bad_kind;
  append_frame(bad_kind, FrameKind::kMsg, std::vector<u8>{});
  bad_kind[4] = 99;
  EXPECT_EQ(extract_frame_view(bad_kind, &view, &consumed), FrameStatus::kCorrupt);
}

TEST(Codec, FrontierDigestDistinguishesFrontiers) {
  // The fallback detection depends on distinct frontiers hashing apart and
  // the digest being order-sensitive (entries are emitted in author order).
  const std::vector<mp::FrontierEntry> empty;
  const std::vector<mp::FrontierEntry> one{{NodeId{0}, 5}};
  const std::vector<mp::FrontierEntry> bumped{{NodeId{0}, 6}};
  const std::vector<mp::FrontierEntry> other_author{{NodeId{1}, 5}};
  EXPECT_NE(mp::frontier_digest(empty), mp::frontier_digest(one));
  EXPECT_NE(mp::frontier_digest(one), mp::frontier_digest(bumped));
  EXPECT_NE(mp::frontier_digest(one), mp::frontier_digest(other_author));
  EXPECT_EQ(mp::frontier_digest(one), mp::frontier_digest({{NodeId{0}, 5}}));
}

TEST(Codec, FrameExtraction) {
  std::vector<u8> wire;
  const std::vector<u8> p1 = {1, 2, 3};
  const std::vector<u8> p2 = {};
  append_frame(wire, FrameKind::kMsg, p1);
  append_frame(wire, FrameKind::kCtlReq, p2);

  // Feed byte by byte: kNeedMore until each frame completes.
  std::vector<u8> buf;
  std::vector<Frame> frames;
  for (const u8 byte : wire) {
    buf.push_back(byte);
    Frame frame;
    while (extract_frame(buf, &frame) == FrameStatus::kFrame) frames.push_back(frame);
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].kind, FrameKind::kMsg);
  EXPECT_EQ(frames[0].payload, p1);
  EXPECT_EQ(frames[1].kind, FrameKind::kCtlReq);
  EXPECT_TRUE(frames[1].payload.empty());
  EXPECT_TRUE(buf.empty());
}

TEST(Codec, FrameCorruptionDetected) {
  Frame frame;
  std::vector<u8> oversized = {0xFF, 0xFF, 0xFF, 0xFF, 2};  // 4 GiB length
  EXPECT_EQ(extract_frame(oversized, &frame), FrameStatus::kCorrupt);

  std::vector<u8> zero_len = {0, 0, 0, 0};
  EXPECT_EQ(extract_frame(zero_len, &frame), FrameStatus::kCorrupt);

  std::vector<u8> bad_kind;
  append_frame(bad_kind, FrameKind::kMsg, std::vector<u8>{});
  bad_kind[4] = 99;  // unknown frame kind
  EXPECT_EQ(extract_frame(bad_kind, &frame), FrameStatus::kCorrupt);
}

TEST(Codec, HelloRoundTripAndVerification) {
  crypto::KeyRegistry keys(4, 77);
  Hello hello;
  hello.node = NodeId{2};
  hello.nonce = 0xDEADBEEF;
  hello.sig = keys.sign(NodeId{2}, hello.digest());

  const auto decoded = decode_hello(encode_hello(hello));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->node, hello.node);
  EXPECT_EQ(decoded->nonce, hello.nonce);
  EXPECT_TRUE(verify_hello(*decoded, 4, keys));

  // Out-of-cluster node id, foreign signer, and forged tag all fail.
  Hello outside = hello;
  outside.node = NodeId{9};
  outside.sig = keys.sign(NodeId{1}, outside.digest());
  EXPECT_FALSE(verify_hello(outside, 4, keys));

  Hello foreign = hello;
  foreign.sig = keys.sign(NodeId{1}, foreign.digest());
  EXPECT_FALSE(verify_hello(foreign, 4, keys));

  Hello forged = hello;
  forged.sig.tag ^= 1;
  EXPECT_FALSE(verify_hello(forged, 4, keys));
}

TEST(Codec, CtlRoundTrips) {
  const CtlRequest request{CtlOp::kDecide, -7, 31};
  const auto req = decode_ctl_request(encode_ctl_request(request));
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->op, CtlOp::kDecide);
  EXPECT_EQ(req->value, -7);
  EXPECT_EQ(req->k, 31u);

  Rng rng(19);
  CtlReply reply;
  reply.op = CtlOp::kRead;
  reply.ok = true;
  reply.status = CtlStatus::kOk;
  reply.decision = -1;
  reply.decided_over = 9;
  for (int i = 0; i < 5; ++i) reply.view.push_back(make_record(rng, 4));
  // Distinct value per stats field, assigned through the same field table
  // the codec serializes from.
  for (usize i = 0; i < mp::kNodeStatsFieldCount; ++i) {
    reply.stats.*mp::kNodeStatsFields[i].member = i + 1;
  }
  const auto rep = decode_ctl_reply(encode_ctl_reply(reply));
  ASSERT_TRUE(rep.has_value());
  EXPECT_EQ(rep->view.size(), 5u);
  for (usize i = 0; i < mp::kNodeStatsFieldCount; ++i) {
    EXPECT_EQ(rep->stats.*mp::kNodeStatsFields[i].member, i + 1)
        << "field " << mp::kNodeStatsFields[i].name;
  }
  // A few spot checks by name, so a scrambled field table cannot pass.
  EXPECT_EQ(rep->stats.reconnects, 5u);
  EXPECT_EQ(rep->stats.rss_kb, 15u);
  EXPECT_EQ(rep->stats.log_bytes, 16u);
  EXPECT_EQ(rep->stats.snapshot_count, 17u);
  EXPECT_EQ(rep->stats.recovery_replayed_records, 18u);
  EXPECT_TRUE(rep->ok);
  EXPECT_EQ(rep->status, CtlStatus::kOk);

  // The machine-readable failure reason survives the roundtrip.
  reply.ok = false;
  reply.status = CtlStatus::kRefusedBelowFold;
  const auto refused = decode_ctl_reply(encode_ctl_reply(reply));
  ASSERT_TRUE(refused.has_value());
  EXPECT_EQ(refused->status, CtlStatus::kRefusedBelowFold);

  // Truncated control frames are rejected, not misread.
  const std::vector<u8> bytes = encode_ctl_reply(reply);
  EXPECT_FALSE(decode_ctl_reply(std::span(bytes.data(), bytes.size() - 1)).has_value());
  EXPECT_FALSE(decode_ctl_request(std::span(bytes.data(), usize{2})).has_value());

  // An out-of-vocabulary status byte is corruption, not a default.
  std::vector<u8> bad_status = bytes;
  bad_status[2] = 200;
  EXPECT_FALSE(decode_ctl_reply(bad_status).has_value());
}

}  // namespace
}  // namespace amm::net
