#include "storage/log_format.hpp"

#include <algorithm>
#include <array>

namespace amm::storage {
namespace {

void store_u32(u8* dst, u32 v) {
  for (int i = 0; i < 4; ++i) dst[i] = static_cast<u8>(v >> (8 * i));
}

}  // namespace

u32 crc32(std::span<const u8> bytes) {
  static constexpr std::array<u32, 256> kTable = [] {
    std::array<u32, 256> table{};
    for (u32 i = 0; i < 256; ++i) {
      u32 c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
      table[i] = c;
    }
    return table;
  }();
  u32 crc = 0xffffffffu;
  for (const u8 b : bytes) crc = kTable[(crc ^ b) & 0xffu] ^ (crc >> 8);
  return crc ^ 0xffffffffu;
}

RecordFrame encode_record_frame(const mp::SignedAppend& rec) {
  RecordFrame frame;
  const std::span<u8, mp::kWireRecordBytes> payload(frame.data() + kLogFrameHeaderBytes,
                                                    mp::kWireRecordBytes);
  net::encode_record_to(payload, rec);
  store_u32(frame.data(), static_cast<u32>(mp::kWireRecordBytes));
  store_u32(frame.data() + 4, crc32(payload));
  return frame;
}

void append_record_frame(std::vector<u8>& out, const mp::SignedAppend& rec) {
  const RecordFrame frame = encode_record_frame(rec);
  out.insert(out.end(), frame.begin(), frame.end());
}

ScanStatus extract_record_frame(std::span<const u8> buf, mp::SignedAppend* out,
                                usize* consumed) {
  net::Decoder dec(buf);
  const auto len = dec.get_u32();
  const auto crc = dec.get_u32();
  if (!len || !crc) return ScanStatus::kTorn;
  // Record frames are fixed-size: any other length is corruption, and a
  // huge length can never make the scanner walk past a valid successor.
  if (*len != mp::kWireRecordBytes) return ScanStatus::kTorn;
  if (dec.remaining() < mp::kWireRecordBytes) return ScanStatus::kTorn;
  const std::span<const u8> payload = buf.subspan(kLogFrameHeaderBytes, mp::kWireRecordBytes);
  if (crc32(payload) != *crc) return ScanStatus::kTorn;
  const auto rec = net::decode_record_from(payload);
  if (!rec) return ScanStatus::kTorn;
  *out = *rec;
  *consumed = kLogRecordFrameBytes;
  return ScanStatus::kRecord;
}

SegmentScan scan_segment(std::span<const u8> image,
                         const std::function<void(const mp::SignedAppend&)>& on_record) {
  SegmentScan scan;
  mp::SignedAppend rec;
  usize consumed = 0;
  while (scan.valid_bytes < image.size() &&
         extract_record_frame(image.subspan(scan.valid_bytes), &rec, &consumed) ==
             ScanStatus::kRecord) {
    if (on_record) on_record(rec);
    ++scan.records;
    scan.valid_bytes += consumed;
  }
  const std::span<const u8> rest = image.subspan(scan.valid_bytes);
  if (std::any_of(rest.begin(), rest.end(), [](u8 b) { return b != 0; })) {
    scan.torn_bytes = rest.size();
  }
  return scan;
}

std::vector<u8> encode_snapshot(const mp::Snapshot& snap) {
  net::Encoder body;
  body.put_u64(snap.log_seq);
  body.put_u32(snap.next_seq);
  body.put_u32(snap.sig.signer.index);
  body.put_u64(snap.sig.tag);
  body.put_u32(static_cast<u32>(snap.watermarks.size()));
  for (const u32 w : snap.watermarks) body.put_u32(w);
  body.put_u32(static_cast<u32>(snap.live.size()));
  for (const mp::SignedAppend& rec : snap.live) net::encode_record(body, rec);
  // Last field by contract: net/codec's decode_checkpoint requires the
  // checkpoint to be the tail of whatever frame carries it.
  net::encode_checkpoint(body, snap.checkpoint);

  net::Encoder head;
  head.reserve(kSnapshotHeaderBytes + body.bytes().size());
  head.put_u32(kSnapshotMagic);
  head.put_u32(static_cast<u32>(body.bytes().size()));
  head.put_u32(crc32(body.bytes()));
  std::vector<u8> file = head.take();
  file.insert(file.end(), body.bytes().begin(), body.bytes().end());
  return file;
}

std::optional<mp::Snapshot> decode_snapshot(std::span<const u8> bytes) {
  net::Decoder dec(bytes);
  const auto magic = dec.get_u32();
  const auto len = dec.get_u32();
  const auto crc = dec.get_u32();
  if (!magic || !len || !crc) return std::nullopt;
  if (*magic != kSnapshotMagic) return std::nullopt;
  // The length must match the remaining bytes exactly — a snapshot file is
  // one frame, so trailing garbage is corruption too.
  if (dec.remaining() != *len) return std::nullopt;
  if (crc32(bytes.subspan(kSnapshotHeaderBytes)) != *crc) return std::nullopt;

  mp::Snapshot snap;
  const auto log_seq = dec.get_u64();
  const auto next_seq = dec.get_u32();
  const auto signer = dec.get_u32();
  const auto tag = dec.get_u64();
  const auto wm_count = dec.get_u32();
  if (!log_seq || !next_seq || !signer || !tag || !wm_count) return std::nullopt;
  if (dec.remaining() < static_cast<usize>(*wm_count) * 4) return std::nullopt;
  snap.log_seq = *log_seq;
  snap.next_seq = *next_seq;
  snap.sig = crypto::Signature{NodeId{*signer}, *tag};
  snap.watermarks.reserve(*wm_count);
  for (u32 i = 0; i < *wm_count; ++i) {
    const auto w = dec.get_u32();
    if (!w) return std::nullopt;
    snap.watermarks.push_back(*w);
  }
  const auto live_count = dec.get_u32();
  if (!live_count) return std::nullopt;
  if (dec.remaining() < static_cast<usize>(*live_count) * mp::kWireRecordBytes) {
    return std::nullopt;
  }
  snap.live.reserve(*live_count);
  for (u32 i = 0; i < *live_count; ++i) {
    const auto rec = net::decode_record(dec);
    if (!rec) return std::nullopt;
    snap.live.push_back(*rec);
  }
  // decode_checkpoint enforces the exact chain-count-vs-remaining match
  // (the checkpoint is the tail of the snapshot frame).
  const auto ckpt = net::decode_checkpoint(dec);
  if (!ckpt) return std::nullopt;
  snap.checkpoint = *ckpt;
  if (dec.remaining() != 0) return std::nullopt;
  return snap;
}

}  // namespace amm::storage
