// On-disk framing of the durable append log (DESIGN.md §10).
//
// Segment files are a flat run of record frames:
//
//   [u32 len][u32 crc32][payload]          (little-endian throughout)
//
// where `len` is the payload size (always mp::kWireRecordBytes — the
// payload is one net/codec-encoded SignedAppend) and `crc32` covers the
// payload. Because `len` is never 0, an all-zero header is never a frame:
// the log ends at the first position that does not hold a whole valid
// frame. If every byte from there on is zero, the rest is unused
// preallocated space (FileLog reserves each segment up front), not a
// fault. Anything else — a frame that is truncated, length-corrupt,
// CRC-corrupt or undecodable, or garbage after the zeros — is the *torn
// tail*: everything from the end of the log on is discarded (truncated in
// the last segment, fatal corruption elsewhere). scan_segment is the one
// implementation of this rule; FileLog and amm_logtool both call it.
//
// Snapshot files are one framed blob:
//
//   [u32 magic][u32 len][u32 crc32][payload]
//
// with the payload laid out by encode_snapshot below (the checkpoint is
// the last field because net/codec's decode_checkpoint requires it to be
// the tail of whatever carries it).
//
// decode/extract functions are total: corrupt input yields kTorn/nullopt,
// never UB — fuzzed at every truncation offset by
// tests/storage/file_log_test.cpp, the same discipline as the wire codecs.
#pragma once

#include <array>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "mp/storage.hpp"
#include "net/codec.hpp"

namespace amm::storage {

inline constexpr u32 kSnapshotMagic = 0x414d4d53;  // "AMMS"
inline constexpr usize kLogFrameHeaderBytes = 4 + 4;  // len + crc32
inline constexpr usize kLogRecordFrameBytes = kLogFrameHeaderBytes + mp::kWireRecordBytes;
inline constexpr usize kSnapshotHeaderBytes = 4 + kLogFrameHeaderBytes;  // magic + len + crc32

/// CRC-32 (IEEE 802.3, reflected) over `bytes`.
u32 crc32(std::span<const u8> bytes);

/// One framed record, built on the stack (FileLog writes it with one pwrite).
using RecordFrame = std::array<u8, kLogRecordFrameBytes>;
RecordFrame encode_record_frame(const mp::SignedAppend& rec);

/// Appends one framed record to `out`.
void append_record_frame(std::vector<u8>& out, const mp::SignedAppend& rec);

enum class ScanStatus : u8 {
  kRecord,  ///< one complete, CRC-valid record extracted
  kTorn,    ///< truncation or corruption — the tail starts here
};

/// Extracts the next framed record from the front of `buf`. On kRecord,
/// `*out` holds the record and `*consumed` the frame size; on kTorn
/// nothing is consumed and every byte from the front of `buf` on belongs
/// to the torn tail.
ScanStatus extract_record_frame(std::span<const u8> buf, mp::SignedAppend* out, usize* consumed);

/// What a front-to-back scan of one segment image found.
struct SegmentScan {
  u64 records = 0;        ///< whole valid frames at the front of the image
  usize valid_bytes = 0;  ///< bytes those frames span (where the log ends)
  usize torn_bytes = 0;   ///< bytes past the log's end; 0 when all of them are zero
};

/// Scans a segment image frame by frame, calling `on_record` (if set) for
/// each whole frame in log order, and classifies what follows the last one
/// by the end-of-log rule above.
SegmentScan scan_segment(std::span<const u8> image,
                         const std::function<void(const mp::SignedAppend&)>& on_record = {});

/// Encodes a snapshot file image (magic + len + crc + payload).
std::vector<u8> encode_snapshot(const mp::Snapshot& snap);

/// Decodes a snapshot file image; nullopt on any truncation, magic, CRC or
/// shape mismatch. Signature validation is the caller's job.
std::optional<mp::Snapshot> decode_snapshot(std::span<const u8> bytes);

}  // namespace amm::storage
