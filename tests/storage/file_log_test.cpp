// On-disk framing and FileLog durability tests (DESIGN.md §10).
//
// The framing half applies the wire-codec discipline to the disk formats:
// every record-frame stream is truncated at *every* byte offset and the
// scan must yield exactly the clean record prefix, never garbage; every
// single-byte flip must cut the stream at the corrupted frame (CRC-32
// detects any burst <= 32 bits, so a byte flip can never slip through).
// The FileLog half exercises the store lifecycle against a real temp
// directory: reopen, torn-tail truncation, segment rolling and pruning,
// snapshot replacement, and a seeded crash-point fuzz. The preallocated
// layout gets its own crash images (whole frames, an optional partial
// frame, then zeros up to the reserved size) and a writer process that
// exits without closing the store.
#include "storage/file_log.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "storage/log_format.hpp"
#include "support/rng.hpp"

namespace amm::storage {
namespace {

struct TempDir {
  TempDir() {
    char tmpl[] = "/tmp/amm_store_test_XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    if (made != nullptr) path = made;
  }
  ~TempDir() {
    if (path.empty()) return;
    if (DIR* d = ::opendir(path.c_str())) {
      while (dirent* e = ::readdir(d)) {
        const std::string name = e->d_name;
        if (name != "." && name != "..") ::unlink((path + "/" + name).c_str());
      }
      ::closedir(d);
    }
    ::rmdir(path.c_str());
  }
  std::string path;
};

mp::SignedAppend make_record(u32 author, u32 seq, i64 value) {
  mp::SignedAppend rec;
  rec.author = NodeId{author};
  rec.seq = seq;
  rec.value = value;
  rec.sig = crypto::Signature{NodeId{author}, 0x51A0u + static_cast<u64>(author) * 131 + seq};
  return rec;
}

std::vector<mp::SignedAppend> records(usize count) {
  std::vector<mp::SignedAppend> recs;
  for (usize i = 0; i < count; ++i) {
    recs.push_back(make_record(static_cast<u32>(i % 3), static_cast<u32>(i / 3),
                               static_cast<i64>(100 + i)));
  }
  return recs;
}

std::vector<u8> frame_all(const std::vector<mp::SignedAppend>& recs) {
  std::vector<u8> image;
  for (const mp::SignedAppend& rec : recs) append_record_frame(image, rec);
  return image;
}

std::vector<mp::SignedAppend> scan_all(std::span<const u8> image, usize* valid_bytes = nullptr) {
  std::vector<mp::SignedAppend> out;
  usize off = 0;
  mp::SignedAppend rec;
  usize consumed = 0;
  while (off < image.size() &&
         extract_record_frame(image.subspan(off), &rec, &consumed) == ScanStatus::kRecord) {
    out.push_back(rec);
    off += consumed;
  }
  if (valid_bytes != nullptr) *valid_bytes = off;
  return out;
}

void expect_prefix(const std::vector<mp::SignedAppend>& got,
                   const std::vector<mp::SignedAppend>& all, usize count) {
  ASSERT_EQ(got.size(), count);
  for (usize i = 0; i < count; ++i) {
    EXPECT_TRUE(got[i] == all[i]) << "record " << i;
    EXPECT_TRUE(got[i].sig == all[i].sig) << "record " << i;
  }
}

void append_bytes(const std::string& path, const std::vector<u8>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

void write_bytes(const std::string& path, std::span<const u8> bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

mp::Snapshot make_snapshot(u64 log_seq, u32 next_seq) {
  mp::Snapshot snap;
  snap.log_seq = log_seq;
  snap.next_seq = next_seq;
  snap.watermarks = {5, 2, 0};
  snap.checkpoint.folded_below = 2;
  snap.checkpoint.chains = {11, 22, 33};
  snap.checkpoint.folded_records = 6;
  snap.checkpoint.vote_sum = -2;
  snap.checkpoint.sig = crypto::Signature{NodeId{0}, 77};
  snap.live = records(4);
  snap.sig = crypto::Signature{NodeId{0}, 99};
  return snap;
}

// ---- framing ----

TEST(LogFormat, RecordFrameStreamRoundTrips) {
  const auto recs = records(20);
  const std::vector<u8> image = frame_all(recs);
  ASSERT_EQ(image.size(), recs.size() * kLogRecordFrameBytes);
  usize valid = 0;
  expect_prefix(scan_all(image, &valid), recs, recs.size());
  EXPECT_EQ(valid, image.size());
}

TEST(LogFormat, EveryTruncationOffsetYieldsExactRecordPrefix) {
  const auto recs = records(12);
  const std::vector<u8> image = frame_all(recs);
  for (usize cut = 0; cut <= image.size(); ++cut) {
    usize valid = 0;
    const auto got = scan_all(std::span(image.data(), cut), &valid);
    const usize whole = cut / kLogRecordFrameBytes;
    ASSERT_NO_FATAL_FAILURE(expect_prefix(got, recs, whole)) << "cut=" << cut;
    EXPECT_EQ(valid, whole * kLogRecordFrameBytes) << "cut=" << cut;
  }
}

TEST(LogFormat, EveryByteFlipCutsStreamAtCorruptedFrame) {
  const auto recs = records(8);
  const std::vector<u8> image = frame_all(recs);
  for (usize off = 0; off < image.size(); ++off) {
    std::vector<u8> mutated = image;
    mutated[off] ^= 0xFF;
    const auto got = scan_all(mutated);
    const usize intact = off / kLogRecordFrameBytes;
    ASSERT_NO_FATAL_FAILURE(expect_prefix(got, recs, intact)) << "flip at " << off;
  }
}

TEST(LogFormat, SnapshotImageRoundTrips) {
  const mp::Snapshot snap = make_snapshot(42, 9);
  const std::vector<u8> image = encode_snapshot(snap);
  const auto decoded = decode_snapshot(image);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->log_seq, snap.log_seq);
  EXPECT_EQ(decoded->next_seq, snap.next_seq);
  EXPECT_EQ(decoded->watermarks, snap.watermarks);
  EXPECT_TRUE(decoded->checkpoint == snap.checkpoint);
  ASSERT_EQ(decoded->live.size(), snap.live.size());
  for (usize i = 0; i < snap.live.size(); ++i) {
    EXPECT_TRUE(decoded->live[i] == snap.live[i]);
    EXPECT_TRUE(decoded->live[i].sig == snap.live[i].sig);
  }
  EXPECT_TRUE(decoded->sig == snap.sig);
  EXPECT_EQ(decoded->digest(), snap.digest());
}

TEST(LogFormat, SnapshotEveryTruncationExtensionAndFlipRejected) {
  const std::vector<u8> image = encode_snapshot(make_snapshot(7, 3));
  for (usize len = 0; len < image.size(); ++len) {
    EXPECT_FALSE(decode_snapshot(std::span(image.data(), len)).has_value()) << "prefix " << len;
  }
  std::vector<u8> extended = image;
  extended.push_back(0x5A);
  EXPECT_FALSE(decode_snapshot(extended).has_value()) << "trailing garbage accepted";
  for (usize off = 0; off < image.size(); ++off) {
    std::vector<u8> mutated = image;
    mutated[off] ^= 0xFF;
    EXPECT_FALSE(decode_snapshot(mutated).has_value()) << "flip at " << off;
  }
}

// ---- FileLog lifecycle ----

TEST(FileLog, AppendsSurviveReopenAndReplayFromAnyPosition) {
  TempDir tmp;
  const auto recs = records(100);
  {
    FileLog store({.dir = tmp.path, .fsync = mp::FsyncPolicy::kNever});
    ASSERT_TRUE(store.ok()) << store.error();
    for (const auto& rec : recs) ASSERT_TRUE(store.append(rec));
    EXPECT_EQ(store.log_seq(), recs.size());
    EXPECT_EQ(store.stats().log_records, recs.size());
    EXPECT_EQ(store.stats().log_bytes, recs.size() * kLogRecordFrameBytes);
  }
  FileLog store({.dir = tmp.path, .fsync = mp::FsyncPolicy::kNever});
  ASSERT_TRUE(store.ok()) << store.error();
  EXPECT_EQ(store.log_seq(), recs.size());
  EXPECT_FALSE(store.load_snapshot().has_value());

  std::vector<mp::SignedAppend> replayed;
  EXPECT_EQ(store.replay(0, [&](const mp::SignedAppend& r) { replayed.push_back(r); }),
            recs.size());
  expect_prefix(replayed, recs, recs.size());

  replayed.clear();
  EXPECT_EQ(store.replay(40, [&](const mp::SignedAppend& r) { replayed.push_back(r); }), 60u);
  for (usize i = 0; i < replayed.size(); ++i) EXPECT_TRUE(replayed[i] == recs[40 + i]);
}

TEST(FileLog, TornTailIsTruncatedOnReopen) {
  TempDir tmp;
  const auto recs = records(10);
  std::string segment_path;
  {
    FileLog store({.dir = tmp.path, .fsync = mp::FsyncPolicy::kAlways});
    ASSERT_TRUE(store.ok()) << store.error();
    for (const auto& rec : recs) ASSERT_TRUE(store.append(rec));
    segment_path = tmp.path + "/" + segment_file_name(0);
  }
  append_bytes(segment_path, std::vector<u8>(13, 0xAB));  // the crash artifact

  FileLog store({.dir = tmp.path, .fsync = mp::FsyncPolicy::kAlways});
  ASSERT_TRUE(store.ok()) << store.error();
  EXPECT_EQ(store.stats().torn_tail_bytes, 13u);
  EXPECT_EQ(store.log_seq(), recs.size());
  const auto image = read_file(segment_path);
  ASSERT_TRUE(image.has_value());
  EXPECT_EQ(image->size(), recs.size() * kLogRecordFrameBytes);  // tail gone on disk

  // The store stays appendable after the repair.
  ASSERT_TRUE(store.append(make_record(1, 77, -5)));
  std::vector<mp::SignedAppend> replayed;
  EXPECT_EQ(store.replay(0, [&](const mp::SignedAppend& r) { replayed.push_back(r); }), 11u);
  EXPECT_TRUE(replayed.back() == make_record(1, 77, -5));
}

TEST(FileLog, EveryCrashOffsetRecoversExactRecordPrefix) {
  TempDir tmp;
  const auto recs = records(8);
  const std::vector<u8> image = frame_all(recs);
  const std::string segment_path = tmp.path + "/" + segment_file_name(0);
  for (usize cut = 0; cut <= image.size(); ++cut) {
    write_bytes(segment_path, std::span(image.data(), cut));
    FileLog store({.dir = tmp.path, .fsync = mp::FsyncPolicy::kNever});
    ASSERT_TRUE(store.ok()) << "cut=" << cut << ": " << store.error();
    const usize whole = cut / kLogRecordFrameBytes;
    EXPECT_EQ(store.log_seq(), whole) << "cut=" << cut;
    EXPECT_EQ(store.stats().torn_tail_bytes, cut % kLogRecordFrameBytes) << "cut=" << cut;
    std::vector<mp::SignedAppend> replayed;
    store.replay(0, [&](const mp::SignedAppend& r) { replayed.push_back(r); });
    ASSERT_NO_FATAL_FAILURE(expect_prefix(replayed, recs, whole)) << "cut=" << cut;
  }
}

TEST(FileLog, SegmentsRollAndPruneUnderSnapshot) {
  TempDir tmp;
  FileLogConfig config{.dir = tmp.path, .fsync = mp::FsyncPolicy::kNever};
  config.segment_bytes = 4 * kLogRecordFrameBytes;  // roll every 4 records
  const auto recs = records(10);
  FileLog store(config);
  ASSERT_TRUE(store.ok()) << store.error();
  for (const auto& rec : recs) ASSERT_TRUE(store.append(rec));
  EXPECT_EQ(store.stats().segments, 3u);  // 4 + 4 + 2

  mp::Snapshot snap = make_snapshot(store.log_seq(), 4);
  ASSERT_TRUE(store.write_snapshot(snap));
  // Both closed segments sit entirely below log_seq 10 and must be gone;
  // the active segment (records 8..9) stays.
  EXPECT_EQ(store.stats().segments, 1u);
  EXPECT_EQ(list_store_files(tmp.path, "seg-", ".log").size(), 1u);
  EXPECT_EQ(store.stats().log_records, 2u);

  std::vector<mp::SignedAppend> replayed;
  EXPECT_EQ(store.replay(0, [&](const mp::SignedAppend& r) { replayed.push_back(r); }), 2u);
  EXPECT_TRUE(replayed[0] == recs[8]);
  EXPECT_TRUE(replayed[1] == recs[9]);

  // Reopen: snapshot comes back, the log picks up where it left off.
  FileLog reopened(config);
  ASSERT_TRUE(reopened.ok()) << reopened.error();
  const auto loaded = reopened.load_snapshot();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->log_seq, 10u);
  EXPECT_EQ(loaded->digest(), snap.digest());
  EXPECT_EQ(reopened.log_seq(), 10u);
}

TEST(FileLog, NewerSnapshotReplacesOlder) {
  TempDir tmp;
  FileLog store({.dir = tmp.path, .fsync = mp::FsyncPolicy::kNever});
  ASSERT_TRUE(store.ok()) << store.error();
  for (const auto& rec : records(6)) ASSERT_TRUE(store.append(rec));
  ASSERT_TRUE(store.write_snapshot(make_snapshot(3, 1)));
  ASSERT_TRUE(store.write_snapshot(make_snapshot(6, 2)));
  EXPECT_EQ(list_store_files(tmp.path, "snap-", ".snap").size(), 1u);
  const auto loaded = store.load_snapshot();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->log_seq, 6u);
  EXPECT_EQ(store.stats().snapshot_count, 2u);
}

TEST(FileLog, CorruptSnapshotIgnoredLogStillReplays) {
  TempDir tmp;
  const auto recs = records(5);
  {
    FileLog store({.dir = tmp.path, .fsync = mp::FsyncPolicy::kNever});
    ASSERT_TRUE(store.ok()) << store.error();
    for (const auto& rec : recs) ASSERT_TRUE(store.append(rec));
    ASSERT_TRUE(store.write_snapshot(make_snapshot(5, 2)));
  }
  const std::string snap_path = tmp.path + "/" + list_store_files(tmp.path, "snap-", ".snap")[0];
  auto image = read_file(snap_path);
  ASSERT_TRUE(image.has_value());
  (*image)[image->size() / 2] ^= 0xFF;
  write_bytes(snap_path, *image);

  FileLog store({.dir = tmp.path, .fsync = mp::FsyncPolicy::kNever});
  ASSERT_TRUE(store.ok()) << store.error();
  EXPECT_FALSE(store.load_snapshot().has_value());
  // The snapshot pruned the log at write time, so only records above its
  // log_seq remain — here none. What matters: open survives, store works.
  ASSERT_TRUE(store.append(make_record(0, 50, 1)));
}

TEST(FileLog, MidLogCorruptionFailsOpen) {
  TempDir tmp;
  FileLogConfig config{.dir = tmp.path, .fsync = mp::FsyncPolicy::kNever};
  config.segment_bytes = 3 * kLogRecordFrameBytes;
  {
    FileLog store(config);
    ASSERT_TRUE(store.ok()) << store.error();
    for (const auto& rec : records(7)) ASSERT_TRUE(store.append(rec));  // 3 segments
  }
  // Garbage behind a *closed* segment is not a crash artifact — refuse.
  append_bytes(tmp.path + "/" + segment_file_name(0), std::vector<u8>(5, 0xEE));
  FileLog store(config);
  EXPECT_FALSE(store.ok());
  EXPECT_FALSE(store.append(make_record(0, 99, 1)));  // failed store refuses writes
}

TEST(FileLog, SegmentGapFailsOpen) {
  TempDir tmp;
  FileLogConfig config{.dir = tmp.path, .fsync = mp::FsyncPolicy::kNever};
  config.segment_bytes = 2 * kLogRecordFrameBytes;
  {
    FileLog store(config);
    ASSERT_TRUE(store.ok()) << store.error();
    for (const auto& rec : records(6)) ASSERT_TRUE(store.append(rec));  // seg 0, 2, 4
  }
  ASSERT_EQ(::unlink((tmp.path + "/" + segment_file_name(2)).c_str()), 0);
  FileLog store(config);
  EXPECT_FALSE(store.ok());
}

TEST(FileLog, FuzzRandomCrashPointsAlwaysYieldAPrefix) {
  Rng rng(20200715);
  for (u32 round = 0; round < 30; ++round) {
    TempDir tmp;
    FileLogConfig config{.dir = tmp.path, .fsync = mp::FsyncPolicy::kNever};
    config.segment_bytes = (3 + rng.uniform_below(4)) * kLogRecordFrameBytes;
    const auto recs = records(1 + rng.uniform_below(24));
    {
      FileLog store(config);
      ASSERT_TRUE(store.ok()) << store.error();
      for (const auto& rec : recs) ASSERT_TRUE(store.append(rec));
    }
    // Crash: chop the tail of the last segment at a random byte offset,
    // sometimes smearing random garbage over the cut instead of a clean
    // truncation.
    const auto names = list_store_files(tmp.path, "seg-", ".log");
    ASSERT_FALSE(names.empty());
    const std::string last = tmp.path + "/" + names.back();
    auto image = read_file(last);
    ASSERT_TRUE(image.has_value());
    const usize cut = rng.uniform_below(static_cast<u32>(image->size() + 1));
    image->resize(cut);
    if (rng.uniform_below(2) == 0) {
      const u64 garbage = 1 + rng.uniform_below(8);
      for (u64 i = 0; i < garbage; ++i) {
        image->push_back(static_cast<u8>(rng.uniform_below(256)));
      }
    }
    write_bytes(last, *image);

    FileLog store(config);
    ASSERT_TRUE(store.ok()) << "round=" << round << ": " << store.error();
    std::vector<mp::SignedAppend> replayed;
    store.replay(0, [&](const mp::SignedAppend& r) { replayed.push_back(r); });
    ASSERT_LE(replayed.size(), recs.size()) << "round=" << round;
    for (usize i = 0; i < replayed.size(); ++i) {
      ASSERT_TRUE(replayed[i] == recs[i]) << "round=" << round << " record " << i;
    }
    // And the store must keep working from the recovered position.
    const auto next = make_record(2, 1000 + round, 7);
    ASSERT_TRUE(store.append(next));
    std::vector<mp::SignedAppend> again;
    store.replay(0, [&](const mp::SignedAppend& r) { again.push_back(r); });
    ASSERT_EQ(again.size(), replayed.size() + 1);
    EXPECT_TRUE(again.back() == next);
  }
}

// ---- the preallocated layout ----

usize file_size(const std::string& path) {
  struct stat st {};
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  return static_cast<usize>(st.st_size);
}

/// Whether `dir`'s filesystem reserves space with fallocate; where it does
/// not, FileLog grows its segments by writing, and no file is larger than
/// its frames.
bool fallocate_supported(const std::string& dir) {
  const std::string probe = dir + "/probe";
  const int fd = ::open(probe.c_str(), O_WRONLY | O_CREAT, 0644);
  if (fd < 0) return false;
  const bool ok = ::fallocate(fd, 0, 0, 4096) == 0;
  ::close(fd);
  ::unlink(probe.c_str());
  return ok;
}

std::vector<mp::SignedAppend> prefix(const std::vector<mp::SignedAppend>& recs, usize count) {
  return {recs.begin(), recs.begin() + static_cast<std::ptrdiff_t>(count)};
}

/// A crash image of a preallocated segment: `whole` frames, the first
/// `partial` bytes of the next one, then zeros up to `reserved` bytes.
std::vector<u8> crash_image(const std::vector<mp::SignedAppend>& recs, usize whole, usize partial,
                            usize reserved) {
  std::vector<u8> image = frame_all(prefix(recs, whole));
  const std::vector<u8> next = frame_all({recs[whole]});
  image.insert(image.end(), next.begin(), next.begin() + static_cast<std::ptrdiff_t>(partial));
  image.resize(reserved, 0);
  return image;
}

std::vector<mp::SignedAppend> replay_all(FileLog& store) {
  std::vector<mp::SignedAppend> out;
  store.replay(0, [&](const mp::SignedAppend& r) { out.push_back(r); });
  return out;
}

TEST(FileLog, SegmentBytesZeroOrOneKeepsOneRecordPerSegment) {
  for (const usize segment_bytes : {usize{0}, usize{1}}) {
    TempDir tmp;
    FileLogConfig config{.dir = tmp.path, .fsync = mp::FsyncPolicy::kNever};
    config.segment_bytes = segment_bytes;
    const auto recs = records(5);
    {
      FileLog store(config);
      ASSERT_TRUE(store.ok()) << store.error();
      for (const auto& rec : recs) ASSERT_TRUE(store.append(rec));
      // No empty segment is ever rolled, so no file is named twice.
      EXPECT_EQ(store.stats().segments, recs.size()) << "segment_bytes=" << segment_bytes;
      EXPECT_EQ(list_store_files(tmp.path, "seg-", ".log").size(), recs.size());
    }
    const auto names = list_store_files(tmp.path, "seg-", ".log");
    ASSERT_EQ(names.size(), recs.size());
    for (usize i = 0; i < names.size(); ++i) {
      EXPECT_EQ(names[i], segment_file_name(i));
      EXPECT_EQ(file_size(tmp.path + "/" + names[i]), kLogRecordFrameBytes);
    }
    FileLog reopened(config);
    ASSERT_TRUE(reopened.ok()) << reopened.error();
    EXPECT_EQ(reopened.stats().segments, recs.size());
    EXPECT_EQ(reopened.log_seq(), recs.size());
    expect_prefix(replay_all(reopened), recs, recs.size());
  }
}

TEST(FileLog, PreallocatedCrashImageRecoversExactPrefixAndAppendsInPlace) {
  const auto recs = records(8);
  FileLogConfig config{.dir = {}, .fsync = mp::FsyncPolicy::kAlways};
  config.segment_bytes = 16 * kLogRecordFrameBytes;
  const usize reserved = config.segment_bytes + kLogRecordFrameBytes;
  for (const usize whole : {usize{0}, usize{1}, usize{5}}) {
    // A partial frame ends before the signature tag's low bytes, so the
    // zeros after it can never complete it into a valid frame.
    for (const usize partial : {usize{0}, usize{1}, usize{8}, usize{28}}) {
      TempDir tmp;
      config.dir = tmp.path;
      const std::string segment_path = tmp.path + "/" + segment_file_name(0);
      write_bytes(segment_path, crash_image(recs, whole, partial, reserved));
      const std::string where =
          "whole=" + std::to_string(whole) + " partial=" + std::to_string(partial);
      const mp::SignedAppend next = make_record(2, 500, -9);
      {
        FileLog store(config);
        ASSERT_TRUE(store.ok()) << where << ": " << store.error();
        EXPECT_EQ(store.log_seq(), whole) << where;
        // Zeros after the last whole frame are unused space; a partial
        // frame before them makes everything past the last frame torn.
        EXPECT_EQ(store.stats().torn_tail_bytes,
                  partial == 0 ? 0 : reserved - whole * kLogRecordFrameBytes)
            << where;
        ASSERT_NO_FATAL_FAILURE(expect_prefix(replay_all(store), recs, whole)) << where;

        // The next record lands at the valid offset, over the zeros or the
        // cut-off partial frame.
        ASSERT_TRUE(store.append(next)) << where;
        const auto image = read_file(segment_path);
        ASSERT_TRUE(image.has_value());
        std::vector<mp::SignedAppend> expected = prefix(recs, whole);
        expected.push_back(next);
        const std::vector<u8> frames = frame_all(expected);
        ASSERT_GE(image->size(), frames.size()) << where;
        EXPECT_TRUE(std::equal(frames.begin(), frames.end(), image->begin())) << where;
      }
      // A second reopen sees the appended record right after the prefix.
      FileLog again(config);
      ASSERT_TRUE(again.ok()) << where << ": " << again.error();
      EXPECT_EQ(again.stats().torn_tail_bytes, 0u) << where;
      const auto replayed = replay_all(again);
      ASSERT_EQ(replayed.size(), whole + 1) << where;
      ASSERT_NO_FATAL_FAILURE(expect_prefix(prefix(replayed, whole), recs, whole)) << where;
      EXPECT_TRUE(replayed.back() == next) << where;
    }
  }
}

TEST(FileLog, GarbageAfterTheZeroTailIsATornTail) {
  TempDir tmp;
  const auto recs = records(6);
  FileLogConfig config{.dir = tmp.path, .fsync = mp::FsyncPolicy::kNever};
  config.segment_bytes = 16 * kLogRecordFrameBytes;
  const usize reserved = config.segment_bytes + kLogRecordFrameBytes;
  std::vector<u8> image = crash_image(recs, 4, 0, reserved);
  image.push_back(0x5A);  // one stray byte past the zeros
  const std::string segment_path = tmp.path + "/" + segment_file_name(0);
  write_bytes(segment_path, image);

  FileLog store(config);
  ASSERT_TRUE(store.ok()) << store.error();
  EXPECT_EQ(store.log_seq(), 4u);
  EXPECT_EQ(store.stats().torn_tail_bytes, image.size() - 4 * kLogRecordFrameBytes);
  EXPECT_EQ(file_size(segment_path), 4 * kLogRecordFrameBytes);  // cut on open
  expect_prefix(replay_all(store), recs, 4);
}

TEST(FileLog, ClosedSegmentsHoldExactlyTheirFrames) {
  TempDir tmp;
  FileLogConfig config{.dir = tmp.path, .fsync = mp::FsyncPolicy::kAlways};
  config.segment_bytes = 4 * kLogRecordFrameBytes;  // roll every 4 records
  const auto recs = records(10);
  const std::string active = tmp.path + "/" + segment_file_name(8);
  {
    FileLog store(config);
    ASSERT_TRUE(store.ok()) << store.error();
    for (const auto& rec : recs) ASSERT_TRUE(store.append(rec));
    EXPECT_EQ(file_size(tmp.path + "/" + segment_file_name(0)), 4 * kLogRecordFrameBytes);
    EXPECT_EQ(file_size(tmp.path + "/" + segment_file_name(4)), 4 * kLogRecordFrameBytes);
    // The active segment holds its reservation while the store is open.
    EXPECT_EQ(file_size(active), fallocate_supported(tmp.path)
                                     ? config.segment_bytes + kLogRecordFrameBytes
                                     : 2 * kLogRecordFrameBytes);
  }
  // A clean close gives the reservation back: every file is its frames.
  EXPECT_EQ(file_size(active), 2 * kLogRecordFrameBytes);
  FileLog reopened(config);
  ASSERT_TRUE(reopened.ok()) << reopened.error();
  EXPECT_EQ(reopened.stats().torn_tail_bytes, 0u);
  expect_prefix(replay_all(reopened), recs, recs.size());
}

TEST(FileLog, WriterThatExitsWithoutClosingLeavesAZeroTailThatReopensClean) {
  TempDir tmp;
  FileLogConfig config{.dir = tmp.path, .fsync = mp::FsyncPolicy::kAlways};
  config.segment_bytes = 64u << 10;
  const auto recs = records(50);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // _exit skips the destructor, like a SIGKILL: no trim, no close.
    auto* store = new FileLog(config);
    bool ok = store->ok();
    for (const auto& rec : recs) ok = ok && store->append(rec);
    ::_exit(ok ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

  const std::string segment_path = tmp.path + "/" + segment_file_name(0);
  EXPECT_EQ(file_size(segment_path), fallocate_supported(tmp.path)
                                         ? config.segment_bytes + kLogRecordFrameBytes
                                         : recs.size() * kLogRecordFrameBytes);
  const mp::SignedAppend next = make_record(1, 900, 3);
  {
    FileLog store(config);
    ASSERT_TRUE(store.ok()) << store.error();
    EXPECT_EQ(store.stats().torn_tail_bytes, 0u);
    EXPECT_EQ(store.log_seq(), recs.size());
    expect_prefix(replay_all(store), recs, recs.size());
    ASSERT_TRUE(store.append(next));
  }
  EXPECT_EQ(file_size(segment_path), (recs.size() + 1) * kLogRecordFrameBytes);
  FileLog again(config);
  ASSERT_TRUE(again.ok()) << again.error();
  const auto replayed = replay_all(again);
  ASSERT_EQ(replayed.size(), recs.size() + 1);
  EXPECT_TRUE(replayed.back() == next);
}

}  // namespace
}  // namespace amm::storage
