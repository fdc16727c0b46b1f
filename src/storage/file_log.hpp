// storage::FileLog — the durable mp::Storage backend (DESIGN.md §10).
//
// Layout of a store directory:
//
//   seg-<%016x first_log_seq>.log   append-only record segments (CRC-framed,
//                                   log_format.hpp), rolled at segment_bytes
//   snap-<%016x log_seq>.snap       the newest signed snapshot (written
//                                   tmp + fsync + rename, so a crash leaves
//                                   either the old or the new one, never a
//                                   partial)
//
// Open scans every segment front to back: a torn frame in the *last*
// segment is the expected crash artifact and is truncated away (counted in
// StorageStats::torn_tail_bytes); a torn frame anywhere else, or a gap in
// the segment sequence, is real corruption and fails the open (ok() ==
// false — amm_logtool is the offline repair path). After a successful
// snapshot write, closed segments entirely below the snapshot's log_seq
// are deleted: steady-state disk usage is one snapshot plus the live tail
// of the log, mirroring what compaction does to resident memory.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "mp/storage.hpp"

namespace amm::storage {

struct FileLogConfig {
  std::string dir;  ///< store directory; created (with parents) if missing
  mp::FsyncPolicy fsync = mp::FsyncPolicy::kInterval;
  u32 fsync_interval = 64;         ///< appends between fdatasyncs (kInterval)
  usize segment_bytes = 4u << 20;  ///< roll the active segment beyond this
};

class FileLog final : public mp::Storage {
 public:
  explicit FileLog(FileLogConfig config);
  ~FileLog() override;
  FileLog(const FileLog&) = delete;
  FileLog& operator=(const FileLog&) = delete;

  /// False when the open scan found unrecoverable corruption or a later
  /// write failed; error() says why. A failed backend refuses appends —
  /// the node keeps serving from memory.
  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  bool append(const mp::SignedAppend& rec) override;
  std::optional<mp::Snapshot> load_snapshot() override { return snapshot_; }
  bool write_snapshot(const mp::Snapshot& snap) override;
  u64 replay(u64 from_seq, const std::function<void(const mp::SignedAppend&)>& cb) override;
  u64 log_seq() const override { return next_log_seq_; }
  mp::FsyncPolicy fsync_policy() const override { return config_.fsync; }
  const mp::StorageStats& stats() const override { return stats_; }

 private:
  struct Segment {
    u64 first_seq = 0;  ///< log position of the segment's first record
    u64 records = 0;
    u64 bytes = 0;  ///< valid frame bytes (tail truncation already applied)
    std::string path;
  };

  bool fail(const std::string& what);
  bool open_store();
  bool open_active(bool create);
  bool roll_segment();
  bool maybe_fsync();

  FileLogConfig config_;
  int fd_ = -1;  ///< active segment, O_APPEND
  std::vector<Segment> segments_;
  u64 next_log_seq_ = 0;
  u32 appends_since_sync_ = 0;
  std::optional<mp::Snapshot> snapshot_;
  std::string snapshot_file_;
  mp::StorageStats stats_;
  bool ok_ = true;
  std::string error_;
};

// ---- store-walking helpers, shared with tools/amm_logtool ----

/// Reads a whole file into memory; nullopt on any IO error.
std::optional<std::vector<u8>> read_file(const std::string& path);

/// Creates `dir` and its parents (mkdir -p); true if it exists afterwards.
bool make_dirs(const std::string& dir);

/// Names in `dir` matching `prefix`*`suffix`, sorted ascending by the
/// hex sequence number between them (non-parsing names are skipped).
std::vector<std::string> list_store_files(const std::string& dir, const std::string& prefix,
                                          const std::string& suffix);

/// The hex sequence number embedded in a store file name, if `name` is
/// `prefix` + 16 hex digits + `suffix`.
std::optional<u64> parse_store_seq(const std::string& name, const std::string& prefix,
                                   const std::string& suffix);

/// `seg-%016llx.log` / `snap-%016llx.snap` under `dir`.
std::string segment_file_name(u64 first_seq);
std::string snapshot_file_name(u64 log_seq);

}  // namespace amm::storage
