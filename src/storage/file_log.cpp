#include "storage/file_log.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "storage/log_format.hpp"

namespace amm::storage {
namespace {

bool write_all(int fd, std::span<const u8> bytes) {
  usize off = 0;
  while (off < bytes.size()) {
    // analyze:allow(loop-blocking): regular-file write — always makes progress
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<usize>(n);
  }
  return true;
}

bool sync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

/// Scans one segment image, invoking `on_record(rec)` per valid frame.
/// Returns the byte offset where the valid prefix ends (== image size when
/// the whole segment is clean).
template <typename Fn>
usize scan_segment_image(std::span<const u8> image, Fn&& on_record) {
  usize off = 0;
  mp::SignedAppend rec;
  usize consumed = 0;
  while (off < image.size() &&
         extract_record_frame(image.subspan(off), &rec, &consumed) == ScanStatus::kRecord) {
    on_record(rec);
    off += consumed;
  }
  return off;
}

}  // namespace

std::optional<std::vector<u8>> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return std::nullopt;
  std::vector<u8> out;
  u8 buf[1 << 16];
  for (;;) {
    // analyze:allow(loop-blocking): regular-file read — always makes progress
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return std::nullopt;
    }
    if (n == 0) break;
    out.insert(out.end(), buf, buf + n);
  }
  ::close(fd);
  return out;
}

bool make_dirs(const std::string& dir) {
  std::string path;
  path.reserve(dir.size());
  for (usize i = 0; i <= dir.size(); ++i) {
    if (i < dir.size() && dir[i] != '/') {
      path.push_back(dir[i]);
      continue;
    }
    if (!path.empty() && ::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) return false;
    if (i < dir.size()) path.push_back('/');
  }
  struct stat st {};
  return ::stat(dir.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

std::optional<u64> parse_store_seq(const std::string& name, const std::string& prefix,
                                   const std::string& suffix) {
  if (name.size() != prefix.size() + 16 + suffix.size()) return std::nullopt;
  if (name.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) return std::nullopt;
  u64 seq = 0;
  for (usize i = prefix.size(); i < prefix.size() + 16; ++i) {
    const char c = name[i];
    u64 digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<u64>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<u64>(c - 'a') + 10;
    } else {
      return std::nullopt;
    }
    seq = (seq << 4) | digit;
  }
  return seq;
}

std::vector<std::string> list_store_files(const std::string& dir, const std::string& prefix,
                                          const std::string& suffix) {
  std::vector<std::pair<u64, std::string>> found;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return {};
  while (const dirent* ent = ::readdir(d)) {
    const std::string name = ent->d_name;
    if (const auto seq = parse_store_seq(name, prefix, suffix)) found.emplace_back(*seq, name);
  }
  ::closedir(d);
  std::sort(found.begin(), found.end());
  std::vector<std::string> names;
  names.reserve(found.size());
  for (auto& [seq, name] : found) names.push_back(std::move(name));
  return names;
}

std::string segment_file_name(u64 first_seq) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "seg-%016llx.log", static_cast<unsigned long long>(first_seq));
  return buf;
}

std::string snapshot_file_name(u64 log_seq) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "snap-%016llx.snap", static_cast<unsigned long long>(log_seq));
  return buf;
}

FileLog::FileLog(FileLogConfig config) : config_(std::move(config)) {
  if (!open_store()) ok_ = false;
}

FileLog::~FileLog() {
  if (fd_ >= 0) {
    ::fdatasync(fd_);
    ::close(fd_);
  }
}

bool FileLog::fail(const std::string& what) {
  ok_ = false;
  if (error_.empty()) error_ = what + ": " + std::strerror(errno);
  return false;
}

bool FileLog::open_store() {
  if (config_.dir.empty()) {
    error_ = "empty store dir";
    return false;
  }
  if (!make_dirs(config_.dir)) return fail("mkdir " + config_.dir);

  // Newest CRC-valid snapshot wins; stale and leftover-tmp files go away.
  // A newer-but-invalid snapshot file is kept on disk for amm_logtool to
  // diagnose — load just skips it.
  const auto snaps = list_store_files(config_.dir, "snap-", ".snap");
  for (auto it = snaps.rbegin(); it != snaps.rend(); ++it) {
    const std::string path = config_.dir + "/" + *it;
    if (!snapshot_) {
      if (const auto image = read_file(path)) {
        if (auto snap = decode_snapshot(*image)) {
          snapshot_ = std::move(*snap);
          snapshot_file_ = path;
          stats_.snapshot_count = 1;
          continue;
        }
      }
    } else {
      ::unlink(path.c_str());
    }
  }
  const auto tmps = list_store_files(config_.dir, "snap-", ".snap.tmp");
  for (const auto& name : tmps) ::unlink((config_.dir + "/" + name).c_str());

  const auto seg_names = list_store_files(config_.dir, "seg-", ".log");
  next_log_seq_ = snapshot_ ? snapshot_->log_seq : 0;
  for (usize i = 0; i < seg_names.size(); ++i) {
    Segment seg;
    seg.first_seq = *parse_store_seq(seg_names[i], "seg-", ".log");
    seg.path = config_.dir + "/" + seg_names[i];
    if (!segments_.empty()) {
      const Segment& prev = segments_.back();
      if (seg.first_seq != prev.first_seq + prev.records) {
        error_ = "segment gap before " + seg.path;
        ok_ = false;
        return false;
      }
    }
    const auto image = read_file(seg.path);
    if (!image) return fail("read " + seg.path);
    const usize valid = scan_segment_image(*image, [&](const mp::SignedAppend&) { ++seg.records; });
    seg.bytes = valid;
    if (valid != image->size()) {
      if (i + 1 != seg_names.size()) {
        // A torn frame with a written successor segment is not a crash
        // tail — refuse the store rather than silently drop records.
        error_ = "corrupt frame mid-log in " + seg.path;
        ok_ = false;
        return false;
      }
      stats_.torn_tail_bytes += image->size() - valid;
      if (::truncate(seg.path.c_str(), static_cast<off_t>(valid)) != 0) {
        return fail("truncate " + seg.path);
      }
    }
    stats_.log_bytes += seg.bytes;
    stats_.log_records += seg.records;
    segments_.push_back(std::move(seg));
  }
  if (!segments_.empty()) {
    const Segment& last = segments_.back();
    next_log_seq_ = last.first_seq + last.records;
  }
  stats_.segments = segments_.size();
  return open_active(segments_.empty());
}

bool FileLog::open_active(bool create) {
  if (create) {
    Segment seg;
    seg.first_seq = next_log_seq_;
    seg.path = config_.dir + "/" + segment_file_name(next_log_seq_);
    fd_ = ::open(seg.path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd_ < 0) return fail("create " + seg.path);
    segments_.push_back(std::move(seg));
    stats_.segments = segments_.size();
    return true;
  }
  const Segment& last = segments_.back();
  fd_ = ::open(last.path.c_str(), O_WRONLY | O_APPEND);
  if (fd_ < 0) return fail("open " + last.path);
  return true;
}

bool FileLog::roll_segment() {
  // Closed segments must be durable before the log grows past them:
  // replay order would otherwise depend on which file the OS flushed.
  if (::fdatasync(fd_) != 0) return fail("fdatasync " + segments_.back().path);
  ++stats_.fsyncs;
  ::close(fd_);
  fd_ = -1;
  appends_since_sync_ = 0;
  return open_active(true);
}

bool FileLog::maybe_fsync() {
  switch (config_.fsync) {
    case mp::FsyncPolicy::kNever:
      return true;
    case mp::FsyncPolicy::kInterval:
      if (config_.fsync_interval != 0 && ++appends_since_sync_ < config_.fsync_interval) {
        return true;
      }
      appends_since_sync_ = 0;
      break;
    case mp::FsyncPolicy::kAlways:
      break;
  }
  if (::fdatasync(fd_) != 0) return fail("fdatasync " + segments_.back().path);
  ++stats_.fsyncs;
  return true;
}

bool FileLog::append(const mp::SignedAppend& rec) {
  if (!ok_) return false;
  if (segments_.back().bytes >= config_.segment_bytes && !roll_segment()) return false;
  std::vector<u8> frame;
  frame.reserve(kLogRecordFrameBytes);
  append_record_frame(frame, rec);
  if (!write_all(fd_, frame)) return fail("write " + segments_.back().path);
  Segment& seg = segments_.back();
  seg.bytes += frame.size();
  ++seg.records;
  ++next_log_seq_;
  stats_.log_bytes += frame.size();
  ++stats_.log_records;
  return maybe_fsync();
}

bool FileLog::write_snapshot(const mp::Snapshot& snap) {
  if (!ok_) return false;
  const std::vector<u8> image = encode_snapshot(snap);
  const std::string final_path = config_.dir + "/" + snapshot_file_name(snap.log_seq);
  const std::string tmp_path = final_path + ".tmp";
  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return fail("create " + tmp_path);
  const bool wrote = write_all(fd, image) && ::fsync(fd) == 0;
  ::close(fd);
  if (!wrote) {
    ::unlink(tmp_path.c_str());
    return fail("write " + tmp_path);
  }
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    ::unlink(tmp_path.c_str());
    return fail("rename " + final_path);
  }
  if (!sync_dir(config_.dir)) return fail("fsync " + config_.dir);
  ++stats_.fsyncs;
  if (!snapshot_file_.empty() && snapshot_file_ != final_path) {
    ::unlink(snapshot_file_.c_str());
  }
  snapshot_ = snap;
  snapshot_file_ = final_path;
  ++stats_.snapshot_count;

  // Closed segments entirely below the snapshot are dead weight: replay
  // starts at snap.log_seq.
  while (segments_.size() > 1 &&
         segments_.front().first_seq + segments_.front().records <= snap.log_seq) {
    Segment& seg = segments_.front();
    ::unlink(seg.path.c_str());
    stats_.log_bytes -= seg.bytes;
    stats_.log_records -= seg.records;
    segments_.erase(segments_.begin());
  }
  stats_.segments = segments_.size();
  return true;
}

u64 FileLog::replay(u64 from_seq, const std::function<void(const mp::SignedAppend&)>& cb) {
  if (!ok_) return 0;
  u64 delivered = 0;
  for (const Segment& seg : segments_) {
    if (seg.first_seq + seg.records <= from_seq) continue;
    const auto image = read_file(seg.path);
    if (!image) {
      fail("read " + seg.path);
      return delivered;
    }
    u64 pos = seg.first_seq;
    scan_segment_image(*image, [&](const mp::SignedAppend& rec) {
      // Frames past seg.records (appended after the scan copy was taken)
      // cannot occur here: replay runs before wire activity. Positions
      // below from_seq are already covered by the caller's snapshot.
      if (pos >= from_seq && pos < seg.first_seq + seg.records) {
        cb(rec);
        ++delivered;
      }
      ++pos;
    });
  }
  return delivered;
}

}  // namespace amm::storage
