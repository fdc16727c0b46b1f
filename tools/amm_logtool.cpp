// amm_logtool — offline inspection and repair of a node's durable store
// (storage::FileLog layout, DESIGN.md §10).
//
//   amm_logtool dump --dir D                 print snapshot + every record
//   amm_logtool verify --dir D [--n N --seed S]
//                                            check CRCs, framing, segment
//                                            continuity, record and snapshot
//                                            signatures; exit 1 on any fault
//   amm_logtool truncate --dir D             cut the torn tail off the last
//                                            segment (the repair `verify`
//                                            recommends after a crash)
//
// Unlike opening the store through FileLog, `dump` and `verify` never
// mutate it — a torn tail is reported, not repaired, so an operator can
// look before the node (or `truncate`) rewrites history. With --n/--seed
// the cluster's KeyRegistry is rederived and every record signature plus
// the snapshot's self-signature is checked; without them signature checks
// are skipped (the CRCs still catch corruption, just not forgery).
//
// Output is line-oriented key=value, exit status 0 = clean store; scripts
// (tools/cluster_test.py --durable, CI) branch on both.
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "storage/file_log.hpp"
#include "storage/log_format.hpp"
#include "support/options.hpp"

namespace {

using namespace amm;

struct SegmentScan {
  std::string path;
  u64 first_seq = 0;
  u64 records = 0;
  usize valid_bytes = 0;
  usize torn_bytes = 0;
  std::vector<mp::SignedAppend> recs;
};

/// Reads and frame-scans every segment, in log order. IO failure prints
/// and returns false; torn tails are recorded, not fatal.
bool scan_segments(const std::string& dir, std::vector<SegmentScan>* out) {
  for (const std::string& name : storage::list_store_files(dir, "seg-", ".log")) {
    SegmentScan seg;
    seg.path = dir + "/" + name;
    seg.first_seq = *storage::parse_store_seq(name, "seg-", ".log");
    const auto image = storage::read_file(seg.path);
    if (!image) {
      std::fprintf(stderr, "amm_logtool: cannot read %s\n", seg.path.c_str());
      return false;
    }
    usize off = 0;
    mp::SignedAppend rec;
    usize consumed = 0;
    while (off < image->size() &&
           storage::extract_record_frame({image->data() + off, image->size() - off}, &rec,
                                         &consumed) == storage::ScanStatus::kRecord) {
      seg.recs.push_back(rec);
      ++seg.records;
      off += consumed;
    }
    seg.valid_bytes = off;
    seg.torn_bytes = image->size() - off;
    out->push_back(std::move(seg));
  }
  return true;
}

/// The newest snapshot file, decoded; `decode_ok=false` flags a file that
/// exists but fails framing/CRC.
struct SnapshotScan {
  std::string path;
  bool present = false;
  bool decode_ok = false;
  mp::Snapshot snap;
};

SnapshotScan scan_snapshot(const std::string& dir) {
  SnapshotScan result;
  const auto names = storage::list_store_files(dir, "snap-", ".snap");
  if (names.empty()) return result;
  result.path = dir + "/" + names.back();
  result.present = true;
  if (const auto image = storage::read_file(result.path)) {
    if (auto snap = storage::decode_snapshot(*image)) {
      result.decode_ok = true;
      result.snap = std::move(*snap);
    }
  }
  return result;
}

int run_dump(const std::string& dir) {
  const SnapshotScan snap = scan_snapshot(dir);
  if (snap.present && snap.decode_ok) {
    std::printf("snapshot file=%s log_seq=%llu next_seq=%u live=%zu folded=%llu signer=%u\n",
                snap.path.c_str(), static_cast<unsigned long long>(snap.snap.log_seq),
                snap.snap.next_seq, snap.snap.live.size(),
                static_cast<unsigned long long>(snap.snap.checkpoint.folded_records),
                snap.snap.sig.signer.index);
  } else if (snap.present) {
    std::printf("snapshot file=%s decode=failed\n", snap.path.c_str());
  }
  std::vector<SegmentScan> segments;
  if (!scan_segments(dir, &segments)) return 2;
  u64 pos = 0;
  for (const SegmentScan& seg : segments) {
    std::printf("segment file=%s first_seq=%llu records=%llu bytes=%zu torn_bytes=%zu\n",
                seg.path.c_str(), static_cast<unsigned long long>(seg.first_seq),
                static_cast<unsigned long long>(seg.records), seg.valid_bytes, seg.torn_bytes);
    pos = seg.first_seq;
    for (const mp::SignedAppend& rec : seg.recs) {
      std::printf("record log_seq=%llu author=%u seq=%u value=%lld\n",
                  static_cast<unsigned long long>(pos), rec.author.index, rec.seq,
                  static_cast<long long>(rec.value));
      ++pos;
    }
  }
  return 0;
}

int run_verify(const std::string& dir, u32 n, u64 seed) {
  u64 faults = 0;
  const auto complain = [&faults](const char* what, const std::string& detail) {
    ++faults;
    std::printf("fault kind=%s %s\n", what, detail.c_str());
  };

  std::vector<SegmentScan> segments;
  if (!scan_segments(dir, &segments)) return 2;

  std::optional<crypto::KeyRegistry> keys;
  if (n > 0) keys.emplace(n, seed);

  const SnapshotScan snap = scan_snapshot(dir);
  if (snap.present && !snap.decode_ok) {
    complain("snapshot_corrupt", "file=" + snap.path);
  }
  if (snap.present && snap.decode_ok && keys) {
    if (snap.snap.sig.signer.index >= n ||
        !keys->verify(snap.snap.digest(), snap.snap.sig)) {
      complain("snapshot_bad_signature", "file=" + snap.path);
    }
    for (const mp::SignedAppend& rec : snap.snap.live) {
      if (rec.sig.signer != rec.author || !keys->verify(rec.digest(), rec.sig)) {
        complain("snapshot_record_bad_signature",
                 "file=" + snap.path + " author=" + std::to_string(rec.author.index) +
                     " seq=" + std::to_string(rec.seq));
      }
    }
  }

  u64 expected_first = segments.empty() ? 0 : segments.front().first_seq;
  for (usize i = 0; i < segments.size(); ++i) {
    const SegmentScan& seg = segments[i];
    if (seg.first_seq != expected_first) {
      complain("segment_gap", "file=" + seg.path + " expected_first_seq=" +
                                  std::to_string(expected_first));
    }
    if (seg.torn_bytes != 0) {
      const bool last = i + 1 == segments.size();
      complain(last ? "torn_tail" : "mid_log_corruption",
               "file=" + seg.path + " valid_bytes=" + std::to_string(seg.valid_bytes) +
                   " torn_bytes=" + std::to_string(seg.torn_bytes));
    }
    if (keys) {
      for (const mp::SignedAppend& rec : seg.recs) {
        if (rec.author.index >= n || rec.sig.signer != rec.author ||
            !keys->verify(rec.digest(), rec.sig)) {
          complain("record_bad_signature",
                   "file=" + seg.path + " author=" + std::to_string(rec.author.index) +
                       " seq=" + std::to_string(rec.seq));
        }
      }
    }
    expected_first = seg.first_seq + seg.records;
  }

  u64 records = 0;
  for (const SegmentScan& seg : segments) records += seg.records;
  std::printf("verify dir=%s segments=%zu records=%llu snapshot=%s signatures=%s faults=%llu\n",
              dir.c_str(), segments.size(), static_cast<unsigned long long>(records),
              snap.present ? (snap.decode_ok ? "ok" : "corrupt") : "none",
              keys ? "checked" : "skipped", static_cast<unsigned long long>(faults));
  return faults == 0 ? 0 : 1;
}

int run_truncate(const std::string& dir) {
  std::vector<SegmentScan> segments;
  if (!scan_segments(dir, &segments)) return 2;
  if (segments.empty()) {
    std::printf("truncate dir=%s segments=0 nothing to do\n", dir.c_str());
    return 0;
  }
  const SegmentScan& last = segments.back();
  if (last.torn_bytes == 0) {
    std::printf("truncate file=%s clean tail, nothing to do\n", last.path.c_str());
    return 0;
  }
  if (::truncate(last.path.c_str(), static_cast<off_t>(last.valid_bytes)) != 0) {
    std::fprintf(stderr, "amm_logtool: cannot truncate %s\n", last.path.c_str());
    return 2;
  }
  std::printf("truncate file=%s cut_bytes=%zu kept_bytes=%zu kept_records=%llu\n",
              last.path.c_str(), last.torn_bytes, last.valid_bytes,
              static_cast<unsigned long long>(last.records));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string command;
  std::string dir;
  u32 n = 0;
  u64 seed = 20200715;
  OptionSet opts("amm_logtool", "inspect and repair a node's durable store");
  opts.add_positional("command", &command, {"dump", "verify", "truncate"}, "what to do");
  opts.add_string("dir", &dir, "the store directory (amm_node --store-dir)");
  opts.add_u32("n", &n, "cluster size, for signature checks (0 = skip signatures)");
  opts.add_u64("seed", &seed, "cluster KeyRegistry seed, with --n");
  opts.parse_or_exit(argc, argv);
  if (dir.empty()) {
    std::fprintf(stderr, "amm_logtool: --dir is required\n");
    return 2;
  }
  struct stat st {};
  if (::stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    std::fprintf(stderr, "amm_logtool: --dir %s is not a directory\n", dir.c_str());
    return 2;
  }

  if (command == "dump") return run_dump(dir);
  if (command == "verify") return run_verify(dir, n, seed);
  return run_truncate(dir);
}
