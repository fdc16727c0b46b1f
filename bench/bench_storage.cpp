// Micro-benchmark for the log-write + fsync stage of a durable append:
// one storage::FileLog::append per iteration, with an fdatasync after
// every record (`always`) and with none (`never`). perfbench's
// append_durable times the same stage inside a live cluster; this one
// isolates it (DESIGN.md §10 has the cost per fdatasync).
//
// Times are wall-clock (UseRealTime): an fdatasync waits for the disk, it
// does not burn CPU. The store is a fresh directory under the build tree
// (AMM_BENCH_STORE_ROOT), removed after each run. On tmpfs or ramfs, where
// fdatasync costs nothing, the benchmark skips itself with a message
// instead of reporting a number that means nothing.
#include <benchmark/benchmark.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include "storage/file_log.hpp"

namespace {

using namespace amm;

bool disk_backed(const std::string& dir) {
  struct statfs st {};
  if (::statfs(dir.c_str(), &st) != 0) return false;
  constexpr long kTmpfsMagic = 0x01021994;
  constexpr long kRamfsMagic = 0x858458f6;
  return st.f_type != kTmpfsMagic && st.f_type != kRamfsMagic;
}

void BM_FileLogAppend(benchmark::State& state, mp::FsyncPolicy policy) {
  const std::string root = AMM_BENCH_STORE_ROOT;
  std::error_code ec;
  std::filesystem::create_directories(root, ec);
  if (!disk_backed(root)) {
    state.SkipWithError("store root is on tmpfs/ramfs, where fdatasync is free");
    return;
  }
  const std::string dir = root + "/filelog-" + std::to_string(::getpid());
  std::filesystem::remove_all(dir, ec);
  u64 fsyncs = 0;
  {
    storage::FileLog log({.dir = dir, .fsync = policy});
    if (!log.ok()) {
      state.SkipWithError(log.error().c_str());
      return;
    }
    mp::SignedAppend rec;
    rec.author = NodeId{1};
    rec.sig.signer = NodeId{1};
    for (auto _ : state) {
      ++rec.seq;
      rec.value = static_cast<i64>(rec.seq) * 7;
      rec.sig.tag = u64{rec.seq} * 0x9e3779b97f4a7c15u;
      if (!log.append(rec)) {
        state.SkipWithError("FileLog::append failed");
        break;
      }
    }
    fsyncs = log.stats().fsyncs;
  }
  std::filesystem::remove_all(dir, ec);
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
  state.counters["fsyncs_per_append"] = benchmark::Counter(
      static_cast<double>(fsyncs), benchmark::Counter::kAvgIterations);
}
BENCHMARK_CAPTURE(BM_FileLogAppend, always, mp::FsyncPolicy::kAlways)->UseRealTime();
BENCHMARK_CAPTURE(BM_FileLogAppend, never, mp::FsyncPolicy::kNever)->UseRealTime();

}  // namespace
