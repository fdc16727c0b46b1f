// Shared pieces of the append-memory benchmark: options, the result record
// printed as the final JSON line, and the latency recorder.
//
// The recorder never allocates in the timed phase: its sample buffer is
// reserved (not touched) during setup and filled in completion order, so a
// window of the timed phase is a contiguous slice of it.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "support/types.hpp"

namespace perfbench {

using amm::i64;
using amm::u32;
using amm::u64;
using amm::u8;
using amm::usize;

inline u64 now_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

inline double seconds_between(u64 start_ns, u64 end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< working space inside the checkout: stores, span dumps
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints: the correctness verdict, op accounting and metrics.
struct Result {
  bool correct = true;
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }

  /// Records `count` failed checks of one kind; any failure makes the run
  /// incorrect (nonzero exit).
  void fail(u64 count, const std::string& what) {
    if (count == 0) return;
    failed += count;
    correct = false;
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s (%llu)\n", what.c_str(),
                 static_cast<unsigned long long>(count));
  }
};

/// Nearest-rank percentile of `v` (reordered in place); 0 for an empty slice.
template <typename T>
double percentile(std::vector<T>& v, double q) {
  if (v.empty()) return 0.0;
  const usize rank = std::min(v.size() - 1, static_cast<usize>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank), v.end());
  return static_cast<double>(v[rank]);
}

inline double median(std::vector<double> v) { return percentile(v, 0.5); }

/// Latency samples in nanoseconds, in completion order. The buffer is
/// allocated once (uninitialised, so untouched pages stay out of RSS) and
/// never grows; samples beyond capacity are counted as dropped and fail the
/// run rather than being silently lost.
class LatencyLog {
 public:
  explicit LatencyLog(usize capacity) : samples_(new u32[capacity]), capacity_(capacity) {}

  void add(u64 ns) {
    if (size_ == capacity_) {
      ++dropped_;
      return;
    }
    samples_[size_++] = static_cast<u32>(std::min<u64>(ns, 0xffffffffULL));
  }

  usize size() const { return size_; }
  u64 dropped() const { return dropped_; }
  /// Bytes of the buffer touched so far (they count in the process RSS).
  u64 touched_bytes() const { return (size_ * sizeof(u32) + 4095) / 4096 * 4096; }

  /// Copy of samples [from, to) for order statistics.
  std::vector<u32> slice(usize from, usize to) const {
    return std::vector<u32>(samples_.get() + from, samples_.get() + to);
  }

 private:
  std::unique_ptr<u32[]> samples_;
  usize capacity_;
  usize size_ = 0;
  u64 dropped_ = 0;
};

/// Splits the timed phase into fixed windows and remembers, per window, how
/// many ops completed and where each latency log stood at its end. A traced
/// run alternates untraced and traced windows.
class Windows {
 public:
  Windows(u64 start_ns, u64 window_ns, usize count, usize logs)
      : start_ns_(start_ns), window_ns_(window_ns), count_(count), logs_(logs) {
    ends_.reserve(count);
    completed_.reserve(count);
    marks_.reserve(count * logs);
  }

  u64 next_boundary() const { return start_ns_ + window_ns_ * (ends_.size() + 1); }
  bool done() const { return ends_.size() == count_; }
  usize closed() const { return ends_.size(); }

  /// Closes the current window at `now`.
  void close(u64 now, u64 completed, const std::vector<const LatencyLog*>& logs) {
    ends_.push_back(now);
    completed_.push_back(completed);
    for (const LatencyLog* log : logs) marks_.push_back(log->size());
  }

  /// Ops completed in window `w`, given the count when the phase began.
  u64 ops(usize w, u64 completed_at_start) const {
    return completed_[w] - (w == 0 ? completed_at_start : completed_[w - 1]);
  }

  /// Length of window `w` as measured (boundaries are checked between
  /// reactor rounds or trial batches, so they overrun slightly).
  u64 length_ns(usize w) const { return ends_[w] - (w == 0 ? start_ns_ : ends_[w - 1]); }

  /// Sample index range of log `log` for window `w` (logs start empty).
  std::pair<usize, usize> range(usize w, usize log) const {
    const usize from = w == 0 ? 0 : marks_[(w - 1) * logs_ + log];
    return {from, marks_[w * logs_ + log]};
  }

 private:
  u64 start_ns_;
  u64 window_ns_;
  usize count_;
  usize logs_;
  std::vector<u64> ends_;
  std::vector<u64> completed_;
  std::vector<usize> marks_;
};

/// End-to-end figures of one latency log over the windows `which` selects.
struct Summary {
  double rate = 0.0;    ///< ops completed in those windows per second of them
  double p50_ms = 0.0;  ///< median over every sample in those windows
  double p90_ms = 0.0;  ///< median over those windows of each window's p90
  double p99_ms = 0.0;  ///< p99 over every sample (printed, not bounded)
  usize samples = 0;
  usize windows = 0;
};

/// The bounded tail is a per-window p90, then the median over windows. A
/// whole-run p99 is set by the few windows in which the host stalled the
/// process or the disk; on a shared 4-vCPU host it moved by a third between
/// runs of identical code, where the typical window's p90 moved far less.
template <typename Pred>
Summary summarize(const Windows& windows, const LatencyLog& log, usize log_index,
                  u64 completed_before, Pred which) {
  Summary s;
  std::vector<u32> all;
  std::vector<double> window_p90;
  u64 ops = 0;
  u64 ns = 0;
  for (usize w = 0; w < windows.closed(); ++w) {
    if (!which(w)) continue;
    ++s.windows;
    ops += windows.ops(w, completed_before);
    ns += windows.length_ns(w);
    const auto [from, to] = windows.range(w, log_index);
    if (to == from) continue;
    std::vector<u32> v = log.slice(from, to);
    all.insert(all.end(), v.begin(), v.end());
    window_p90.push_back(percentile(v, 0.90) * 1e-6);
  }
  s.rate = ns == 0 ? 0.0 : static_cast<double>(ops) / (static_cast<double>(ns) * 1e-9);
  s.samples = all.size();
  s.p50_ms = percentile(all, 0.5) * 1e-6;
  s.p99_ms = percentile(all, 0.99) * 1e-6;
  s.p90_ms = median(window_p90);
  return s;
}

inline void print_summary(const std::string& what, const Summary& s) {
  std::printf("%s: %.1f ops/s; latency over %zu samples: p50 %.4f ms, p99 %.4f ms; p90 %.4f ms "
              "(median over %zu windows)\n",
              what.c_str(), s.rate, s.samples, s.p50_ms, s.p99_ms, s.p90_ms, s.windows);
}

/// Peak resident set of this process in MB (VmHWM), less `harness_bytes`
/// the benchmark's own sample buffers hold.
double peak_rss_mb(u64 harness_bytes);

/// Benchmark entry points; each fills the metrics its mode reports.
Result run_cluster(const Options& opt);

/// A cluster workload run for a fixed number of ops (the self-test's
/// traced-vs-untraced comparison): cluster-wide counters after the drain and,
/// when traced, the share of wall time the spans cover.
struct FixedRun {
  bool ok = false;
  u64 ops = 0;
  u64 messages = 0;
  u64 bytes = 0;
  u64 fsyncs = 0;
  double span_coverage = 0.0;
};
FixedRun run_cluster_fixed(const Options& opt, u64 ops);

Result run_sim(const Options& opt);
void add_micros(Result& result, u64 seed);
int run_self_test(const Options& opt);

}  // namespace perfbench
