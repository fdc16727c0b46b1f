// amm_perfbench: the repository's end-to-end and per-layer benchmark.
//
//   amm_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//   amm_perfbench --self-test --work-dir <dir>
//
// Workloads: append_mem, append_durable, read_decide (an in-process 3-node
// TCP cluster, cluster.cpp) and sim_chain_vs_dag (the §5 protocol engine,
// sim.cpp). Untraced runs (--trace 0) report the end-to-end metrics; traced
// runs (--trace 1) report the per-layer table. Every run checks the
// program's outputs; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}, and the exit code is
// nonzero when a check failed.
#include <array>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "trace.hpp"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every untraced run.
constexpr std::array<MetricSpec, 5> kEndToEnd = {{
    {"ops_per_s", "1/s"},
    {"op_p50_ms", "ms"},
    {"op_p90_ms", "ms"},
    {"setup_s", "s"},
    {"rss_mb", "MB"},
}};

/// Per-layer metrics, reported by every traced run. A layer the workload
/// never enters reports 0.
constexpr std::array<MetricSpec, 35> kPerLayer = {{
    {"net.reactor_us_per_op", "us"},
    {"net.send_us_per_op", "us"},
    {"net.msgs_per_op", "count"},
    {"net.bytes_per_op", "B"},
    {"net.writev_per_op", "count"},
    {"net.useful_poll_share", "ratio"},
    {"net.decide_us", "us"},
    {"net.decide_p50_ms", "ms"},
    {"net.codec_encode_append_ns", "ns"},
    {"net.codec_decode_reply1k_us", "us"},
    {"mp.handle_us_per_op", "us"},
    {"mp.issue_us_per_op", "us"},
    {"mp.handled_msgs_per_op", "count"},
    {"mp.read_records_per_read", "count"},
    {"mp.read_fallbacks", "count"},
    {"mp.read_p50_ms", "ms"},
    {"mp.live_records", "count"},
    {"mp.records_folded", "count"},
    {"crypto.registry_verifies_per_op", "count"},
    {"crypto.verify_cache_hit_share", "ratio"},
    {"crypto.verify_ns", "ns"},
    {"crypto.sign_ns", "ns"},
    {"storage.append_us_per_op", "us"},
    {"storage.fsyncs_per_op", "count"},
    {"storage.snapshot_us_per_op", "us"},
    {"storage.log_bytes_per_op", "B"},
    {"protocols.chain_trial_us", "us"},
    {"protocols.dag_trial_us", "us"},
    {"protocols.dag_full_trial_us", "us"},
    {"protocols.appends_per_trial", "count"},
    {"chain.extend_us", "us"},
    {"chain.linearize_us", "us"},
    {"bench.client_share", "ratio"},
    {"bench.trace_overhead", "ratio"},
    {"bench.span_coverage", "ratio"},
}};

constexpr std::array<const char*, 4> kWorkloads = {"append_mem", "append_durable", "read_decide",
                                                   "sim_chain_vs_dag"};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: amm_perfbench --workload <%s|%s|%s|%s> --seed <n> --seconds <s> "
               "--trace <0|1> --work-dir <dir>\n"
               "       amm_perfbench --self-test --work-dir <dir>\n",
               why, kWorkloads[0], kWorkloads[1], kWorkloads[2], kWorkloads[3]);
  std::exit(2);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Orders the runner's metrics by the declared list; a metric the runner
/// did not produce is 0 (its layer is bypassed), an undeclared one aborts.
template <usize N>
std::vector<Metric> declared(const std::vector<Metric>& produced,
                             const std::array<MetricSpec, N>& specs) {
  std::map<std::string, double> values;
  for (const Metric& m : produced) {
    bool known = false;
    for (const MetricSpec& s : specs) known = known || (m.name == s.name && m.unit == s.unit);
    if (!known) {
      std::fprintf(stderr, "perfbench: undeclared metric %s [%s]\n", m.name.c_str(),
                   m.unit.c_str());
      std::abort();
    }
    values[m.name] = m.value;
  }
  std::vector<Metric> out;
  for (const MetricSpec& s : specs) out.push_back(Metric{s.name, values[s.name], s.unit});
  return out;
}

}  // namespace

double peak_rss_mb(u64 harness_bytes) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      const double peak = std::strtod(line.c_str() + 6, nullptr) * 1024.0;
      return (peak - static_cast<double>(harness_bytes)) / 1e6;
    }
  }
  return 0.0;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  out << "layer\tparent\trequest\tstart_ns\tend_ns\n";
  for (usize i = 0; i < stored_; ++i) {
    const Span& s = spans_[i];
    out << kLayerNames[static_cast<usize>(s.layer)] << '\t'
        << (s.parent == kNoSpan ? -1 : static_cast<long long>(s.parent)) << '\t' << s.request
        << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool self_test = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && opt.seconds > 0 && opt.seconds <= 600;
    } else if (arg == "--trace") {
      have_trace = value == "0" || value == "1";
      opt.trace = value == "1";
    } else if (arg == "--work-dir") {
      opt.work_dir = value;
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  if (opt.work_dir.empty()) usage("--work-dir is required");
  if (self_test) return run_self_test(opt);
  if (!have_seed || !have_seconds || !have_trace) usage("--seed, --seconds and --trace are required");

  Result result;
  if (opt.workload == "sim_chain_vs_dag") {
    result = run_sim(opt);
  } else if (opt.workload == "append_mem" || opt.workload == "append_durable" ||
             opt.workload == "read_decide") {
    result = run_cluster(opt);
  } else {
    usage(("unknown workload '" + opt.workload + "'").c_str());
  }
  if (opt.trace) add_micros(result, opt.seed);
  if (result.attempted == 0) {
    result.fail(1, "no ops attempted");
    result.attempted = 1;
  }

  const std::vector<Metric> metrics =
      opt.trace ? declared(result.metrics, kPerLayer) : declared(result.metrics, kEndToEnd);
  std::ostringstream json;
  json << "{\"correct\": " << (result.correct ? "true" : "false")
       << ", \"attempted\": " << result.attempted
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (usize i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    json << (i == 0 ? "" : ", ") << '"' << m.name << "\": {\"value\": " << json_number(m.value)
         << ", \"unit\": \"" << m.unit << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
