// The sim_chain_vs_dag workload: the §5 protocol engine on one thread
// (exp::estimate_rate over a one-worker ThreadPool). Trials rotate over
// three kinds at n = 64, t = 16, k = 201, λ = 1 — chain_ba slotted against
// rush-extend, dag_ba against rate-and-withhold, and dag_ba deciding through
// the exact Algorithm 6 linearization (full_ordering). It is the workload
// that runs protocols/, chain/, am/ and sched/ and none of net/mp/storage.
#include <array>
#include <cmath>

#include "exp/montecarlo.hpp"
#include "protocols/chain_ba.hpp"
#include "protocols/dag_ba.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

constexpr amm::u32 kTrialKinds = 3;
constexpr usize kBatch = 24;        // trials per estimate_rate call
constexpr usize kWarmupTrials = 1500;
constexpr amm::u32 kSetups = 5;  // setup_s is the median of this many set-ups
constexpr u64 kWindowNs = 100'000'000;
constexpr double kMaxTrialsPerSecond = 100'000.0;
constexpr usize kSpanCapacity = 200'000;

struct Tally {
  u64 trials = 0;
  u64 terminated = 0;
  u64 valid = 0;
};

/// Runs trials and keeps the tallies; the trial function runs on the pool's
/// single worker while the caller waits, so the state needs no lock.
class Engine {
 public:
  Engine(u64 seed, double seconds, Tracer* tracer)
      : latencies(capacity(seconds)), seed_(seed), tracer_(tracer) {
    amm::proto::Scenario scenario;
    scenario.n = 64;
    scenario.t = 16;
    chain_.scenario = scenario;
    chain_.k = 201;
    chain_.lambda = 1.0;
    chain_.adversary = amm::proto::ChainAdversary::kRushExtend;
    dag_.scenario = scenario;
    dag_.k = 201;
    dag_.lambda = 1.0;
    dag_.adversary = amm::proto::DagAdversary::kRateAndWithhold;
    dag_full_ = dag_;
    dag_full_.full_ordering = true;
  }

  /// Runs `count` trials; trial j of the run is kind j mod 3 and draws its
  /// randomness from (seed, batch) alone.
  void run_batch(amm::ThreadPool& pool, usize count) {
    const u64 first = next_trial_;
    const u64 master = amm::SplitMix64(seed_ ^ (first * 0x9e3779b97f4a7c15ULL)).next();
    const auto trial = [this, first](usize i, amm::Rng& rng) {
      const auto kind = static_cast<amm::u32>((first + i) % kTrialKinds);
      const u64 t0 = now_ns();
      amm::proto::Outcome out;
      bool valid = false;
      if (kind == 0) {
        const Scope scope(tracer_, Layer::kChainTrial);
        out = amm::proto::run_chain_slotted(chain_, rng);
        valid = out.validity(chain_.scenario);
      } else {
        const Scope scope(tracer_, kind == 1 ? Layer::kDagTrial : Layer::kDagFullTrial);
        out = amm::proto::run_dag_continuous(kind == 1 ? dag_ : dag_full_, rng).outcome;
        valid = out.validity(dag_.scenario);
      }
      if (recording) latencies.add(now_ns() - t0);
      Tally& tally = tallies[kind];
      ++tally.trials;
      tally.terminated += out.terminated ? 1 : 0;
      tally.valid += out.terminated && valid ? 1 : 0;
      appends += out.total_appends;
      return out.terminated;
    };
    (void)amm::exp::estimate_rate(pool, master, count, trial);
    next_trial_ += count;
    completed += count;
  }

  bool recording = false;
  u64 completed = 0;
  u64 appends = 0;
  std::array<Tally, kTrialKinds> tallies{};
  LatencyLog latencies;

 private:
  static usize capacity(double seconds) {
    return static_cast<usize>(kMaxTrialsPerSecond * seconds) + 10'000;
  }

  u64 seed_;
  Tracer* tracer_;
  u64 next_trial_ = 0;
  amm::proto::ChainParams chain_;
  amm::proto::DagParams dag_;
  amm::proto::DagParams dag_full_;
};

double share(u64 part, u64 whole) {
  return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
}

}  // namespace

Result run_sim(const Options& opt) {
  Result result;
  std::unique_ptr<Tracer> tracer;
  if (opt.trace) tracer = std::make_unique<Tracer>(kSpanCapacity);

  // Setup: the worker pool plus warm-up trials, kSetups times; the last
  // pool and engine carry on into the timed phase.
  std::vector<double> setup_times;
  std::unique_ptr<amm::ThreadPool> pool;
  std::unique_ptr<Engine> engine;
  for (amm::u32 round = 0; round < kSetups; ++round) {
    engine.reset();
    pool.reset();
    const u64 t0 = now_ns();
    pool = std::make_unique<amm::ThreadPool>(1);
    engine = std::make_unique<Engine>(opt.seed, opt.seconds, tracer.get());
    engine->run_batch(*pool, kWarmupTrials);
    setup_times.push_back(seconds_between(t0, now_ns()));
  }
  engine->tallies = {};
  engine->appends = 0;

  const u64 completed_before = engine->completed;
  const usize window_count =
      std::max<usize>(2, static_cast<usize>(std::llround(opt.seconds * 1e9 / kWindowNs)));
  Windows windows(now_ns(), kWindowNs, window_count, 1);
  const std::vector<const LatencyLog*> logs = {&engine->latencies};
  engine->recording = true;
  while (true) {
    engine->run_batch(*pool, kBatch);
    const u64 now = now_ns();
    if (now < windows.next_boundary()) continue;
    windows.close(now, engine->completed, logs);
    if (windows.done()) break;
    if (tracer) tracer->on = windows.closed() % 2 == 1;
  }
  if (tracer) tracer->on = false;
  engine->recording = false;
  const double rss_mb = peak_rss_mb(engine->latencies.touched_bytes());

  // Checks: every trial terminates; the DAG keeps validity where the chain
  // loses it (λ·t >= 1 puts t/n = 1/4 far above 1/(1 + λ(n - t))).
  u64 trials = 0;
  u64 unterminated = 0;
  for (const Tally& t : engine->tallies) {
    trials += t.trials;
    unterminated += t.trials - t.terminated;
  }
  result.attempted = trials;
  result.fail(unterminated, "trials that did not terminate");
  result.fail(engine->latencies.dropped(), "samples beyond the preallocated buffer");
  const double chain_validity = share(engine->tallies[0].valid, engine->tallies[0].trials);
  const double dag_validity = share(engine->tallies[1].valid, engine->tallies[1].trials);
  const double dag_full_validity = share(engine->tallies[2].valid, engine->tallies[2].trials);
  std::printf("sim_chain_vs_dag: validity chain %.3f, dag %.3f, dag_full %.3f over %llu trials\n",
              chain_validity, dag_validity, dag_full_validity,
              static_cast<unsigned long long>(trials));
  result.fail(chain_validity <= 0.1 ? 0 : 1, "chain rush-extend validity above 0.1");
  result.fail(dag_validity >= 0.9 ? 0 : 1, "dag_ba validity below 0.9");
  result.fail(dag_full_validity >= 0.9 ? 0 : 1, "dag_ba full_ordering validity below 0.9");

  const auto untraced = [&](usize w) { return !opt.trace || w % 2 == 0; };
  const auto traced = [](usize w) { return w % 2 == 1; };
  const Summary summary = summarize(windows, engine->latencies, 0, completed_before, untraced);
  print_summary("sim_chain_vs_dag (trials)", summary);

  if (!opt.trace) {
    result.add("ops_per_s", summary.rate, "1/s");
    result.add("op_p50_ms", summary.p50_ms, "ms");
    result.add("op_p90_ms", summary.p90_ms, "ms");
    result.add("setup_s", median(setup_times), "s");
    result.add("rss_mb", rss_mb, "MB");
    return result;
  }
  const Summary in_traced = summarize(windows, engine->latencies, 0, completed_before, traced);
  u64 wall_t = 0;
  for (usize w = 0; w < windows.closed(); ++w) {
    if (traced(w)) wall_t += windows.length_ns(w);
  }
  const Tracer& t = *tracer;
  const auto mean_us = [&](Layer l) {
    return share(t.totals(l).total_ns, t.totals(l).count) * 1e-3;
  };
  const u64 spanned = t.self_ns_all();
  result.add("protocols.chain_trial_us", mean_us(Layer::kChainTrial), "us");
  result.add("protocols.dag_trial_us", mean_us(Layer::kDagTrial), "us");
  result.add("protocols.dag_full_trial_us", mean_us(Layer::kDagFullTrial), "us");
  result.add("protocols.appends_per_trial", share(engine->appends, trials), "count");
  result.add("bench.client_share", share(wall_t - spanned, wall_t), "ratio");
  result.add("bench.span_coverage", share(spanned, wall_t), "ratio");
  result.add("bench.trace_overhead", 1.0 - in_traced.rate / summary.rate, "ratio");
  const std::string spans = opt.work_dir + "/spans-sim_chain_vs_dag.tsv";
  if (!t.write(spans)) std::fprintf(stderr, "perfbench: could not write %s\n", spans.c_str());
  return result;
}

}  // namespace perfbench
