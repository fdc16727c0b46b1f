// Hot-path benchmark for the incremental append-memory machinery: graph
// growth (extend vs from-scratch rebuild), append-time ordering (the log
// scan vs full sort) and the decision rules on the final graph. Emits harness tables; `--json` output is aggregated into the
// pinned BENCH_sim.json baseline by tools/collect_bench.py and compared by
// tools/bench_diff.py.
//
// Extra knobs (all optional):
//   --max-history N   cap per-config history length   (default 100000)
//   --rounds R        observation rounds per trial    (default 64)
#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "am/memory.hpp"
#include "chain/rules.hpp"
#include "exp/harness.hpp"
#include "mp/abd.hpp"
#include "mp/network.hpp"
#include "support/rng.hpp"

namespace {

using namespace amm;

/// Defeats dead-code elimination without google-benchmark.
volatile u64 g_sink = 0;  // NOLINT(cppcoreguidelines-avoid-non-const-global-variables)

double now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-`reps` wall time of `fn`, in milliseconds.
template <typename Fn>
double time_ms(int reps, Fn&& fn) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_seconds();
    fn();
    best = std::min(best, now_seconds() - t0);
  }
  return best * 1e3;
}

/// Random DAG history: each append references up to 3 recent blocks (the
/// shape the dag_ba protocol produces), timestamps strictly increasing.
am::AppendMemory build_history(u32 n, u32 history, u64 seed) {
  am::AppendMemory memory(n);
  Rng rng(seed);
  std::vector<am::MsgId> all;
  all.reserve(history);
  for (u32 i = 0; i < history; ++i) {
    std::vector<am::MsgId> refs;
    if (!all.empty()) {
      const u32 want = 1 + static_cast<u32>(rng.uniform_below(3));
      for (u32 r = 0; r < want; ++r) {
        const am::MsgId pick =
            all[all.size() - 1 - rng.uniform_below(std::min<usize>(all.size(), 8))];
        if (std::find(refs.begin(), refs.end(), pick) == refs.end()) refs.push_back(pick);
      }
    }
    all.push_back(memory.append(NodeId{static_cast<u32>(rng.uniform_below(n))}, Vote::kPlus,
                                /*payload=*/0, std::move(refs), static_cast<SimTime>(i + 1)));
  }
  return memory;
}

/// The growing views a protocol observes: `rounds` evenly spaced prefixes
/// of the history, ending at the full view.
std::vector<am::MemoryView> observation_views(const am::AppendMemory& memory, u32 history,
                                              u32 rounds) {
  std::vector<am::MemoryView> views;
  views.reserve(rounds);
  for (u32 r = 1; r <= rounds; ++r) {
    const SimTime horizon =
        static_cast<SimTime>(history) * static_cast<double>(r) / static_cast<double>(rounds) +
        0.5;
    views.push_back(memory.read_at(horizon));
  }
  views.back() = memory.read();
  return views;
}

int reps_for(u32 history) { return history <= 2000 ? 5 : history <= 20000 ? 3 : 1; }

}  // namespace

int main(int argc, char** argv) {
  u32 max_history = 100000;
  u32 rounds = 64;
  exp::Harness h(argc, argv, "Hot paths — incremental graph, ordering, decision rules", 1,
                 [&](OptionSet& opts) {
                   opts.add_u32("max-history", &max_history, "largest history measured");
                   opts.add_u32("rounds", &rounds, "observation rounds per history", {1});
                 });

  const std::vector<u32> ns = {8, 32, 128};
  std::vector<u32> histories;
  for (const u32 cand : {1000u, 10000u, 100000u}) {
    if (cand <= max_history) histories.push_back(cand);
  }
  if (histories.empty()) histories.push_back(max_history);

  // --- Graph growth: carry-and-extend vs rebuild-per-round -------------
  Table growth({"n", "history", "rounds", "extend [ms]", "rebuild [ms]", "speedup"});
  for (const u32 n : ns) {
    for (const u32 history : histories) {
      const am::AppendMemory memory = build_history(n, history, h.seed);
      const std::vector<am::MemoryView> views = observation_views(memory, history, rounds);
      const int reps = reps_for(history);

      const double extend_ms = time_ms(reps, [&] {
        chain::BlockGraph graph;
        for (const am::MemoryView& v : views) {
          graph.extend(v);
          g_sink = g_sink + graph.max_depth();
        }
      });
      const double rebuild_ms = time_ms(reps, [&] {
        for (const am::MemoryView& v : views) {
          const chain::BlockGraph graph(v);
          g_sink = g_sink + graph.max_depth();
        }
      });
      growth.add_row({std::to_string(n), std::to_string(history), std::to_string(rounds),
                      fmt(extend_ms, 3), fmt(rebuild_ms, 3), fmt(rebuild_ms / extend_ms, 2)});
    }
  }
  h.emit(growth, "Graph growth over " + std::to_string(rounds) +
                     " observation rounds: incremental extend vs from-scratch rebuild:");

  // --- Append-time ordering: log scan vs sort --------------------------
  Table ordering({"n", "history", "merge [ms]", "sort [ms]"});
  for (const u32 n : ns) {
    for (const u32 history : histories) {
      const am::AppendMemory memory = build_history(n, history, h.seed + 1);
      const am::MemoryView view = memory.read();
      const int reps = reps_for(history);

      const auto merge = [&] { g_sink = g_sink + view.by_append_time().size(); };
      // The pre-merge implementation, timed as the baseline it replaced.
      const auto sort = [&] {
        std::vector<am::MsgId> ids;
        ids.reserve(view.size());
        for (u32 r = 0; r < view.register_count(); ++r) {
          for (u32 s = 0; s < view.register_len(r); ++s) ids.push_back(am::MsgId{r, s});
        }
        std::stable_sort(ids.begin(), ids.end(), [&](am::MsgId a, am::MsgId b) {
          const SimTime ta = view.msg(a).appended_at;
          const SimTime tb = view.msg(b).appended_at;
          if (ta != tb) return ta < tb;
          return a < b;
        });
        g_sink = g_sink + ids.size();
      };
      // One untimed call of each first. A long history is timed once, and
      // without it that one call would also pay first-touch page faults on
      // output buffers the allocator has just mapped, an amount that
      // depends on what the harness allocated before.
      merge();
      sort();
      const double merge_ms = time_ms(reps, merge);
      const double sort_ms = time_ms(reps, sort);
      ordering.add_row({std::to_string(n), std::to_string(history), fmt(merge_ms, 3),
                        fmt(sort_ms, 3)});
    }
  }
  h.emit(ordering,
         "Append-time ordering of the full history: log scan vs the old full sort:");

  // --- Decision rules on the final graph -------------------------------
  Table rules({"n", "history", "ghost pivot [ms]", "longest pivot [ms]", "linearize [ms]"});
  for (const u32 n : ns) {
    for (const u32 history : histories) {
      const am::AppendMemory memory = build_history(n, history, h.seed + 2);
      const chain::BlockGraph graph(memory.read());
      const int reps = reps_for(history);
      // The graph builds its topo order and GHOST weights lazily and caches
      // them. Fill both untimed, so no column pays for what an earlier
      // column left uncached — at reps == 1 there is no best-of to hide it.
      g_sink = g_sink + chain::linearize_dag(graph, chain::PivotRule::kGhost).size();

      const double ghost_ms = time_ms(
          reps, [&] { g_sink = g_sink + chain::select_pivot(graph, chain::PivotRule::kGhost).size(); });
      const double longest_ms = time_ms(reps, [&] {
        g_sink = g_sink + chain::select_pivot(graph, chain::PivotRule::kLongestChain).size();
      });
      const double lin_ms = time_ms(reps, [&] {
        g_sink = g_sink + chain::linearize_dag(graph, chain::PivotRule::kGhost).size();
      });
      rules.add_row({std::to_string(n), std::to_string(history), fmt(ghost_ms, 3),
                     fmt(longest_ms, 3), fmt(lin_ms, 3)});
    }
  }
  h.emit(rules, "Decision rules on the final graph (dense per-author indexing):");

  // --- Decided-prefix compaction: resident record state vs history ------
  // mp layer over the simulated network (DESIGN.md §8). The unbounded node
  // pays one record body per appended record forever; a summary-mode node
  // folds the stable prefix into its checkpoint, so live record state is
  // the suffix behind the quantized cut — near-flat at any history. The
  // byte column is live records x the in-memory record size, so the
  // bytes/record-of-history curve falls as 1/history with compaction on.
  Table compact_mem({"mode", "n", "history", "live [records]", "resident [B]"});
  for (const bool summary : {false, true}) {
    for (const u32 history : histories) {
      const u32 cluster_n = 4;
      mp::Network net(cluster_n, 0.01, 0.1, Rng::for_stream(h.seed, summary ? 0xc1 : 0xc0));
      const crypto::KeyRegistry keys(cluster_n, h.seed);
      mp::AbdConfig cfg;
      cfg.compact.enabled = summary;
      cfg.compact.retain_records = false;
      cfg.compact.lag = 64;
      std::vector<std::unique_ptr<mp::AbdNode>> nodes;
      nodes.reserve(cluster_n);
      for (u32 i = 0; i < cluster_n; ++i) {
        nodes.push_back(std::make_unique<mp::AbdNode>(NodeId{i}, net, keys, cfg));
      }
      for (u32 k = 0; k < history; ++k) {
        nodes[k % cluster_n]->begin_append((k % 2) != 0 ? 1 : -1, [] {});
        // Drain in batches so the pipeline window, not the backlog, bounds
        // in-flight appends.
        if ((k & 31u) == 31u) net.queue().run();
      }
      net.queue().run();
      const usize live = nodes[0]->live_records();
      compact_mem.add_row({summary ? "summary" : "off", std::to_string(cluster_n),
                           std::to_string(history), std::to_string(live),
                           std::to_string(live * sizeof(mp::SignedAppend))});
    }
  }
  h.emit(compact_mem,
         "Decided-prefix compaction: live record state vs total history "
         "(summary mode folds the stable prefix into the checkpoint):");
  return 0;
}
