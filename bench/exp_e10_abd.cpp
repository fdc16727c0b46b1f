// E10 — §4: simulating the append memory over message passing is correct
// but message-heavy — and how far frontier reads + pipelining push the
// wall back.
//
// Parts 1–2 run the *legacy* configuration (full-view reads, one append in
// flight — Algorithms 2–3 verbatim): Θ(n) messages per operation, read
// replies carrying the full ever-growing views. That is the "high message
// complexity cost" the paper trades away by abstracting to the append
// memory, and it stays pinned here as the reference.
//
// Parts 3–4 measure the optimised wire (DESIGN.md §9): steady-state read
// bytes with frontier deltas vs the full-view baseline at --appends
// (default 10⁴) records of history, and append completion sim-time with
// the bounded pipeline vs lock-step appends.
#include <iostream>
#include <memory>

#include "exp/harness.hpp"
#include "mp/abd.hpp"
#include "mp/sim_memory.hpp"

using namespace amm;

namespace {

struct Cluster {
  crypto::KeyRegistry keys;
  mp::Network net;
  std::vector<std::unique_ptr<mp::AbdNode>> nodes;

  Cluster(u32 n, u64 seed, mp::AbdConfig config)
      : keys(n, seed), net(n, 0.05, 0.5, Rng(seed + n)) {
    for (u32 i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<mp::AbdNode>(NodeId{i}, net, keys, config));
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  u32 big_history = 10000;
  exp::Harness h(argc, argv, "E10 — ABD simulation of the append memory (§4)", 1,
                 [&](OptionSet& opts) {
                   opts.add_u32("appends", &big_history, "records of history in part 3");
                 });

  const mp::AbdConfig legacy{.delta_reads = false, .max_pipeline = 1};

  Table scaling({"n", "appends", "msgs/append", "msgs/read", "read bytes [B]", "growth"});
  for (const u32 n : {4u, 8u, 16u, 32u}) {
    Cluster c(n, h.seed, legacy);

    const u32 appends = 4 * n;
    u64 append_msgs = 0;
    for (u32 a = 0; a < appends; ++a) {
      const u64 before = c.net.messages_sent();
      c.nodes[a % n]->begin_append(static_cast<i64>(a), [] {});
      c.net.queue().run();
      append_msgs += c.net.messages_sent() - before;
    }

    // First read right after one append history snapshot, second after the
    // full history: bytes must grow with the view size.
    u64 read_msgs = 0, read_bytes = 0;
    {
      const u64 m0 = c.net.messages_sent(), b0 = c.net.bytes_sent();
      c.nodes[0]->begin_read([](const std::vector<mp::SignedAppend>&) {});
      c.net.queue().run();
      read_msgs = c.net.messages_sent() - m0;
      read_bytes = c.net.bytes_sent() - b0;
    }
    // Early-history baseline read, measured on a fresh cluster with n appends.
    u64 early_bytes = 0;
    {
      Cluster c2(n, h.seed + 1, legacy);
      for (u32 a = 0; a < n; ++a) {
        c2.nodes[a % n]->begin_append(1, [] {});
        c2.net.queue().run();
      }
      const u64 b0 = c2.net.bytes_sent();
      c2.nodes[0]->begin_read([](const std::vector<mp::SignedAppend>&) {});
      c2.net.queue().run();
      early_bytes = c2.net.bytes_sent() - b0;
    }

    scaling.add_row({std::to_string(n), std::to_string(appends),
                     fmt(static_cast<double>(append_msgs) / appends, 1),
                     std::to_string(read_msgs), std::to_string(read_bytes),
                     fmt(static_cast<double>(read_bytes) / static_cast<double>(early_bytes), 2) +
                         "x vs 1/4 history"});
  }
  h.emit(scaling,
         "Legacy wire (Algorithms 2-3 verbatim): each append costs 2n messages\n"
         "(broadcast + acks); each read costs 2n messages whose reply bytes grow\n"
         "linearly with history — the overhead the append memory model abstracts\n"
         "away:");

  // Part 2: a full-information round protocol (the communication pattern of
  // Algorithm 1) executed over the simulated memory. Messages stay at 4n²
  // per round; the bytes of round r grow with the whole history — the
  // "exponential information exchange" cost of simulating the abstraction.
  Table rounds_table({"n", "round", "messages", "bytes [B]", "growth"});
  for (const u32 n : {6u, 12u}) {
    mp::SimulatedAppendMemory memory(n, 0.05, 0.5, h.seed + n, legacy);
    const auto costs = mp::run_full_information_rounds(memory, 5);
    for (usize r = 0; r < costs.size(); ++r) {
      rounds_table.add_row({std::to_string(n), std::to_string(r + 1),
                            std::to_string(costs[r].messages), std::to_string(costs[r].bytes),
                            fmt(static_cast<double>(costs[r].bytes) /
                                    static_cast<double>(costs[0].bytes),
                                2) + "x"});
    }
  }
  h.emit(rounds_table,
         "Full-information rounds (Algorithm 1's pattern) over the legacy wire —\n"
         "per-round bytes grow with the entire history:");

  // Part 3: steady-state read cost at large history — frontier deltas vs
  // the full-view baseline. Both clusters hold the same `big_history`
  // records; the delta reader's first read establishes its watermarks (and
  // is itself near-empty here, because broadcast appends already filled
  // every view), after which a read moves O(n·Δ) bytes instead of O(n·k).
  Table steady({"n", "history", "full read [B]", "delta read [B]", "reduction"});
  for (const u32 n : {4u, 8u}) {
    u64 full_bytes = 0, delta_bytes = 0;
    for (const bool delta : {false, true}) {
      mp::AbdConfig config;
      config.delta_reads = delta;  // responder code is mode-independent
      Cluster c(n, h.seed + n, config);
      for (u32 a = 0; a < big_history; ++a) {
        c.nodes[a % n]->begin_append(static_cast<i64>(a), [] {});
      }
      c.net.queue().run();  // pipeline drains the whole backlog
      // Warm-up read (sets the delta reader's watermarks), then measure.
      c.nodes[0]->begin_read([](const std::vector<mp::SignedAppend>&) {});
      c.net.queue().run();
      const u64 b0 = c.net.bytes_sent();
      c.nodes[0]->begin_read([](const std::vector<mp::SignedAppend>&) {});
      c.net.queue().run();
      (delta ? delta_bytes : full_bytes) = c.net.bytes_sent() - b0;
    }
    steady.add_row({std::to_string(n), std::to_string(big_history),
                    std::to_string(full_bytes), std::to_string(delta_bytes),
                    fmt(static_cast<double>(full_bytes) / static_cast<double>(delta_bytes), 1) +
                        "x"});
  }
  h.emit(steady,
         "Steady-state read at large history: frontier (delta) reads ship only\n"
         "records above the reader's per-author watermarks — wire volume is O(n·Δ)\n"
         "instead of O(n·k):");

  // Part 4: append completion time — lock-step (one outstanding append,
  // the legacy discipline) vs the bounded in-flight pipeline. Sim-time is
  // deterministic for a fixed seed, so the speedup is a stable metric.
  Table pipe({"n", "appends", "window", "sequential [s]", "pipelined [s]", "speedup"});
  for (const u32 n : {4u, 8u}) {
    const u32 appends = 64 * n;
    double seq_time = 0.0, pipe_time = 0.0;
    for (const bool pipelined : {false, true}) {
      mp::AbdConfig config;
      config.delta_reads = true;
      config.max_pipeline = pipelined ? 32 : 1;
      Cluster c(n, h.seed + 2 * n, config);
      const SimTime t0 = c.net.queue().now();
      if (pipelined) {
        for (u32 a = 0; a < appends; ++a) {
          c.nodes[a % n]->begin_append(static_cast<i64>(a), [] {});
        }
        c.net.queue().run();
      } else {
        for (u32 a = 0; a < appends; ++a) {
          c.nodes[a % n]->begin_append(static_cast<i64>(a), [] {});
          c.net.queue().run();  // lock-step: wait out each quorum
        }
      }
      (pipelined ? pipe_time : seq_time) = c.net.queue().now() - t0;
    }
    pipe.add_row({std::to_string(n), std::to_string(appends), "32", fmt(seq_time, 2),
                  fmt(pipe_time, 2), fmt(seq_time / pipe_time, 1) + "x"});
  }
  h.emit(pipe,
         "Append pipelining: up to 32 appends in flight per node overlap their\n"
         "quorum round-trips — completion sim-time drops accordingly:");
  return 0;
}
