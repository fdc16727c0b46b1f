// amm_swarm — high-fanout client swarm for a running amm_node cluster.
//
//   amm_swarm --n N [--host 127.0.0.1] [--base-port 9500 | --ports "p0,p1,.."]
//             [--scale "8,32,128,512"] [--appends 50] [--window 4]
//             [--idle 0] [--csv] [--json FILE]
//
// Each rung of --scale opens that many concurrent control-plane
// connections (spread round-robin across the cluster's nodes) and drives
// --appends appends per connection with --window outstanding per
// connection. Every append is a full ABD quorum operation on the server
// side, so the reported rate is end-to-end: swarm socket -> reactor ->
// broadcast -> majority ack -> ctl reply. Reported per rung: wall time,
// appends/sec, and p50/p99 append latency (send to matching reply; ctl
// replies on a session are FIFO, so matching is positional).
//
// --idle N additionally opens N connections (round-robin across nodes)
// that are held for the whole run but never written to. The server accepts
// them and must keep watching their fds while only the writers ever
// become ready — the high-fanout regime of the paper, where a node
// serves a large, mostly quiescent peer population. This is where
// O(ready) readiness (epoll) pays off against O(watched) scanning (poll).
// When fewer than N open (e.g. the descriptor limit), every row reports
// the count that did open and the run exits 1.
//
// The swarm itself runs on a net::EventLoop (the epoll reactor the server
// uses) so the *client* never becomes the O(n) bottleneck the benchmark
// exists to measure. A rung whose loop cannot be created (descriptors
// exhausted) fails with a message.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "exp/harness.hpp"
#include "net/codec.hpp"
#include "net/event_loop.hpp"
#include "support/table.hpp"

namespace {

using namespace amm;
using Clock = std::chrono::steady_clock;

struct Conn {
  int fd = -1;
  bool connecting = true;
  bool failed = false;
  u32 sent = 0;
  u32 done = 0;
  u32 interest = 0;
  std::vector<u8> rx;
  std::vector<u8> tx;
  usize tx_off = 0;
  std::deque<Clock::time_point> inflight;  ///< send times, FIFO per session
};

/// Held-open, never-written connections; closed when the run ends.
struct IdleSet {
  std::vector<int> fds;
  ~IdleSet() {
    for (const int fd : fds) ::close(fd);
  }
};

struct RungResult {
  usize writers = 0;
  usize idle = 0;
  u64 appends = 0;
  double wall_ms = 0;
  double rate = 0;
  double p50_us = 0;
  double p99_us = 0;
  bool ok = false;
};

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Abortive close: the swarm opens tens of thousands of short-lived
/// connections per run; a graceful FIN would strand every one of them in
/// client-side TIME_WAIT for 60s and exhaust the ephemeral port range
/// after a few rungs. RST-on-close is safe here — a connection is only
/// closed once every reply it is owed has been received.
void set_linger_reset(int fd) {
  const linger lin{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lin, sizeof(lin));
}

/// The comma-separated numbers in `list`, each a whole base-10 token no
/// larger than `max` (OptionSet's number rule); nullopt on any other token,
/// an empty one included.
std::optional<std::vector<u64>> parse_list(const std::string& list, u64 max) {
  std::vector<u64> values;
  for (usize pos = 0; pos <= list.size();) {
    const usize end = std::min(list.find(',', pos), list.size());
    u64 v = 0;
    const auto [ptr, ec] = std::from_chars(list.data() + pos, list.data() + end, v);
    if (ec != std::errc{} || ptr != list.data() + end || v > max) return std::nullopt;
    values.push_back(v);
    pos = end + 1;
  }
  return values;
}

/// The node ports: --ports when given, else base-port + i for i < n;
/// nullopt when that is malformed, empty, or runs past port 65535.
std::optional<std::vector<u16>> parse_ports(const std::string& list, u16 base_port, u32 n) {
  std::vector<u16> ports;
  if (list.empty()) {
    if (u64{base_port} + n > 65536) return std::nullopt;
    for (u32 i = 0; i < n; ++i) ports.push_back(static_cast<u16>(base_port + i));
  } else if (const auto given = parse_list(list, 0xffff)) {
    for (const u64 p : *given) ports.push_back(static_cast<u16>(p));
  }
  if (ports.empty()) return std::nullopt;
  return ports;
}

/// Queues the next window of append requests on `conn`.
void pump_appends(Conn& conn, u32 appends, u32 window) {
  while (conn.sent < appends && conn.inflight.size() < window) {
    net::CtlRequest req;
    req.op = net::CtlOp::kAppend;
    req.value = static_cast<i64>(conn.sent);
    net::append_frame(conn.tx, net::FrameKind::kCtlReq, net::encode_ctl_request(req));
    conn.inflight.push_back(Clock::now());
    ++conn.sent;
  }
}

/// Nonblocking drain of conn.tx. Returns false on a fatal socket error.
bool flush_conn(Conn& conn) {
  while (conn.tx_off < conn.tx.size()) {
    const ssize_t n = ::send(conn.fd, conn.tx.data() + conn.tx_off,
                             conn.tx.size() - conn.tx_off, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;
    }
    conn.tx_off += static_cast<usize>(n);
  }
  conn.tx.clear();
  conn.tx_off = 0;
  return true;
}

void sync_interest(net::EventLoop& loop, Conn& conn, u64 token) {
  const u32 desired =
      net::EventLoop::kRead | (conn.tx_off < conn.tx.size() ? net::EventLoop::kWrite : 0);
  if (desired != conn.interest) {
    loop.modify(conn.fd, token, desired);
    conn.interest = desired;
  }
}

/// Opens the standing idle population: connections that are held for the
/// whole run but never written to. The connect burst is paced — the
/// listener's backlog is finite and the server accepts from the same loop
/// it serves writers on.
IdleSet open_idle(const std::string& host, const std::vector<u16>& ports, usize idle) {
  IdleSet idle_conns;
  idle_conns.fds.reserve(idle);
  const char* resolved_host = host == "localhost" ? "127.0.0.1" : host.c_str();
  for (usize i = 0; i < idle; ++i) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(ports[i % ports.size()]);
    if (::inet_pton(AF_INET, resolved_host, &addr.sin_addr) != 1) break;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0 || !set_nonblocking(fd)) {
      if (fd >= 0) ::close(fd);
      break;
    }
    set_linger_reset(fd);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 &&
        errno != EINPROGRESS) {
      ::close(fd);
      break;
    }
    idle_conns.fds.push_back(fd);
    if ((i + 1) % 256 == 0)  // analyze:allow(banned-sleep): paces a real kernel's accept queues
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  if (idle_conns.fds.size() < idle) {
    std::fprintf(stderr, "amm_swarm: only %zu/%zu idle connections opened\n",
                 idle_conns.fds.size(), idle);
  }
  // Let the servers drain their accept queues before any rung's clock starts.
  // Wall-clock is fine here: this is a benchmark client pacing a real kernel,
  // not protocol code under simulated time.
  if (!idle_conns.fds.empty())  // analyze:allow(banned-sleep): client pacing, see above
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
  return idle_conns;
}

/// Blocking one-shot ctl stats probe. Post-run reporting only — the rung
/// clock has long stopped, so a plain blocking socket (with a receive
/// timeout as the only failure bound) is the simplest correct tool.
std::optional<mp::NodeStats> fetch_stats(const std::string& host, u16 port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const char* resolved_host = host == "localhost" ? "127.0.0.1" : host.c_str();
  if (::inet_pton(AF_INET, resolved_host, &addr.sin_addr) != 1) return std::nullopt;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::nullopt;
  const timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  set_linger_reset(fd);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return std::nullopt;
  }
  net::CtlRequest req;
  req.op = net::CtlOp::kStats;
  std::vector<u8> tx;
  net::append_frame(tx, net::FrameKind::kCtlReq, net::encode_ctl_request(req));
  usize off = 0;
  while (off < tx.size()) {
    const ssize_t n = ::send(fd, tx.data() + off, tx.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      ::close(fd);
      return std::nullopt;
    }
    off += static_cast<usize>(n);
  }
  std::vector<u8> rx;
  u8 chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      ::close(fd);
      return std::nullopt;
    }
    rx.insert(rx.end(), chunk, chunk + n);
    net::Frame frame;
    const auto status = net::extract_frame(rx, &frame);
    if (status == net::FrameStatus::kNeedMore) continue;
    ::close(fd);
    if (status == net::FrameStatus::kCorrupt || frame.kind != net::FrameKind::kCtlRep) {
      return std::nullopt;
    }
    const auto reply = net::decode_ctl_reply(frame.payload);
    if (!reply || reply->op != net::CtlOp::kStats || !reply->ok) return std::nullopt;
    return reply->stats;
  }
}

RungResult run_rung(const std::string& host, const std::vector<u16>& ports, usize writers,
                    u32 appends, u32 window, usize idle) {
  RungResult result;
  result.writers = writers;
  result.idle = idle;
  net::EventLoop loop;
  if (!loop.ok()) {
    std::fprintf(stderr, "amm_swarm: cannot create the event loop: %s\n",
                 std::strerror(loop.open_error()));
    return result;
  }

  const char* resolved_host = host == "localhost" ? "127.0.0.1" : host.c_str();

  std::vector<Conn> conns(writers);
  std::vector<Clock::time_point> latencies_start;  // reused below
  std::vector<double> latencies_us;
  latencies_us.reserve(writers * appends);

  const auto t0 = Clock::now();
  for (usize i = 0; i < writers; ++i) {
    Conn& conn = conns[i];
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(ports[i % ports.size()]);
    if (::inet_pton(AF_INET, resolved_host, &addr.sin_addr) != 1) return result;
    conn.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (conn.fd < 0 || !set_nonblocking(conn.fd)) return result;
    const int one = 1;
    ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    set_linger_reset(conn.fd);
    const int rc = ::connect(conn.fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    if (rc == 0) {
      conn.connecting = false;
      pump_appends(conn, appends, window);
      if (!flush_conn(conn)) return result;
      conn.interest =
          net::EventLoop::kRead | (conn.tx_off < conn.tx.size() ? net::EventLoop::kWrite : 0);
      loop.add(conn.fd, i, conn.interest);
    } else if (errno == EINPROGRESS) {
      conn.interest = net::EventLoop::kWrite;
      loop.add(conn.fd, i, conn.interest);
    } else {
      return result;
    }
  }

  usize completed = 0;
  auto last_progress = Clock::now();
  std::vector<net::ReadyEvent> events;
  u8 chunk[65536];
  while (completed < writers) {
    // A stalled cluster (or a dropped conn) must fail the rung, not hang it.
    if (Clock::now() - last_progress > std::chrono::seconds(15)) {
      std::fprintf(stderr, "amm_swarm: no progress for 15s at %zu/%zu writers done\n",
                   completed, writers);
      break;
    }
    loop.wait(std::chrono::milliseconds(100), &events);
    for (const net::ReadyEvent& event : events) {
      Conn& conn = conns[event.token];
      if (conn.fd < 0 || conn.failed) continue;
      if (conn.connecting) {
        int err = 0;
        socklen_t len = sizeof(err);
        ::getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &err, &len);
        if (event.error || err != 0) {
          conn.failed = true;
          continue;
        }
        if (!event.writable) continue;
        conn.connecting = false;
        pump_appends(conn, appends, window);
        if (!flush_conn(conn)) {
          conn.failed = true;
          continue;
        }
        sync_interest(loop, conn, event.token);
        continue;
      }
      if (event.error && !event.readable) {
        conn.failed = true;
        continue;
      }
      if (event.readable) {
        bool dead = false;
        for (;;) {
          const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), MSG_DONTWAIT);
          if (n > 0) {
            conn.rx.insert(conn.rx.end(), chunk, chunk + n);
            if (static_cast<usize>(n) < sizeof(chunk)) break;
          } else if (n == 0) {
            dead = true;
            break;
          } else {
            if (errno == EAGAIN || errno == EWOULDBLOCK) break;
            if (errno == EINTR) continue;
            dead = true;
            break;
          }
        }
        const auto now = Clock::now();
        for (;;) {
          net::Frame frame;
          const auto status = net::extract_frame(conn.rx, &frame);
          if (status == net::FrameStatus::kNeedMore) break;
          if (status == net::FrameStatus::kCorrupt) {
            dead = true;
            break;
          }
          if (frame.kind != net::FrameKind::kCtlRep) continue;
          const auto reply = net::decode_ctl_reply(frame.payload);
          if (!reply || reply->op != net::CtlOp::kAppend || conn.inflight.empty()) continue;
          const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
              now - conn.inflight.front());
          conn.inflight.pop_front();
          latencies_us.push_back(static_cast<double>(us.count()));
          ++conn.done;
          last_progress = now;
        }
        if (dead && conn.done < appends) {
          conn.failed = true;
          continue;
        }
        pump_appends(conn, appends, window);
        if (!flush_conn(conn)) {
          conn.failed = true;
          continue;
        }
        if (conn.done >= appends) {
          loop.remove(conn.fd);
          ::close(conn.fd);
          conn.fd = -1;
          ++completed;
          continue;
        }
      }
      if (event.writable && !flush_conn(conn)) {
        conn.failed = true;
        continue;
      }
      if (conn.fd >= 0) sync_interest(loop, conn, event.token);
    }
    for (Conn& conn : conns) {
      if (conn.failed && conn.fd >= 0) {
        std::fprintf(stderr, "amm_swarm: connection failed mid-rung\n");
        loop.remove(conn.fd);
        ::close(conn.fd);
        conn.fd = -1;
      }
    }
    if (std::any_of(conns.begin(), conns.end(), [](const Conn& c) { return c.failed; })) break;
  }
  const auto t1 = Clock::now();

  for (Conn& conn : conns) {
    if (conn.fd >= 0) {
      loop.remove(conn.fd);
      ::close(conn.fd);
      conn.fd = -1;
    }
  }

  result.appends = latencies_us.size();
  result.wall_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(t1 - t0).count();
  result.rate = result.wall_ms > 0 ? 1000.0 * static_cast<double>(result.appends) / result.wall_ms
                                   : 0.0;
  if (!latencies_us.empty()) {
    const usize i50 = latencies_us.size() / 2;
    const usize i99 = std::min(latencies_us.size() - 1, latencies_us.size() * 99 / 100);
    std::nth_element(latencies_us.begin(), latencies_us.begin() + static_cast<std::ptrdiff_t>(i50),
                     latencies_us.end());
    result.p50_us = latencies_us[i50];
    std::nth_element(latencies_us.begin(), latencies_us.begin() + static_cast<std::ptrdiff_t>(i99),
                     latencies_us.end());
    result.p99_us = latencies_us[i99];
  }
  result.ok = completed == writers &&
              result.appends == static_cast<u64>(writers) * appends;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);

  // The swarm's own flags join the harness's common ones
  // (--seed/--trials/--threads/--csv/--json) on the one OptionSet that
  // parses argv.
  u32 n = 3;
  std::string host = "127.0.0.1";
  u16 base_port = 9500;
  std::string ports_list;
  std::string scale_list = "8,32,128,512";
  u32 appends = 50;
  u32 window = 4;
  u64 idle_count = 0;
  exp::Harness harness(
      argc, argv, "amm_swarm: client-swarm append throughput", 1, [&](OptionSet& opts) {
        opts.add_u32("n", &n, "number of cluster nodes to spread connections over");
        opts.add_string("host", &host, "cluster host");
        opts.add_u16("base-port", &base_port, "node i listens on base-port+i");
        opts.add_string("ports", &ports_list,
                        "explicit comma-separated node ports (overrides base-port)");
        opts.add_string("scale", &scale_list, "comma-separated rungs of concurrent writers");
        opts.add_u32("appends", &appends, "appends per connection", {1});
        opts.add_u32("window", &window, "appends in flight per connection", {1});
        opts.add_u64("idle", &idle_count, "standing never-written connections held for the run");
        opts.require([&] { return parse_ports(ports_list, base_port, n).has_value(); },
                     "need --n >= 1 with --base-port + --n - 1 <= 65535, or a --ports "
                     "list of port numbers");
        opts.require([&] { return parse_list(scale_list, ~u64{0}).has_value(); },
                     "need a --scale list of writer counts");
      });
  const std::vector<u16> ports = *parse_ports(ports_list, base_port, n);
  const std::vector<usize> scale = *parse_list(scale_list, ~u64{0});
  const usize idle = static_cast<usize>(idle_count);

  // The idle population stands for the whole run: every rung then measures
  // a server that is already watching `idle` quiescent sessions, and rungs
  // do not perturb each other with 6000-session teardown storms.
  const IdleSet idle_conns = open_idle(host, ports, idle);

  // Rows carry the idle population that actually stood; a short one fails
  // the run like an incomplete rung, so no row names a configuration that
  // did not run.
  const usize idle_opened = idle_conns.fds.size();
  Table table({"writers", "idle", "appends", "wall [ms]", "appends/sec", "p50 [us]",
               "p99 [us]"});
  bool all_ok = idle_opened == idle;
  for (const usize writers : scale) {
    const RungResult r = run_rung(host, ports, writers, appends, window, idle_opened);
    all_ok = all_ok && r.ok;
    table.add_row({std::to_string(r.writers), std::to_string(r.idle), std::to_string(r.appends),
                   fmt(r.wall_ms, 1), fmt(r.rate, 0), fmt(r.p50_us, 0), fmt(r.p99_us, 0)});
    if (!r.ok) {
      std::fprintf(stderr, "amm_swarm: rung writers=%zu incomplete (%llu appends acked)\n",
                   writers, static_cast<unsigned long long>(r.appends));
    }
  }
  harness.emit(table, "append throughput vs concurrent writers");

  // Post-run server memory probe: the §8 story measured end-to-end — how
  // much record state each node resides with after the whole load. With
  // compaction off live == history on every node; in summary mode live is
  // the suffix the checkpoint has not folded. Skipped silently if a node
  // is unreachable (the rung results above already failed in that case).
  Table memory({"node", "live [records]", "folded", "rss [KB]"});
  bool have_stats = !ports.empty();
  for (usize i = 0; i < ports.size() && have_stats; ++i) {
    const std::optional<mp::NodeStats> stats = fetch_stats(host, ports[i]);
    if (!stats) {
      have_stats = false;
      break;
    }
    memory.add_row({std::to_string(i), std::to_string(stats->live_records),
                    std::to_string(stats->records_folded), std::to_string(stats->rss_kb)});
  }
  if (have_stats) harness.emit(memory, "per-node resident record state after the run");
  return all_ok ? 0 : 1;
}
