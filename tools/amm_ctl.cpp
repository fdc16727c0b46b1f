// amm_ctl — submit operations to a running amm_node and print the result.
//
//   amm_ctl --port P [--host 127.0.0.1] --op append --value V [--count C] [--window W]
//   amm_ctl --port P --op read
//   amm_ctl --port P --op decide --k K
//   amm_ctl --port P --op stats
//   amm_ctl --port P --op kick          # force the node's outbound links down
//
// One TCP connection. `--count C` repeats an append with values V, V+1, …,
// V+C−1 over the same connection (the loopback cluster test drives its
// 1000-append run through this); `--window W` keeps up to W of them in
// flight at once — the node's AbdNode pipelines them through the quorum
// protocol. Every reply the node sends reflects a completed quorum
// operation, so exit status 0 means the cluster actually executed the op,
// not that it was merely submitted.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "net/codec.hpp"
#include "support/options.hpp"

namespace {

using namespace amm;

int dial(const std::string& host, u16 port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const char* numeric = host == "localhost" ? "127.0.0.1" : host.c_str();
  if (::inet_pton(AF_INET, numeric, &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval timeout{30, 0};  // a stuck quorum must not hang the operator
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  return fd;
}

bool send_all(int fd, const std::vector<u8>& bytes) {
  usize off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<usize>(n);
  }
  return true;
}

bool send_request(int fd, const net::CtlRequest& request) {
  std::vector<u8> frame;
  net::append_frame(frame, net::FrameKind::kCtlReq, net::encode_ctl_request(request));
  return send_all(fd, frame);
}

/// Receives one reply. `rx` persists across calls so bytes of a later
/// reply arriving in the same chunk are not lost — required for the
/// sliding-window append mode, where several requests are in flight.
bool recv_reply(int fd, std::vector<u8>& rx, net::CtlReply* reply) {
  for (;;) {
    net::Frame received;
    switch (net::extract_frame(rx, &received)) {
      case net::FrameStatus::kFrame: {
        if (received.kind != net::FrameKind::kCtlRep) return false;
        const auto decoded = net::decode_ctl_reply(received.payload);
        if (!decoded) return false;
        *reply = *decoded;
        return true;
      }
      case net::FrameStatus::kCorrupt:
        return false;
      case net::FrameStatus::kNeedMore:
        break;
    }
    u8 chunk[65536];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;  // timeout, reset, or orderly close without a reply
    }
    rx.insert(rx.end(), chunk, chunk + n);
  }
}

bool roundtrip(int fd, std::vector<u8>& rx, const net::CtlRequest& request,
               net::CtlReply* reply) {
  return send_request(fd, request) && recv_reply(fd, rx, reply);
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  u16 port = 9500;
  std::string op = "stats";
  i64 value = 1;
  u64 count = 1;
  u64 window = 1;
  u32 k = 1;
  OptionSet opts("amm_ctl", "submit one operation to a running amm_node");
  opts.add_string("host", &host, "node host");
  opts.add_u16("port", &port, "node control port");
  opts.add_enum("op", &op, {"append", "read", "decide", "stats", "kick"}, "operation");
  opts.add_i64("value", &value, "append: first value");
  opts.add_u64("count", &count, "append: number of appends (values value..value+count-1)");
  opts.add_u64("window", &window, "append: appends kept in flight on the connection", {1});
  opts.add_u32("k", &k, "decide: the k-cut size");
  opts.parse_or_exit(argc, argv);

  const int fd = dial(host, port);
  if (fd < 0) {
    std::fprintf(stderr, "amm_ctl: cannot connect to %s:%u\n", host.c_str(),
                 static_cast<unsigned>(port));
    return 2;
  }

  int status = 0;
  net::CtlReply reply;
  std::vector<u8> rx;  // shared receive buffer; replies can arrive batched
  if (op == "append") {
    // --window W keeps up to W appends in flight on the one connection;
    // the node's AbdNode pipelines them (W=1 is the old strict lock-step).
    u64 sent = 0;
    u64 completed = 0;
    bool failed = false;
    while (completed < count && !failed) {
      while (sent < count && sent - completed < window) {
        const i64 next_value = value + static_cast<i64>(sent);
        if (!send_request(fd, net::CtlRequest{net::CtlOp::kAppend, next_value, 0})) {
          failed = true;
          break;
        }
        ++sent;
      }
      if (failed || !recv_reply(fd, rx, &reply) || !reply.ok) {
        failed = true;
        break;
      }
      ++completed;
    }
    if (failed) {
      std::fprintf(stderr, "amm_ctl: append %llu/%llu failed\n",
                   static_cast<unsigned long long>(completed + 1),
                   static_cast<unsigned long long>(count));
      status = 1;
    }
    std::printf("appended count=%llu first=%lld\n", static_cast<unsigned long long>(completed),
                static_cast<long long>(value));
  } else if (op == "read") {
    if (roundtrip(fd, rx, net::CtlRequest{net::CtlOp::kRead, 0, 0}, &reply) && reply.ok) {
      std::printf("view count=%zu\n", reply.view.size());
      for (const mp::SignedAppend& rec : reply.view) {
        std::printf("record author=%u seq=%u value=%lld\n", rec.author.index, rec.seq,
                    static_cast<long long>(rec.value));
      }
    } else {
      std::fprintf(stderr, "amm_ctl: read failed\n");
      status = 1;
    }
  } else if (op == "decide") {
    if (roundtrip(fd, rx, net::CtlRequest{net::CtlOp::kDecide, 0, k}, &reply) && reply.ok) {
      std::printf("decision=%+lld over=%u\n", static_cast<long long>(reply.decision),
                  reply.decided_over);
    } else {
      // Machine-readable refusal vs not-yet: a cut below the compaction
      // fold can never resolve (exit 3, scripts must not retry), while an
      // undecided cut simply has not filled yet (exit 1, retry later).
      const char* reason = net::ctl_status_name(reply.status);
      std::printf("decide failed reason=%s\n", reason);
      std::fprintf(stderr, "amm_ctl: decide failed reason=%s\n", reason);
      status = reply.status == net::CtlStatus::kRefusedBelowFold ? 3 : 1;
    }
  } else if (op == "stats") {
    if (roundtrip(fd, rx, net::CtlRequest{net::CtlOp::kStats, 0, 0}, &reply) && reply.ok) {
      // One key=value pair per NodeStats field, named and ordered by the
      // field table — amm_node, this printer, and cluster_test.py's parser
      // all read the same declaration.
      std::printf("stats");
      for (const mp::NodeStatsField& field : mp::kNodeStatsFields) {
        std::printf(" %s=%llu", field.name,
                    static_cast<unsigned long long>(reply.stats.*field.member));
      }
      std::printf("\n");
    } else {
      std::fprintf(stderr, "amm_ctl: stats failed\n");
      status = 1;
    }
  } else if (op == "kick") {
    if (roundtrip(fd, rx, net::CtlRequest{net::CtlOp::kKick, 0, 0}, &reply) && reply.ok) {
      std::printf("kicked\n");
    } else {
      std::fprintf(stderr, "amm_ctl: kick failed\n");
      status = 1;
    }
  } else {
    std::fprintf(stderr, "amm_ctl: unknown --op %s (append|read|decide|stats|kick)\n", op.c_str());
    status = 2;
  }

  ::close(fd);
  return status;
}
