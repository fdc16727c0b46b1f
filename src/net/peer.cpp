#include "net/peer.hpp"

#include <sys/socket.h>
#include <sys/uio.h>

#include <cerrno>

namespace amm::net {

namespace {

/// The front-to-back drain order of a session's queues: the partially
/// written frame (whatever its class) must finish first so frames stay
/// atomic on the wire; then the ctl class, then replication. `index` is
/// the position within the class queue.
struct FrameRef {
  usize cls = 0;
  usize index = 0;
};

/// Fills `refs` with up to kMaxWriteIov frames in drain order.
usize drain_order(const Session& s, FrameRef* refs) {
  usize n = 0;
  usize skip[kTxClasses] = {0, 0};
  if (s.tx_active >= 0) {
    refs[n++] = FrameRef{static_cast<usize>(s.tx_active), 0};
    skip[s.tx_active] = 1;
  }
  for (usize cls = 0; cls < kTxClasses && n < kMaxWriteIov; ++cls) {
    for (usize i = skip[cls]; i < s.tx[cls].size() && n < kMaxWriteIov; ++i) {
      refs[n++] = FrameRef{cls, i};
    }
  }
  return n;
}

}  // namespace

FlushResult flush_session_buffers(Session& session) {
  FlushResult result;
  while (session.tx_bytes > 0) {
    FrameRef refs[kMaxWriteIov];
    iovec iov[kMaxWriteIov];
    const usize chain = drain_order(session, refs);
    for (usize i = 0; i < chain; ++i) {
      const FrameBuf& frame = session.tx[refs[i].cls][refs[i].index];
      const usize off = (i == 0 && session.tx_active >= 0) ? session.tx_off : 0;
      // sendmsg never writes through iov_base; the const_cast only adapts
      // the immutable shared page to the iovec ABI.
      iov[i].iov_base = const_cast<u8*>(frame.data() + off);
      iov[i].iov_len = frame.size() - off;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = chain;
    const ssize_t n = ::sendmsg(session.fd, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return result;  // resume on writable
      result.fatal = true;  // EPIPE/ECONNRESET etc.
      return result;
    }
    ++result.syscalls;
    result.bytes += static_cast<u64>(n);
    session.tx_bytes -= static_cast<usize>(n);
    // Consume in the same drain order the iovec chain was built in.
    usize left = static_cast<usize>(n);
    while (left > 0) {
      const usize cls = session.tx_active >= 0
                            ? static_cast<usize>(session.tx_active)
                            : (!session.tx[0].empty() ? 0u : 1u);
      const FrameBuf& front = session.tx[cls].front();
      const usize remaining = front.size() - session.tx_off;
      if (left >= remaining) {
        left -= remaining;
        session.tx[cls].pop_front();
        session.tx_off = 0;
        session.tx_active = -1;
      } else {
        session.tx_off += left;
        session.tx_active = static_cast<int>(cls);
        left = 0;
      }
    }
  }
  return result;
}

Hello make_hello(NodeId self, u64 nonce, const crypto::KeyRegistry& keys) {
  Hello hello;
  hello.node = self;
  hello.nonce = nonce;
  hello.sig = keys.sign(self, hello.digest());
  return hello;
}

bool verify_hello(const Hello& hello, u32 node_count, const crypto::KeyRegistry& keys) {
  if (hello.node.index >= node_count) return false;
  if (hello.sig.signer != hello.node) return false;
  return keys.verify(hello.digest(), hello.sig);
}

}  // namespace amm::net
