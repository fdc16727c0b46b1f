// Readiness notification for the TCP transport's reactor: one epoll(7)
// instance.
//
// The transport used to rebuild a pollfd vector and call ::poll every
// cycle — O(sessions) per iteration even when one fd is ready, which caps
// a node at a few dozen connections. EventLoop keeps the interest set in
// the kernel behind add/modify/remove/wait, so the reactor pays
// O(changes) for registration and O(ready) per cycle. Readiness is
// level-triggered: a ready fd the reactor leaves unserviced is reported
// again on the next wait().
//
// Registrations are (fd, token, interest): the token — not the fd — is
// what wait() reports, so a session torn down mid-dispatch cannot be
// confused with a new session that recycled its fd number. wait() retries
// EINTR against the original deadline and clamps the millisecond argument
// into the int domain (the old reactor truncated and could spin or stall).
#pragma once

#include <chrono>
#include <vector>

#include "support/types.hpp"

namespace amm::net {

/// One ready registration, reported by token. `error` covers hangup and
/// error conditions (EPOLLERR/EPOLLHUP); a readable error still delivers
/// the buffered bytes and EOF through read.
struct ReadyEvent {
  u64 token = 0;
  bool readable = false;
  bool writable = false;
  bool error = false;
};

class EventLoop {
 public:
  static constexpr u32 kRead = 1;
  static constexpr u32 kWrite = 2;

  /// Creates the epoll instance; check ok() before use.
  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// False when epoll_create1 failed — the process or the system is out of
  /// descriptors (EMFILE/ENFILE); open_error() holds that errno, and every
  /// other call then fails.
  bool ok() const { return epfd_ >= 0; }
  int open_error() const { return open_error_; }

  /// Registers `fd` with the given interest mask. The token is returned
  /// verbatim in ReadyEvent. One registration per fd.
  bool add(int fd, u64 token, u32 interest);

  /// Replaces the interest mask (and token) of a registered fd.
  bool modify(int fd, u64 token, u32 interest);

  /// Unregisters `fd`. Must be called before the fd is closed so a
  /// recycled descriptor number cannot inherit a stale registration
  /// (epoll would otherwise keep reporting the old token until the
  /// kernel's own file reference drops). Unknown fds are ignored.
  void remove(int fd);

  /// Number of registered fds.
  usize watched() const { return watched_; }

  /// Waits up to `max_wait` for readiness and appends ready registrations
  /// to `*out` (cleared first). Returns the number of ready events, 0 on
  /// timeout. EINTR is retried without extending the deadline; negative
  /// waits are treated as 0 and waits beyond INT_MAX ms are chunked, so
  /// the caller's deadline is honored exactly regardless of magnitude.
  int wait(std::chrono::milliseconds max_wait, std::vector<ReadyEvent>* out);

 private:
  int epfd_ = -1;
  int open_error_ = 0;
  usize watched_ = 0;
};

}  // namespace amm::net
