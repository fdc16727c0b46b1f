#include "net/event_loop.hpp"

#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>

namespace amm::net {

namespace {

using Clock = std::chrono::steady_clock;

/// One wait() drains at most this many ready fds; the rest surface on the
/// next cycle (level-triggered, so nothing is lost).
constexpr int kMaxBatch = 256;

/// Remaining wait in whole milliseconds, clamped into epoll_wait's int
/// domain. Rounds up so a 0.5 ms remainder does not busy-spin at 0.
int clamped_remaining_ms(Clock::time_point deadline) {
  const auto now = Clock::now();
  if (now >= deadline) return 0;
  const auto left =
      std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now).count() + 1;
  return static_cast<int>(std::min<long long>(left, INT_MAX));
}

epoll_event event_of(u64 token, u32 interest) {
  epoll_event ev{};
  if ((interest & EventLoop::kRead) != 0) ev.events |= EPOLLIN;
  if ((interest & EventLoop::kWrite) != 0) ev.events |= EPOLLOUT;
  ev.data.u64 = token;
  return ev;
}

}  // namespace

EventLoop::EventLoop() : epfd_(::epoll_create1(EPOLL_CLOEXEC)) {
  if (epfd_ < 0) open_error_ = errno;
}

EventLoop::~EventLoop() {
  if (epfd_ >= 0) ::close(epfd_);
}

bool EventLoop::add(int fd, u64 token, u32 interest) {
  epoll_event ev = event_of(token, interest);
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) != 0) return false;
  ++watched_;
  return true;
}

bool EventLoop::modify(int fd, u64 token, u32 interest) {
  epoll_event ev = event_of(token, interest);
  return ::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev) == 0;
}

void EventLoop::remove(int fd) {
  if (::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr) == 0 && watched_ > 0) --watched_;
}

int EventLoop::wait(std::chrono::milliseconds max_wait, std::vector<ReadyEvent>* out) {
  out->clear();
  const auto deadline = Clock::now() + std::max(max_wait, std::chrono::milliseconds(0));
  epoll_event ready[kMaxBatch];
  for (;;) {
    const int rc = ::epoll_wait(epfd_, ready, kMaxBatch, clamped_remaining_ms(deadline));
    if (rc < 0) {
      if (errno == EINTR && Clock::now() < deadline) continue;  // retry, same deadline
      return 0;
    }
    if (rc == 0) {
      if (Clock::now() < deadline) continue;  // clamped chunk elapsed; keep waiting
      return 0;
    }
    for (int i = 0; i < rc; ++i) {
      ReadyEvent ev;
      ev.token = ready[i].data.u64;
      ev.readable = (ready[i].events & (EPOLLIN | EPOLLRDHUP)) != 0;
      ev.writable = (ready[i].events & EPOLLOUT) != 0;
      ev.error = (ready[i].events & (EPOLLERR | EPOLLHUP)) != 0;
      out->push_back(ev);
    }
    return rc;
  }
}

}  // namespace amm::net
