#include "net/event_engine.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

namespace simcloud {
namespace net {

Result<std::unique_ptr<EventEngine>> EventEngine::Create() {
  const int fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (fd < 0) {
    return Status::NetworkError(std::string("epoll_create1 failed: ") +
                                std::strerror(errno));
  }
  return std::unique_ptr<EventEngine>(new EventEngine(fd));
}

EventEngine::EventEngine(int epoll_fd)
    : epoll_fd_(epoll_fd), raw_events_(128) {}

EventEngine::~EventEngine() { ::close(epoll_fd_); }

Status EventEngine::Add(int fd, uint64_t tag, uint32_t events) {
  return Ctl(EPOLL_CTL_ADD, fd, tag, events, "epoll add");
}

Status EventEngine::Modify(int fd, uint64_t tag, uint32_t events) {
  return Ctl(EPOLL_CTL_MOD, fd, tag, events, "epoll mod");
}

void EventEngine::Remove(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

Status EventEngine::Wait(std::vector<Event>* out) {
  out->clear();
  for (;;) {
    const int n = ::epoll_wait(epoll_fd_, raw_events_.data(),
                               static_cast<int>(raw_events_.size()), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::NetworkError(std::string("epoll_wait failed: ") +
                                  std::strerror(errno));
    }
    out->reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      out->push_back(Event{raw_events_[i].data.u64, raw_events_[i].events});
    }
    return Status::OK();
  }
}

Status EventEngine::Ctl(int op, int fd, uint64_t tag, uint32_t events,
                        const char* what) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = tag;
  if (::epoll_ctl(epoll_fd_, op, fd, &ev) < 0) {
    return Status::NetworkError(std::string(what) +
                                " failed: " + std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace net
}  // namespace simcloud
