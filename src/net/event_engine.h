// Readiness engine behind TcpServer's event loop: a thin epoll wrapper.
//
// The server's loop logic (accept, incremental reads, backpressure,
// completion flushing) registers fds with an EPOLL* interest mask and
// consumes (tag, events) pairs. Delivery is level-triggered.

#ifndef SIMCLOUD_NET_EVENT_ENGINE_H_
#define SIMCLOUD_NET_EVENT_ENGINE_H_

#include <sys/epoll.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"

namespace simcloud {
namespace net {

/// Readiness source for one event-loop thread. Not thread-safe: every
/// method must be called from the loop thread that owns the engine
/// (TcpServer registers the listen/wake fds before starting the loop,
/// which is safe — the loop has not started consuming yet).
class EventEngine {
 public:
  struct Event {
    uint64_t tag = 0;     ///< registration tag (connection generation)
    uint32_t events = 0;  ///< EPOLL* bits that fired
  };

  /// Opens the epoll instance.
  static Result<std::unique_ptr<EventEngine>> Create();
  ~EventEngine();

  EventEngine(const EventEngine&) = delete;
  EventEngine& operator=(const EventEngine&) = delete;

  /// Registers `fd` with interest `events`.
  Status Add(int fd, uint64_t tag, uint32_t events);
  /// Replaces the interest mask of a registered fd.
  Status Modify(int fd, uint64_t tag, uint32_t events);
  /// Deregisters an fd. Stale events for its tag may still surface from
  /// the current batch; the caller's tag lookup makes them harmless.
  void Remove(int fd);

  /// Blocks until at least one event is ready; appends them to `out`
  /// (which is cleared first). An error here is loop-fatal.
  Status Wait(std::vector<Event>* out);

 private:
  explicit EventEngine(int epoll_fd);

  Status Ctl(int op, int fd, uint64_t tag, uint32_t events, const char* what);

  int epoll_fd_;
  std::vector<epoll_event> raw_events_;
};

}  // namespace net
}  // namespace simcloud

#endif  // SIMCLOUD_NET_EVENT_ENGINE_H_
