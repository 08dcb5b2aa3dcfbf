#include "net/tcp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/clock.h"
#include "common/log.h"
#include "common/serialize.h"
#include "crypto/cpu_features.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace simcloud {
namespace net {

namespace {

// Registry cells the server hot paths record into. Function-local
// statics: registered once, then a plain pointer deref.
obs::Gauge* ConnectionsGauge() {
  static obs::Gauge* const gauge =
      obs::Registry::Default().GetGauge("simcloud_net_connections");
  return gauge;
}

obs::Counter* ReadPausesCounter() {
  static obs::Counter* const counter = obs::Registry::Default().GetCounter(
      "simcloud_net_read_pauses_total");
  return counter;
}

obs::Gauge* PeakOutputQueueGauge() {
  static obs::Gauge* const gauge = obs::Registry::Default().GetGauge(
      "simcloud_net_output_queue_peak_bytes");
  return gauge;
}

obs::Histogram* ServerHandshakeHistogram() {
  static obs::Histogram* const histogram =
      obs::Registry::Default().GetHistogram(
          "simcloud_secure_handshake_nanos{side=\"server\"}");
  return histogram;
}

// Event-engine tags of the two non-connection fds; connection
// generations start at 2.
constexpr uint64_t kListenTag = 0;
constexpr uint64_t kWakeTag = 1;

// Bytes appended to a connection's input buffer per loop iteration; the
// level-triggered loop re-fires while more input is pending, so one slow
// reader cannot monopolize the event thread.
constexpr size_t kReadChunk = 256 * 1024;
constexpr size_t kMaxReadPerEvent = 4 * 1024 * 1024;

Status WriteAll(int fd, const uint8_t* data, size_t len) {
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::send(fd, data + done, len - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::NetworkError(std::string("send failed: ") +
                                  std::strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status ReadAll(int fd, uint8_t* data, size_t len) {
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::recv(fd, data + done, len - done, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::NetworkError(std::string("recv failed: ") +
                                  std::strerror(errno));
    }
    if (n == 0) return Status::NetworkError("peer closed connection");
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

uint32_t LoadLE32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

void StoreLE32(uint32_t v, uint8_t* p) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

/// Frame header: u32 length with kFrameIdFlag set, then the u32 id.
constexpr size_t kFrameHeaderLen = 8;

/// Appends one frame — header, then `payload` — to `*out`.
Status AppendFrame(uint32_t request_id, const Bytes& payload, Bytes* out) {
  if (payload.size() > kMaxFrameLength) {
    return Status::InvalidArgument("frame body of " +
                                   std::to_string(payload.size()) +
                                   " bytes exceeds the 31-bit frame limit");
  }
  const size_t header_at = out->size();
  out->resize(header_at + kFrameHeaderLen);
  StoreLE32(static_cast<uint32_t>(payload.size()) | kFrameIdFlag,
            out->data() + header_at);
  StoreLE32(request_id, out->data() + header_at + 4);
  out->insert(out->end(), payload.begin(), payload.end());
  return Status::OK();
}

/// Response bodies start with u64 server_nanos and a one-byte ok flag.
constexpr size_t kResponsePrefix = 9;

/// Builds one whole response frame — header, u64 server_nanos, ok flag,
/// `body` — in a single buffer, so the body is copied exactly once.
/// `body` is the payload when `ok`, the varint-prefixed error text
/// otherwise. InvalidArgument past the 31-bit frame limit.
Result<Bytes> EncodeResponseFrame(uint32_t request_id, uint64_t server_nanos,
                                  bool ok, const uint8_t* body,
                                  size_t body_len) {
  const uint64_t frame_len = kResponsePrefix + uint64_t{body_len};
  if (frame_len > kMaxFrameLength) {
    return Status::InvalidArgument("response exceeds the 31-bit frame limit");
  }
  Bytes frame;
  frame.reserve(kFrameHeaderLen + frame_len);
  frame.resize(kFrameHeaderLen + kResponsePrefix);
  StoreLE32(static_cast<uint32_t>(frame_len) | kFrameIdFlag, frame.data());
  StoreLE32(request_id, frame.data() + 4);
  for (int i = 0; i < 8; ++i) {
    frame[kFrameHeaderLen + i] =
        static_cast<uint8_t>(server_nanos >> (8 * i));
  }
  frame[kFrameHeaderLen + 8] = ok ? 1 : 0;
  frame.insert(frame.end(), body, body + body_len);
  return frame;
}

/// An error response frame carrying `message`.
Bytes EncodeErrorFrame(uint32_t request_id, uint64_t server_nanos,
                       const std::string& message) {
  BinaryWriter text;
  text.WriteString(message);
  Result<Bytes> frame = EncodeResponseFrame(
      request_id, server_nanos, false, text.buffer().data(), text.size());
  if (frame.ok()) return std::move(*frame);
  return EncodeErrorFrame(request_id, server_nanos,
                          "error text exceeds the 31-bit frame limit");
}

/// Reads a frame header in place from p[0..avail): fills the request id
/// and body length. Returns false when more bytes are needed, an error on
/// protocol violations (no id flag, a body past `max_len`, id 0), which
/// are decided as soon as the bytes that show them have arrived.
Result<bool> ParseFrameHeader(const uint8_t* p, size_t avail, size_t max_len,
                              uint32_t* request_id, uint32_t* len) {
  if (avail < 4) return false;
  const uint32_t raw = LoadLE32(p);
  if ((raw & kFrameIdFlag) == 0) {
    return Status::NetworkError("frame header without the request-id flag");
  }
  *len = raw & ~kFrameIdFlag;
  if (*len > max_len) {
    return Status::NetworkError("frame length " + std::to_string(*len) +
                                " exceeds limit");
  }
  if (avail < kFrameHeaderLen) return false;
  *request_id = LoadLE32(p + 4);
  if (*request_id == 0) {
    return Status::NetworkError("frame with request id 0");
  }
  return true;
}

/// Drops the consumed prefix of a parse buffer (amortized: only when
/// fully drained or the dead prefix is large).
void CompactBuffer(Bytes* buf, size_t* off) {
  if (*off == buf->size()) {
    buf->clear();
    *off = 0;
  } else if (*off > (1u << 20)) {
    buf->erase(buf->begin(), buf->begin() + static_cast<ptrdiff_t>(*off));
    *off = 0;
  }
}

Status SetNonBlocking(int fd) {
  // The engine only ever toggles to nonblocking, so O_NONBLOCK via
  // fcntl-free SOCK_NONBLOCK covers accepted fds; this covers listen.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::NetworkError(std::string("fcntl failed: ") +
                                std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace

Status WriteFrame(int fd, uint32_t request_id, const Bytes& payload) {
  if (request_id == 0) {
    return Status::InvalidArgument("frames need a nonzero request id");
  }
  // One contiguous buffer so a frame usually leaves in a single send.
  Bytes frame;
  frame.reserve(kFrameHeaderLen + payload.size());
  SIMCLOUD_RETURN_NOT_OK(AppendFrame(request_id, payload, &frame));
  return WriteAll(fd, frame.data(), frame.size());
}

Result<DecodedFrame> ReadFrame(int fd, size_t max_len) {
  uint8_t header[kFrameHeaderLen];
  SIMCLOUD_RETURN_NOT_OK(ReadAll(fd, header, kFrameHeaderLen));
  DecodedFrame frame;
  uint32_t len = 0;
  SIMCLOUD_RETURN_NOT_OK(ParseFrameHeader(header, kFrameHeaderLen, max_len,
                                          &frame.request_id, &len)
                             .status());
  frame.payload.resize(len);
  SIMCLOUD_RETURN_NOT_OK(ReadAll(fd, frame.payload.data(), len));
  return frame;
}

// ---------------------------------------------------------------------------
// TcpServer
// ---------------------------------------------------------------------------

TcpServer::~TcpServer() { Stop(); }

Status TcpServer::Start(uint16_t port) {
  if (started_) {
    return Status::FailedPrecondition("TcpServer cannot be restarted");
  }
  if (options_.worker_threads == 0) options_.worker_threads = 1;
  options_.max_frame_bytes =
      std::min<size_t>(options_.max_frame_bytes, kMaxFrameLength);
  if (options_.channel_policy == ChannelPolicy::kSecure) {
    if (options_.secure_channel.psk.size() < 16) {
      return Status::InvalidArgument(
          "secure channel policy needs a PSK of >= 16 bytes");
    }
    // A record carries at most one max-size frame from our clients, but
    // foreign stacks may pack differently; admit any record whose
    // plaintext could fit a legal frame.
    options_.secure_channel.max_record_bytes =
        options_.max_frame_bytes + 8 + SecureChannel::kSealOverhead;
  }

  // On any setup failure every fd opened so far is closed: a failed
  // Start leaves no bound port or leaked descriptor behind.
  auto fail = [this](const std::string& what) {
    Status status =
        Status::NetworkError(what + " failed: " + std::strerror(errno));
    engine_.reset();
    for (int* fd : {&listen_fd_, &wake_fd_}) {
      if (*fd >= 0) {
        ::close(*fd);
        *fd = -1;
      }
    }
    return status;
  };

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return fail("bind");
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) < 0) {
    return fail("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 1024) < 0) return fail("listen");
  if (!SetNonBlocking(listen_fd_).ok()) return fail("fcntl");

  Result<std::unique_ptr<EventEngine>> engine = EventEngine::Create();
  if (!engine.ok()) return fail("event engine setup");
  engine_ = std::move(*engine);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) return fail("eventfd");
  if (!engine_->Add(listen_fd_, kListenTag, EPOLLIN).ok()) {
    return fail("register(listen)");
  }
  if (!engine_->Add(wake_fd_, kWakeTag, EPOLLIN).ok()) {
    return fail("register(wake)");
  }
  SIMCLOUD_LOG(kInfo) << obs::RuntimeBanner(
      "TcpServer",
      "127.0.0.1:" + std::to_string(port_) + " policy=" +
          (options_.channel_policy == ChannelPolicy::kSecure ? "secure"
                                                             : "plaintext"));

  started_ = true;
  running_.store(true);
  workers_.reserve(options_.worker_threads);
  for (size_t i = 0; i < options_.worker_threads; ++i) {
    workers_.emplace_back(&TcpServer::WorkerLoop, this);
  }
  loop_thread_ = std::thread(&TcpServer::EventLoop, this);
  return Status::OK();
}

// Push sink handed to handlers (change streams). Thread-safe; valid for
// the life of the handler-side subscription, which may outlive both the
// connection and the server's run — hence everything flows through the
// shared_ptr'd ConnShared, never a bare Connection*. While `open` is
// observed true under ConnShared::mutex the server object is guaranteed
// alive: the loop thread flips it in CloseConnection under the same
// mutex, and every connection is closed before Stop() finishes joining
// the loop.
class TcpServer::ConnPushSink : public PushSink {
 public:
  ConnPushSink(std::shared_ptr<ConnShared> shared, uint32_t id)
      : shared_(std::move(shared)), id_(id) {}

  Status TryPush(const Bytes& payload) override {
    // Framed exactly like a pipelined response (u64 server_nanos — zero,
    // no handler ran — ok flag, payload) so the client parses pushes and
    // responses with one decoder, and secure connections seal them like
    // any response burst.
    Result<Bytes> encoded =
        EncodeResponseFrame(id_, 0, true, payload.data(), payload.size());
    if (!encoded.ok()) {
      return Status::InvalidArgument("push exceeds the 31-bit frame limit");
    }
    Bytes frame = std::move(*encoded);

    std::lock_guard<std::mutex> open_lock(shared_->mutex);
    if (!shared_->open) {
      return Status::NetworkError("push on a closed connection");
    }
    TcpServer* server = shared_->server;
    // Backpressure: pushes count against the connection's bounded output
    // queue from enqueue time (queued bytes the loop knows about plus
    // pushes it has not drained yet). A never-reading watcher parks here
    // at the bound; other connections are untouched.
    const size_t queued = shared_->queued_out_bytes.load() +
                          shared_->pending_push_bytes.load();
    if (queued >= server->options_.max_output_queue_bytes) {
      return Status::FailedPrecondition(
          "connection output queue at max_output_queue_bytes");
    }
    shared_->pending_push_bytes.fetch_add(frame.size());
    {
      std::lock_guard<std::mutex> done_lock(server->done_mutex_);
      if (server->done_closed_) {
        shared_->pending_push_bytes.fetch_sub(frame.size());
        return Status::NetworkError("server stopped");
      }
      Completion completion;
      completion.gen = shared_->gen;
      completion.push = true;
      completion.frame = std::move(frame);
      server->done_queue_.push_back(std::move(completion));
      // Wake while still holding done_mutex_: Stop() sets done_closed_
      // under the same mutex before closing the wake fd, so this write
      // can never hit a closed (or recycled) descriptor.
      server->WakeLoop();
    }
    return Status::OK();
  }

 private:
  std::shared_ptr<ConnShared> shared_;
  const uint32_t id_;
};

class TcpServer::ConnStreamContext : public StreamContext {
 public:
  ConnStreamContext(std::shared_ptr<ConnShared> shared, uint32_t id,
                    uint64_t gen, obs::TraceSpan* span)
      : shared_(std::move(shared)), id_(id), gen_(gen), span_(span) {}
  std::shared_ptr<PushSink> MakeSink() override {
    return std::make_shared<ConnPushSink>(shared_, id_);
  }
  uint64_t connection_id() const override { return gen_; }
  obs::TraceSpan* trace() const override { return span_; }

 private:
  std::shared_ptr<ConnShared> shared_;
  const uint32_t id_;
  const uint64_t gen_;
  obs::TraceSpan* const span_;
};

void TcpServer::Stop() {
  if (!started_) return;
  if (running_.exchange(false)) WakeLoop();
  if (loop_thread_.joinable()) loop_thread_.join();
  {
    std::lock_guard<std::mutex> lock(work_mutex_);
    workers_stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  {
    // After this flag no push sink touches the wake fd (see ConnPushSink);
    // only then is closing it safe against fd recycling.
    std::lock_guard<std::mutex> lock(done_mutex_);
    done_closed_ = true;
  }
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
  engine_.reset();
}

void TcpServer::WakeLoop() {
  // Coalesced: one eventfd write per burst. If the flag is already set
  // the loop has a wake-up it has not consumed yet — it will clear the
  // flag BEFORE draining the completion queue, so anything pushed
  // before this exchange is picked up by that drain.
  if (wake_pending_.exchange(true)) return;
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void TcpServer::EventLoop() {
  std::vector<EventEngine::Event> events;
  while (running_.load()) {
    const Status wait_status = engine_->Wait(&events);
    if (!wait_status.ok()) {
      SIMCLOUD_LOG(kWarn) << "event wait failed: " << wait_status.message();
      break;
    }
    for (size_t i = 0; i < events.size() && running_.load(); ++i) {
      const uint64_t tag = events[i].tag;
      if (tag == kListenTag) {
        AcceptNewConnections();
        continue;
      }
      if (tag == kWakeTag) {
        uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        wake_pending_.store(false);  // before the drain — see WakeLoop
        DrainCompletions();
        continue;
      }
      // A completion earlier in this batch may have closed the
      // connection; the generation lookup makes stale events harmless.
      auto it = connections_.find(tag);
      if (it == connections_.end()) continue;
      Connection* conn = it->second.get();
      if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
        CloseConnection(conn);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0 && !FlushOutput(conn)) {
        CloseConnection(conn);
        continue;
      }
      if ((events[i].events & (EPOLLIN | EPOLLRDHUP)) != 0 &&
          !ReadFromConnection(conn)) {
        CloseConnection(conn);
        continue;
      }
      UpdateConnection(conn);
    }
  }
  // Teardown: drop every connection; workers may still be finishing
  // handler calls — their completions land in done_queue_ and are never
  // delivered, which is fine, nothing references the dead connections.
  // The wake fd and the engine stay open until Stop() has joined the
  // workers: a worker's WakeLoop() after a close here could hit a
  // recycled fd number.
  std::vector<Connection*> open;
  open.reserve(connections_.size());
  for (auto& [gen, conn] : connections_) open.push_back(conn.get());
  for (Connection* conn : open) CloseConnection(conn);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void TcpServer::AcceptNewConnections() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK && running_.load()) {
        SIMCLOUD_LOG(kWarn) << "accept failed: " << std::strerror(errno);
        // The pending connection was not consumed (EMFILE & co.), so the
        // level-triggered listen fd would re-fire immediately; back off
        // briefly instead of spinning the loop at 100% CPU.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      return;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections_accepted_.fetch_add(1);

    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->gen = next_gen_++;
    conn->shared = std::make_shared<ConnShared>();
    conn->shared->server = this;
    conn->shared->gen = conn->gen;
    if (options_.channel_policy == ChannelPolicy::kSecure) {
      conn->handshake =
          std::make_unique<ServerHandshake>(options_.secure_channel);
      if (obs::MetricsEnabled()) conn->accept_nanos = obs::MonotonicNanos();
    }
    conn->interest = EPOLLIN | EPOLLRDHUP;
    const Status add_status = engine_->Add(fd, conn->gen, conn->interest);
    if (!add_status.ok()) {
      SIMCLOUD_LOG(kWarn) << "engine add failed: " << add_status.message();
      ::close(fd);
      continue;
    }
    connections_.emplace(conn->gen, std::move(conn));
    active_connections_.fetch_add(1);
    ConnectionsGauge()->Add(1);
  }
}

bool TcpServer::ReadFromConnection(Connection* conn) {
  // One loop-owned scratch buffer: receiving there and appending only
  // the bytes actually read avoids zero-initializing a fresh vector
  // tail on every recv (a pure memset tax for small frames).
  static thread_local std::vector<uint8_t> scratch(kReadChunk);
  // Secure connections receive raw handshake/record bytes; DecryptIncoming
  // moves their plaintext into `in` before the frame parser runs.
  Bytes& sink =
      options_.channel_policy == ChannelPolicy::kSecure ? conn->raw : conn->in;
  size_t read_this_event = 0;
  while (read_this_event < kMaxReadPerEvent) {
    const ssize_t n = ::recv(conn->fd, scratch.data(), scratch.size(), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;
    }
    if (n == 0) {
      conn->read_eof = true;
      return true;
    }
    sink.insert(sink.end(), scratch.data(), scratch.data() + n);
    read_this_event += static_cast<size_t>(n);
    if (static_cast<size_t>(n) < scratch.size()) return true;
  }
  return true;  // level-triggered epoll re-fires for the rest
}

bool TcpServer::DecryptIncoming(Connection* conn) {
  if (!conn->handshake && !conn->channel) return true;  // plaintext wire
  if (conn->handshake) {
    Bytes reply;
    Result<size_t> advanced = conn->handshake->Consume(
        conn->raw.data() + conn->raw_off, conn->raw.size() - conn->raw_off,
        &reply);
    if (!advanced.ok()) {
      // Downgrade attempt (plaintext client), wrong PSK, or a
      // malformed handshake: hard-close without answering.
      SIMCLOUD_LOG(kWarn) << "secure handshake rejected: "
                          << advanced.status().message();
      return false;
    }
    conn->raw_off += *advanced;
    if (!reply.empty()) {
      conn->out_bytes += reply.size();
      conn->out.push_back(std::move(reply));
    }
    if (conn->handshake->done()) {
      conn->channel = conn->handshake->TakeChannel();
      conn->handshake.reset();
      handshakes_completed_.fetch_add(1);
      if (conn->accept_nanos != 0) {
        ServerHandshakeHistogram()->Record(obs::MonotonicNanos() -
                                           conn->accept_nanos);
      }
    }
  }
  if (conn->channel) {
    size_t consumed = 0;
    Status opened = conn->channel->Ingest(
        conn->raw.data() + conn->raw_off, conn->raw.size() - conn->raw_off,
        &consumed, &conn->in);
    conn->raw_off += consumed;
    if (!opened.ok()) return false;  // tampered/replayed record: close
  }
  CompactBuffer(&conn->raw, &conn->raw_off);
  return true;
}

bool TcpServer::ParseFrames(Connection* conn) {
  for (;;) {
    const size_t avail = conn->in.size() - conn->in_off;
    const uint8_t* p = conn->in.data() + conn->in_off;
    uint32_t id = 0;
    uint32_t len = 0;
    Result<bool> header =
        ParseFrameHeader(p, avail, options_.max_frame_bytes, &id, &len);
    if (!header.ok()) return false;  // protocol violation: close
    if (!*header) break;
    if (avail < kFrameHeaderLen + len) break;  // frame still arriving
    if (conn->in_flight >= options_.max_in_flight) break;
    if (conn->out_bytes >= options_.max_output_queue_bytes) break;

    WorkItem item;
    item.gen = conn->gen;
    item.id = id;
    item.shared = conn->shared;
    item.body.assign(p + kFrameHeaderLen, p + kFrameHeaderLen + len);
    if (obs::TracingActive()) item.enqueue_nanos = obs::MonotonicNanos();
    conn->in_off += kFrameHeaderLen + len;
    conn->in_flight++;
    frames_dispatched_.fetch_add(1);
    {
      std::lock_guard<std::mutex> lock(work_mutex_);
      work_queue_.push_back(std::move(item));
    }
    work_cv_.notify_one();
  }
  CompactBuffer(&conn->in, &conn->in_off);
  return true;
}

bool TcpServer::FlushOutput(Connection* conn) {
  while (!conn->out.empty()) {
    // Gather queued frames so a burst of pipelined responses leaves in
    // one syscall (sendmsg rather than writev for MSG_NOSIGNAL).
    constexpr int kMaxIov = 16;
    iovec iov[kMaxIov];
    int iov_count = 0;
    size_t offset = conn->out_off;
    for (auto it = conn->out.begin();
         it != conn->out.end() && iov_count < kMaxIov; ++it) {
      iov[iov_count].iov_base = const_cast<uint8_t*>(it->data() + offset);
      iov[iov_count].iov_len = it->size() - offset;
      offset = 0;
      ++iov_count;
    }
    msghdr message{};
    message.msg_iov = iov;
    message.msg_iovlen = iov_count;
    const ssize_t n = ::sendmsg(conn->fd, &message, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;
    }
    conn->out_bytes -= static_cast<size_t>(n);
    size_t written = static_cast<size_t>(n);
    while (written > 0) {
      const size_t front_left = conn->out.front().size() - conn->out_off;
      if (written >= front_left) {
        written -= front_left;
        conn->out.pop_front();
        conn->out_off = 0;
      } else {
        conn->out_off += written;
        written = 0;
      }
    }
  }
  return true;
}

bool TcpServer::UpdateConnection(Connection* conn) {
  // Parse and flush to a fixed point: flushing can free output-queue
  // budget that ParseFrames was blocked on, and the socket — already
  // read empty — would never deliver another event to retry, stranding
  // complete frames in the input buffer. Terminates because within this
  // loop out_bytes only shrinks (completions arrive via the loop
  // thread, not here) and the buffered frames are finite.
  for (;;) {
    const uint64_t dispatched_before =
        frames_dispatched_.load(std::memory_order_relaxed);
    if (!DecryptIncoming(conn)) {
      CloseConnection(conn);
      return false;
    }
    if (!ParseFrames(conn)) {
      CloseConnection(conn);
      return false;
    }
    const bool was_over_bound =
        conn->out_bytes >= options_.max_output_queue_bytes;
    if (!FlushOutput(conn)) {
      CloseConnection(conn);
      return false;
    }
    const bool parsed = frames_dispatched_.load(std::memory_order_relaxed) !=
                        dispatched_before;
    const bool freed_budget =
        was_over_bound &&
        conn->out_bytes < options_.max_output_queue_bytes;
    if (!parsed && !freed_budget) break;
  }
  conn->shared->queued_out_bytes.store(conn->out_bytes);
  const bool drained = conn->out.empty() && conn->in_flight == 0;
  if (conn->read_eof && drained) {
    // Peer finished sending and every accepted request is answered; any
    // torn trailing bytes are simply dropped with the connection.
    CloseConnection(conn);
    return false;
  }
  // After EOF the socket would report EPOLLRDHUP forever; progress now
  // comes from worker completions, so stop listening for read events.
  uint32_t want =
      conn->read_eof ? 0u : static_cast<uint32_t>(EPOLLRDHUP);
  const bool backpressured =
      conn->in_flight >= options_.max_in_flight ||
      conn->out_bytes >= options_.max_output_queue_bytes;
  if (!conn->read_eof && !backpressured) {
    want |= EPOLLIN;
  }
  if (!conn->out.empty()) want |= EPOLLOUT;
  if (want != conn->interest) {
    if ((conn->interest & EPOLLIN) != 0 && (want & EPOLLIN) == 0 &&
        backpressured) {
      reads_paused_.fetch_add(1);
      ReadPausesCounter()->Add(1);
    }
    if (!engine_->Modify(conn->fd, conn->gen, want).ok()) {
      CloseConnection(conn);
      return false;
    }
    conn->interest = want;
  }
  return true;
}

void TcpServer::CloseConnection(Connection* conn) {
  {
    // Under the shared mutex: a sink mid-TryPush either completed its
    // enqueue before this (frame dropped with the connection) or sees
    // the closed flag. After this block no sink references the server.
    std::lock_guard<std::mutex> lock(conn->shared->mutex);
    conn->shared->open = false;
  }
  engine_->Remove(conn->fd);  // before close: the fd number may be reused
  ::close(conn->fd);
  active_connections_.fetch_sub(1);
  ConnectionsGauge()->Add(-1);
  // Eager per-connection state reap (open cursors, watches). On the loop
  // thread, so handlers must keep the hook non-blocking.
  handler_->OnConnectionClosed(conn->gen);
  connections_.erase(conn->gen);  // frees conn
}

void TcpServer::RecordPeakOutput(const Connection* conn) {
  uint64_t peak = peak_output_queue_bytes_.load();
  while (conn->out_bytes > peak &&
         !peak_output_queue_bytes_.compare_exchange_weak(peak,
                                                         conn->out_bytes)) {
  }
  PeakOutputQueueGauge()->Set(
      static_cast<int64_t>(peak_output_queue_bytes_.load()));
}

void TcpServer::DrainCompletions() {
  std::vector<Completion> done;
  {
    std::lock_guard<std::mutex> lock(done_mutex_);
    done.swap(done_queue_);
  }
  // Queue every completed response first, then flush each touched
  // connection once: a burst of pipelined completions leaves in one
  // send instead of one per response.
  std::vector<uint64_t> touched;
  // Secure connections: a burst of responses for one connection is
  // sealed as ONE byte stream (the record layer carries a stream, not
  // frames), so the per-record AEAD cost — two SHA-256 passes plus
  // AES-CTR — is paid once per burst instead of once per response.
  // `pending_seal` collects each connection's frames within this drain,
  // in queue order; they are copied once, into the records themselves.
  std::unordered_map<uint64_t, std::vector<Bytes>> pending_seal;
  for (Completion& completion : done) {
    auto it = connections_.find(completion.gen);
    if (it == connections_.end()) continue;  // connection closed meanwhile
    Connection* conn = it->second.get();
    if (completion.push) {
      // A push answers no dispatched request: in_flight is untouched and
      // the bytes move from the sink's pending count into the output
      // queue proper (mirrored below via UpdateConnection).
      conn->shared->pending_push_bytes.fetch_sub(completion.frame.size());
    } else {
      conn->in_flight--;
    }
    if (conn->channel) {
      pending_seal[completion.gen].push_back(std::move(completion.frame));
      touched.push_back(completion.gen);
      continue;
    }
    conn->out_bytes += completion.frame.size();
    conn->out.push_back(std::move(completion.frame));
    RecordPeakOutput(conn);
    touched.push_back(completion.gen);
  }
  for (auto& [gen, frames] : pending_seal) {
    auto it = connections_.find(gen);
    if (it == connections_.end()) continue;
    Connection* conn = it->second.get();
    // Sealing on the loop thread keeps the record sequence identical to
    // the queue order (the channel is loop-owned, like `out`). Large
    // bursts are split into ~1 MiB records — the record layer is a byte
    // stream, so even mid-frame split points are legal — bounding every
    // receiver's record buffer.
    constexpr size_t kSealChunk = 1u << 20;
    size_t burst = 0;
    for (const Bytes& frame : frames) burst += frame.size();
    size_t frame_index = 0;
    size_t frame_off = 0;
    for (size_t off = 0; off < burst; off += kSealChunk) {
      const size_t chunk_len = std::min(kSealChunk, burst - off);
      Bytes record;
      record.reserve(SecureChannel::kSealOverhead + chunk_len);
      record.resize(SecureChannel::kRecordHeadroom);
      for (size_t need = chunk_len; need > 0;) {
        Bytes& frame = frames[frame_index];
        const size_t take = std::min(need, frame.size() - frame_off);
        record.insert(record.end(), frame.data() + frame_off,
                      frame.data() + frame_off + take);
        need -= take;
        frame_off += take;
        if (frame_off == frame.size()) {
          Bytes().swap(frame);  // copied out whole: release it now
          ++frame_index;
          frame_off = 0;
        }
      }
      const Status sealed = conn->channel->SealRecord(&record);
      if (!sealed.ok()) {
        SIMCLOUD_LOG(kWarn) << "sealing a response burst failed: "
                            << sealed.message();
        CloseConnection(conn);
        conn = nullptr;
        break;
      }
      conn->out_bytes += record.size();
      conn->out.push_back(std::move(record));
    }
    if (conn != nullptr) RecordPeakOutput(conn);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (uint64_t gen : touched) {
    auto it = connections_.find(gen);
    if (it != connections_.end()) UpdateConnection(it->second.get());
  }
}

void TcpServer::WorkerLoop() {
  for (;;) {
    WorkItem item;
    {
      std::unique_lock<std::mutex> lock(work_mutex_);
      work_cv_.wait(lock,
                    [this] { return workers_stop_ || !work_queue_.empty(); });
      if (workers_stop_) return;  // queued work is dropped on Stop
      item = std::move(work_queue_.front());
      work_queue_.pop_front();
    }

    // Tracing is free when off: enqueue_nanos is only stamped while
    // TracingActive(), and without it no span work (or clock read beyond
    // the pre-existing Stopwatch) happens on this path.
    const bool traced = item.enqueue_nanos != 0 && obs::TracingActive();
    obs::TraceSpan span;
    if (traced) {
      span.AddStageNanos(obs::Stage::kQueueWait,
                         obs::MonotonicNanos() - item.enqueue_nanos);
      if (!item.body.empty()) span.set_opcode(item.body[0]);
    }

    Stopwatch watch;
    Result<Bytes> response = [&]() -> Result<Bytes> {
      ConnStreamContext stream(item.shared, item.id, item.gen,
                               traced ? &span : nullptr);
      obs::TraceSpan::Scope scope(traced ? &span : nullptr);
      return handler_->HandleStream(item.body, &stream);
    }();
    const int64_t server_nanos = watch.ElapsedNanos();

    const uint64_t seal_start = traced ? obs::MonotonicNanos() : 0;
    // Header, status prefix and response are written once, straight into
    // the completion frame.
    Completion completion;
    completion.gen = item.gen;
    const uint64_t nanos = static_cast<uint64_t>(server_nanos);
    if (response.ok()) {
      Result<Bytes> frame = EncodeResponseFrame(item.id, nanos, true,
                                                response->data(),
                                                response->size());
      completion.frame =
          frame.ok() ? std::move(*frame)
                     : EncodeErrorFrame(item.id, nanos,
                                        frame.status().message());
    } else {
      completion.frame =
          EncodeErrorFrame(item.id, nanos, response.status().ToString());
    }

    if (traced) {
      // Worker-side framing cost; the secure policy's per-burst Seal on
      // the loop thread is not attributable per-request and is excluded
      // (a documented approximation of the seal/send stage).
      span.AddStageNanos(obs::Stage::kSealSend,
                         obs::MonotonicNanos() - seal_start);
      obs::FinishRequestSpan(span, static_cast<uint64_t>(server_nanos),
                             kFrameHeaderLen + item.body.size(),
                             completion.frame.size());
    }

    frames_completed_.fetch_add(1);
    {
      std::lock_guard<std::mutex> lock(done_mutex_);
      done_queue_.push_back(std::move(completion));
    }
    WakeLoop();
  }
}

// ---------------------------------------------------------------------------
// TcpTransport
// ---------------------------------------------------------------------------

Result<std::unique_ptr<TcpTransport>> TcpTransport::Connect(
    const std::string& host, uint16_t port, ChannelPolicy policy,
    const SecureChannelOptions& secure) {
  // Every failure names the endpoint: a multi-endpoint caller (the
  // sharded facade, the topology monitor) must be able to tell WHICH
  // peer refused from the Status alone.
  const std::string peer = host + ":" + std::to_string(port);
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::NetworkError("socket for " + peer + " failed: " +
                                std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("invalid IPv4 address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return Status::NetworkError("connect to " + peer + " failed: " +
                                std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  auto transport = std::unique_ptr<TcpTransport>(new TcpTransport(fd, peer));
  if (policy == ChannelPolicy::kSecure) {
    Result<std::unique_ptr<SecureChannel>> channel =
        RunClientHandshake(fd, secure);
    if (!channel.ok()) {  // dtor closes fd
      if (channel.status().code() == StatusCode::kNetworkError) {
        return Status::NetworkError("secure handshake with " + peer +
                                    " failed: " + channel.status().message());
      }
      return channel.status();  // e.g. PermissionDenied: wrong PSK
    }
    transport->channel_ = std::move(*channel);
  }
  return transport;
}

TcpTransport::~TcpTransport() {
  if (fd_ >= 0) ::close(fd_);
}

void TcpTransport::MarkBroken(const Status& reason) {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (broken_.ok()) broken_ = reason;
  }
  // Wake the elected reader too: a collector parked inside recv() would
  // otherwise survive a write-side failure until its own I/O noticed
  // (possibly never, on a quiet stream). shutdown() is orderly — queued
  // bytes still flush, then FIN — and makes every blocked or future
  // socket op return immediately.
  ::shutdown(fd_, SHUT_RDWR);
  state_cv_.notify_all();
}

void TcpTransport::Abort(const Status& reason) {
  MarkBroken(reason.ok() ? Status::NetworkError("transport aborted")
                         : reason);
}

Status TcpTransport::stream_status() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return broken_;
}

void TcpTransport::ResetCosts() {
  std::lock_guard<std::mutex> lock(costs_mutex_);
  costs_.Clear();
}

Status TcpTransport::SubmitFrame(const Bytes& request, uint32_t id) {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    SIMCLOUD_RETURN_NOT_OK(broken_);
    outstanding_.insert(id);
  }
  Status written;
  {
    // Whole-frame writes are serialized so concurrent submitters can
    // never interleave bytes inside each other's frames (and, on a
    // secure channel, so records leave in sealing order).
    std::lock_guard<std::mutex> lock(write_mutex_);
    if (channel_) {
      written = [&]() -> Status {
        // The frame is built inside the record buffer and sealed there:
        // the request is copied once.
        Bytes record;
        record.reserve(SecureChannel::kSealOverhead + 8 + request.size());
        record.resize(SecureChannel::kRecordHeadroom);
        SIMCLOUD_RETURN_NOT_OK(AppendFrame(id, request, &record));
        SIMCLOUD_RETURN_NOT_OK(channel_->SealRecord(&record));
        return WriteAll(fd_, record.data(), record.size());
      }();
    } else {
      written = WriteFrame(fd_, id, request);
    }
  }
  if (!written.ok()) {
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      outstanding_.erase(id);
    }
    // A failed write is a dead stream: fail every parked collector now
    // (including one blocked in recv() as the elected reader) instead of
    // leaving them to discover it from their own I/O.
    MarkBroken(written);
    return written;
  }
  std::lock_guard<std::mutex> lock(costs_mutex_);
  costs_.calls++;
  costs_.bytes_sent += request.size();
  return Status::OK();
}

namespace {

/// Blocks until `fd` is readable or `deadline` passes (null = forever).
Status WaitReadable(int fd, const std::chrono::steady_clock::time_point* deadline) {
  if (deadline == nullptr) return Status::OK();
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= *deadline) {
      return Status::DeadlineExceeded("no response within the deadline");
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          *deadline - now)
                          .count();
    pollfd pfd{fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(std::max<int64_t>(left, 1)));
    if (rc > 0) return Status::OK();  // readable (or error — recv reports it)
    if (rc < 0 && errno != EINTR) {
      return Status::NetworkError(std::string("poll failed: ") +
                                  std::strerror(errno));
    }
  }
}

}  // namespace

Status TcpTransport::ParseResponseBody(const uint8_t* body, size_t len,
                                       ReadyResponse* ready) {
  BinaryReader reader(body, len);
  SIMCLOUD_ASSIGN_OR_RETURN(uint64_t server_nanos, reader.ReadU64());
  SIMCLOUD_ASSIGN_OR_RETURN(bool ok, reader.ReadBool());
  ready->server_nanos = static_cast<int64_t>(server_nanos);
  if (ok) {
    ready->payload = Bytes(body + reader.position(), body + len);
  } else {
    SIMCLOUD_ASSIGN_OR_RETURN(std::string message, reader.ReadString());
    ready->payload = Status::NetworkError("remote error: " + message);
  }
  return Status::OK();
}

Status TcpTransport::ReadSecureFrame(
    const std::chrono::steady_clock::time_point* deadline,
    uint32_t* request_id, ReadyResponse* ready, size_t* body_len) {
  // Records are received straight into recv_raw_'s tail and opened in
  // place there; only their plaintext is appended to recv_plain_, and a
  // complete frame's payload is copied out of recv_plain_ once.
  // recv_raw_ is used as a buffer: [recv_raw_off_, recv_raw_end_) holds
  // received bytes not yet opened, and the rest is free space.
  constexpr size_t kRecvChunk = 256 * 1024;
  for (;;) {
    const uint8_t* p = recv_plain_.data() + recv_plain_off_;
    const size_t avail = recv_plain_.size() - recv_plain_off_;
    uint32_t len = 0;
    SIMCLOUD_ASSIGN_OR_RETURN(
        bool have_header,
        ParseFrameHeader(p, avail, kMaxFrameLength, request_id, &len));
    if (have_header && avail >= kFrameHeaderLen + len) {
      SIMCLOUD_RETURN_NOT_OK(
          ParseResponseBody(p + kFrameHeaderLen, len, ready));
      *body_len = len;
      recv_plain_off_ += kFrameHeaderLen + len;
      CompactBuffer(&recv_plain_, &recv_plain_off_);
      return Status::OK();
    }
    // Need more plaintext. Read up to the end of the record in flight
    // when its header is here — a record that completes at the buffer's
    // end leaves nothing to move — else a chunk, which may carry several
    // small records.
    if (recv_raw_off_ == recv_raw_end_) recv_raw_off_ = recv_raw_end_ = 0;
    size_t want = kRecvChunk;
    const size_t pending = recv_raw_end_ - recv_raw_off_;
    if (pending >= SecureChannel::kRecordHeaderSize) {
      // Ingest already vetted this length against max_record_bytes; the
      // read size stays bounded so a huge declared record still only
      // grows the buffer by bytes that actually arrive.
      const size_t record = SecureChannel::kRecordHeaderSize +
                            LoadLE32(recv_raw_.data() + recv_raw_off_);
      want = std::min(record - pending, 4 * kRecvChunk);
    }
    if (recv_raw_.size() - recv_raw_end_ < want) {
      if (recv_raw_off_ > 0) {
        // Move the one partial record to the front.
        std::memmove(recv_raw_.data(), recv_raw_.data() + recv_raw_off_,
                     pending);
        recv_raw_off_ = 0;
        recv_raw_end_ = pending;
      }
      if (recv_raw_.size() - recv_raw_end_ < want) {
        recv_raw_.resize(recv_raw_end_ + want);
      }
    }
    SIMCLOUD_RETURN_NOT_OK(WaitReadable(fd_, deadline));
    const ssize_t n = ::recv(fd_, recv_raw_.data() + recv_raw_end_, want, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::NetworkError(std::string("recv failed: ") +
                                  std::strerror(errno));
    }
    if (n == 0) return Status::NetworkError("peer closed connection");
    recv_raw_end_ += static_cast<size_t>(n);
    size_t consumed = 0;
    SIMCLOUD_RETURN_NOT_OK(channel_->Ingest(
        recv_raw_.data() + recv_raw_off_, recv_raw_end_ - recv_raw_off_,
        &consumed, &recv_plain_));
    recv_raw_off_ += consumed;
  }
}

Status TcpTransport::ReadOneResponse(
    const std::chrono::steady_clock::time_point* deadline) {
  uint32_t request_id = 0;
  ReadyResponse ready;
  size_t body_len = 0;
  if (channel_) {
    SIMCLOUD_RETURN_NOT_OK(
        ReadSecureFrame(deadline, &request_id, &ready, &body_len));
  } else {
    // The deadline bounds the wait for a frame to START arriving; once
    // bytes flow, the frame is read to completion (peers send frames
    // whole, so the tail follows promptly or the stream is dead anyway).
    SIMCLOUD_RETURN_NOT_OK(WaitReadable(fd_, deadline));
    SIMCLOUD_ASSIGN_OR_RETURN(DecodedFrame frame, ReadFrame(fd_));
    SIMCLOUD_RETURN_NOT_OK(ParseResponseBody(
        frame.payload.data(), frame.payload.size(), &ready));
    request_id = frame.request_id;
    body_len = frame.payload.size();
  }
  {
    std::lock_guard<std::mutex> lock(costs_mutex_);
    costs_.bytes_received += body_len;
    costs_.server_nanos += ready.server_nanos;
  }
  std::lock_guard<std::mutex> lock(state_mutex_);
  if (streaming_.count(request_id) != 0) {
    // Stream frame: many frames share this id, so it stays outstanding
    // and arrivals queue in order for CollectStream.
    stream_ready_[request_id].push_back(std::move(ready));
    return Status::OK();
  }
  if (closed_streams_.count(request_id) != 0) {
    return Status::OK();  // late frame for an abandoned stream: drop
  }
  if (outstanding_.erase(request_id) == 0) {
    return Status::NetworkError("response for unknown request id " +
                                std::to_string(request_id));
  }
  ready_.emplace(request_id, std::move(ready));
  return Status::OK();
}

Result<TcpTransport::ReadyResponse> TcpTransport::AwaitResponse(
    uint32_t id, const std::chrono::steady_clock::time_point* deadline) {
  std::unique_lock<std::mutex> lock(state_mutex_);
  for (;;) {
    auto it = ready_.find(id);
    if (it != ready_.end()) {
      ReadyResponse response = std::move(it->second);
      ready_.erase(it);
      return response;
    }
    if (!broken_.ok()) return broken_;
    if (outstanding_.count(id) == 0) {
      return Status::InvalidArgument("unknown or already-collected ticket " +
                                     std::to_string(id));
    }
    if (deadline != nullptr && std::chrono::steady_clock::now() >= *deadline) {
      // The ticket stays outstanding: a late response is still routable
      // (and collectable), and the stream is not poisoned — the caller
      // decides whether a timeout is fatal (Abort) or a soft signal.
      return Status::DeadlineExceeded("no response for ticket " +
                                      std::to_string(id) +
                                      " within the deadline");
    }
    if (reader_active_) {
      // Another collector is reading the socket; it will publish our
      // response (or the stream failure) and notify.
      if (deadline != nullptr) {
        state_cv_.wait_until(lock, *deadline);
      } else {
        state_cv_.wait(lock);
      }
      continue;
    }
    reader_active_ = true;
    lock.unlock();
    Status read = ReadOneResponse(deadline);
    lock.lock();
    reader_active_ = false;
    state_cv_.notify_all();
    if (read.code() == StatusCode::kDeadlineExceeded) {
      return read;  // soft timeout: stream untouched, ticket outstanding
    }
    if (!read.ok() && broken_.ok()) {
      // Poison the stream and force the socket down so every OTHER
      // parked collector (and any blocked writer) fails promptly too.
      lock.unlock();
      MarkBroken(read);
      lock.lock();
    }
  }
}

uint32_t TcpTransport::NextId() {
  std::lock_guard<std::mutex> lock(write_mutex_);
  const uint32_t id = next_id_;
  next_id_ = next_id_ == 0xFFFFFFFFu ? 1 : next_id_ + 1;
  return id;
}

Result<Bytes> TcpTransport::Call(const Bytes& request) {
  // A Submit collected at once, so its wall time minus the server's
  // reported time is this request's communication time.
  Stopwatch watch;
  const uint32_t id = NextId();
  SIMCLOUD_RETURN_NOT_OK(SubmitFrame(request, id));
  SIMCLOUD_ASSIGN_OR_RETURN(ReadyResponse response, AwaitResponse(id));
  const int64_t wall_nanos = watch.ElapsedNanos();
  {
    std::lock_guard<std::mutex> lock(costs_mutex_);
    costs_.communication_nanos +=
        std::max<int64_t>(0, wall_nanos - response.server_nanos);
  }
  return std::move(response.payload);
}

Result<uint64_t> TcpTransport::Submit(const Bytes& request) {
  const uint32_t id = NextId();
  SIMCLOUD_RETURN_NOT_OK(SubmitFrame(request, id));
  return static_cast<uint64_t>(id);
}

Result<Bytes> TcpTransport::Collect(uint64_t ticket) {
  if (ticket == 0 || ticket > 0xFFFFFFFFu) {
    return Status::InvalidArgument("invalid ticket " + std::to_string(ticket));
  }
  SIMCLOUD_ASSIGN_OR_RETURN(ReadyResponse response,
                            AwaitResponse(static_cast<uint32_t>(ticket)));
  // Pipelined round trips overlap, so no wall-time split is attributed;
  // bytes and server time were accounted when the frame was read.
  return std::move(response.payload);
}

Result<uint64_t> TcpTransport::SubmitStream(const Bytes& request) {
  const uint32_t id = NextId();
  {
    // Registered BEFORE the frame is written (like outstanding_ in
    // SubmitFrame): a push racing the registration would otherwise be an
    // unknown id and poison the connection.
    std::lock_guard<std::mutex> lock(state_mutex_);
    streaming_.insert(id);
    closed_streams_.erase(id);  // id numbers wrap; forget old tombstones
  }
  Status written = SubmitFrame(request, id);
  if (!written.ok()) {
    std::lock_guard<std::mutex> lock(state_mutex_);
    streaming_.erase(id);
    stream_ready_.erase(id);
    return written;
  }
  return static_cast<uint64_t>(id);
}

Result<Bytes> TcpTransport::CollectStream(uint64_t ticket, int timeout_ms) {
  if (ticket == 0 || ticket > 0xFFFFFFFFu) {
    return Status::InvalidArgument("invalid ticket " + std::to_string(ticket));
  }
  const uint32_t id = static_cast<uint32_t>(ticket);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  // Same elected-reader dance as AwaitResponse, but popping a queue —
  // a stream ticket yields frames until the caller closes it.
  std::unique_lock<std::mutex> lock(state_mutex_);
  for (;;) {
    auto it = stream_ready_.find(id);
    if (it != stream_ready_.end() && !it->second.empty()) {
      ReadyResponse response = std::move(it->second.front());
      it->second.pop_front();
      return std::move(response.payload);
    }
    if (!broken_.ok()) return broken_;
    if (streaming_.count(id) == 0) {
      return Status::InvalidArgument("unknown or closed stream ticket " +
                                     std::to_string(ticket));
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      // Soft, like CollectFor: the stream stays registered and later
      // frames are still collectable.
      return Status::DeadlineExceeded("no stream frame for ticket " +
                                      std::to_string(ticket) +
                                      " within the deadline");
    }
    if (reader_active_) {
      state_cv_.wait_until(lock, deadline);
      continue;
    }
    reader_active_ = true;
    lock.unlock();
    Status read = ReadOneResponse(&deadline);
    lock.lock();
    reader_active_ = false;
    state_cv_.notify_all();
    if (read.code() == StatusCode::kDeadlineExceeded) {
      return read;
    }
    if (!read.ok() && broken_.ok()) {
      lock.unlock();
      MarkBroken(read);
      lock.lock();
    }
  }
}

void TcpTransport::CloseStream(uint64_t ticket) {
  if (ticket == 0 || ticket > 0xFFFFFFFFu) return;
  const uint32_t id = static_cast<uint32_t>(ticket);
  std::lock_guard<std::mutex> lock(state_mutex_);
  if (streaming_.erase(id) == 0) return;
  stream_ready_.erase(id);
  outstanding_.erase(id);
  // Tombstone: frames the server had already queued when the watch was
  // torn down must not read as unknown-id protocol violations.
  closed_streams_.insert(id);
}

Result<Bytes> TcpTransport::CollectFor(uint64_t ticket, int timeout_ms) {
  if (ticket == 0 || ticket > 0xFFFFFFFFu) {
    return Status::InvalidArgument("invalid ticket " + std::to_string(ticket));
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  SIMCLOUD_ASSIGN_OR_RETURN(
      ReadyResponse response,
      AwaitResponse(static_cast<uint32_t>(ticket), &deadline));
  return std::move(response.payload);
}

}  // namespace net
}  // namespace simcloud
