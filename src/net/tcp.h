// Real TCP client/server for the similarity cloud, mirroring the paper's
// deployment of the encryption client and M-Index server as two processes
// communicating over the loopback interface.
//
// The server is a readiness-driven event engine (epoll — see
// net/event_engine.h): one event-loop thread owns every connection
// (nonblocking sockets, incremental frame reassembly, bounded
// per-connection output queues with read backpressure) and a small
// fixed worker pool executes RequestHandler calls off the loop.
// Thousands of mostly-idle connections therefore cost O(worker pool)
// threads, not O(connections), and one connection can pipeline many
// in-flight requests. See src/net/README.md for the full framing and
// threading contract.
//
// Wire format per frame (little-endian):
//   u32 header  — bit 31 always set; bits 0..30: body length
//   u32 id      — request id, never 0
//   body        — request / response bytes
// A header with bit 31 clear is a protocol violation: the server closes
// the connection before dispatching anything on it. Responses echo the
// request's id. Response bodies additionally carry the server's
// processing time (u64 nanos) and an ok flag before the payload so the
// client can split wall time into server vs. communication components,
// as the paper's tables require.

#ifndef SIMCLOUD_NET_TCP_H_
#define SIMCLOUD_NET_TCP_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "net/event_engine.h"
#include "net/secure_channel.h"
#include "net/transport.h"

namespace simcloud {
namespace net {

/// Frame-header bit every frame carries (the request id follows).
inline constexpr uint32_t kFrameIdFlag = 0x80000000u;
/// Largest body length the 31-bit frame header can express.
inline constexpr uint32_t kMaxFrameLength = 0x7FFFFFFFu;

/// One frame as read off a socket.
struct DecodedFrame {
  uint32_t request_id = 0;  ///< never 0
  Bytes payload;
};

/// Tuning knobs of the event engine. The defaults serve every test and
/// bench in-tree; they exist so robustness tests can shrink the limits.
struct TcpServerOptions {
  /// Handler threads. The event loop never calls the handler itself.
  size_t worker_threads = 4;
  /// Frames whose declared body length exceeds this close the connection
  /// (the buffer only ever grows by bytes actually received, so a hostile
  /// declared length cannot force an allocation).
  size_t max_frame_bytes = 1ull << 30;
  /// Soft bound on queued unsent response bytes per connection. At or
  /// above the bound the engine stops reading (and so stops dispatching)
  /// that connection until the peer drains its responses; other
  /// connections are unaffected. In-flight handlers may still append
  /// their responses, so peak queued bytes can transiently exceed this
  /// by the in-flight responses.
  size_t max_output_queue_bytes = 8u << 20;
  /// Requests of one connection being handled concurrently; further
  /// frames wait in the input buffer.
  size_t max_in_flight = 64;
  /// kSecure: every accepted connection must complete the PSK handshake
  /// (driven on the event loop, never blocking other connections) and
  /// speak AEAD records; plaintext clients are hard-closed.
  /// kPlaintext (default): frames travel unencrypted.
  ChannelPolicy channel_policy = ChannelPolicy::kPlaintext;
  /// PSK + rekey budgets when channel_policy is kSecure (psk required).
  SecureChannelOptions secure_channel;
};

/// Multi-client TCP server: an epoll event loop plus a worker pool.
///
/// The handler is called concurrently from the worker pool and must be
/// safe for concurrent calls (EncryptedMIndexServer and ShardedServer
/// are). Pipelined requests from one connection may be handled — and
/// answered — out of order; clients must not pipeline requests that
/// depend on each other's effects.
class TcpServer {
 public:
  explicit TcpServer(RequestHandler* handler,
                     TcpServerOptions options = TcpServerOptions())
      : handler_(handler), options_(options) {}
  ~TcpServer();

  /// Binds to 127.0.0.1:`port` (0 = pick a free port) and starts serving.
  Status Start(uint16_t port = 0);
  /// Shuts down the listener and all live connections, then joins the
  /// event loop and every worker. Safe to call while clients are still
  /// connected; must not be called from a handler. A stopped server
  /// cannot be restarted.
  void Stop();

  /// Bound port (valid after Start succeeds).
  uint16_t port() const { return port_; }
  /// Connections accepted since Start (live + finished).
  uint64_t connections_accepted() const { return connections_accepted_.load(); }

  /// Engine introspection (tests and benches).
  size_t worker_threads() const { return options_.worker_threads; }
  size_t active_connections() const { return active_connections_.load(); }
  uint64_t frames_dispatched() const { return frames_dispatched_.load(); }
  uint64_t frames_completed() const { return frames_completed_.load(); }
  /// Times a connection's read interest was dropped for backpressure
  /// (output queue at its bound or pipeline at max_in_flight).
  uint64_t reads_paused() const { return reads_paused_.load(); }
  /// Highest queued-output-bytes watermark any connection reached.
  uint64_t peak_output_queue_bytes() const {
    return peak_output_queue_bytes_.load();
  }
  /// Secure handshakes completed since Start (secure policy only).
  uint64_t handshakes_completed() const {
    return handshakes_completed_.load();
  }

 private:
  /// State shared between a loop-owned Connection and the PushSinks
  /// handed to handlers (change streams): a sink may outlive both its
  /// connection and the server's run, so everything it touches lives
  /// here, behind this struct's own mutex/atomics. While `open` is true
  /// (checked under `mutex`) the connection exists and the server is
  /// running — CloseConnection flips it under the same mutex on the loop
  /// thread, and the loop closes every connection before Stop() returns.
  struct ConnShared {
    std::mutex mutex;            ///< guards `open` against teardown
    bool open = true;
    TcpServer* server = nullptr;
    uint64_t gen = 0;
    /// Loop-maintained mirror of Connection::out_bytes, so sinks can
    /// observe the bounded output queue without touching loop state.
    std::atomic<size_t> queued_out_bytes{0};
    /// Push bytes enqueued as completions but not yet drained into the
    /// output queue (they count against the bound from enqueue time, or
    /// a burst of pushes could overshoot it arbitrarily).
    std::atomic<size_t> pending_push_bytes{0};
  };
  class ConnPushSink;       // PushSink over ConnShared (tcp.cc)
  class ConnStreamContext;  // StreamContext minting ConnPushSinks

  struct Connection {
    int fd = -1;
    uint64_t gen = 0;          ///< identity for completion routing
    std::shared_ptr<ConnShared> shared;  ///< see ConnShared
    Bytes in;                  ///< plaintext, not yet parsed bytes
    size_t in_off = 0;         ///< parse offset into `in`
    // Secure policy only: raw wire bytes before handshake/record
    // processing, and the channel state. `in` then holds decrypted
    // plaintext and the frame parser is unchanged.
    Bytes raw;                 ///< undecrypted received bytes
    size_t raw_off = 0;        ///< consume offset into `raw`
    std::unique_ptr<ServerHandshake> handshake;  ///< until complete
    std::unique_ptr<SecureChannel> channel;      ///< open record channel
    std::deque<Bytes> out;     ///< encoded response frames pending write
    size_t out_off = 0;        ///< progress within out.front()
    size_t out_bytes = 0;      ///< total unsent bytes across `out`
    uint32_t in_flight = 0;    ///< requests dispatched, response not queued
    bool read_eof = false;     ///< peer half-closed its write side
    uint32_t interest = 0;     ///< current epoll event mask
    uint64_t accept_nanos = 0;  ///< monotonic accept time (handshake latency)
  };

  struct WorkItem {
    uint64_t gen = 0;
    uint32_t id = 0;
    Bytes body;
    std::shared_ptr<ConnShared> shared;  ///< for minting push sinks
    uint64_t enqueue_nanos = 0;  ///< parse time; 0 when tracing is off
  };

  struct Completion {
    uint64_t gen = 0;
    /// Server-push frame (change streams): not a response to any
    /// dispatched request, so it must not decrement in_flight.
    bool push = false;
    Bytes frame;  ///< fully framed response, ready to write
  };

  void EventLoop();
  void WorkerLoop();
  void WakeLoop();
  void AcceptNewConnections();
  void DrainCompletions();
  /// Raises the peak-output-queue watermark to `conn`'s queued bytes.
  void RecordPeakOutput(const Connection* conn);
  /// Reads available bytes; false = fatal socket state, close now.
  bool ReadFromConnection(Connection* conn);
  /// Secure policy: advances the handshake and/or decrypts complete
  /// records from `raw` into `in`; false = protocol violation (downgrade
  /// attempt, tampered record), close now. No-op for plaintext.
  bool DecryptIncoming(Connection* conn);
  /// Parses and dispatches complete frames; false = protocol violation.
  bool ParseFrames(Connection* conn);
  /// Writes queued frames until EAGAIN; false = fatal write error.
  bool FlushOutput(Connection* conn);
  /// Re-parses, flushes, retires or re-arms the connection.
  /// Returns false when the connection was closed.
  bool UpdateConnection(Connection* conn);
  void CloseConnection(Connection* conn);

  RequestHandler* handler_;
  TcpServerOptions options_;
  int listen_fd_ = -1;
  int wake_fd_ = -1;
  /// Readiness engine (epoll). Owned by the loop thread after Start.
  std::unique_ptr<EventEngine> engine_;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  bool started_ = false;
  std::thread loop_thread_;

  // Event-loop-thread state (no lock: only the loop touches it).
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> connections_;
  uint64_t next_gen_ = 2;  // 0 and 1 tag the listen and wake fds

  // Loop -> workers.
  std::mutex work_mutex_;
  std::condition_variable work_cv_;
  std::deque<WorkItem> work_queue_;
  bool workers_stop_ = false;
  std::vector<std::thread> workers_;

  // Workers -> loop.
  std::mutex done_mutex_;
  std::vector<Completion> done_queue_;
  /// Set by Stop() once the loop and workers are joined: push sinks that
  /// survive the server's run fail cleanly instead of enqueuing into a
  /// dead queue. Guarded by done_mutex_.
  bool done_closed_ = false;
  std::atomic<bool> wake_pending_{false};  ///< coalesces eventfd writes

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<size_t> active_connections_{0};
  std::atomic<uint64_t> frames_dispatched_{0};
  std::atomic<uint64_t> frames_completed_{0};
  std::atomic<uint64_t> reads_paused_{0};
  std::atomic<uint64_t> peak_output_queue_bytes_{0};
  std::atomic<uint64_t> handshakes_completed_{0};
};

/// TCP client transport. Submit() / Collect() pipeline many requests over
/// one connection, each under its own id; Call() is a Submit collected at
/// once. It is no ordering barrier: the server may run a Call before
/// requests Submitted earlier and not yet collected. All of them are safe
/// for concurrent use from multiple threads (ShardedServer fans out over
/// shared persistent connections). Measured wall time minus the
/// server-reported processing time is attributed to communication for
/// Call()s; Submit/Collect round trips overlap, so only their bytes and
/// server time are accounted.
class TcpTransport : public PipelinedTransport {
 public:
  /// Connects to `host`:`port`. With ChannelPolicy::kSecure the PSK
  /// handshake runs (blocking, bounded by secure.handshake_timeout_ms)
  /// before Connect returns, and every frame afterwards travels inside
  /// an AEAD record; the default is the original plaintext wire.
  static Result<std::unique_ptr<TcpTransport>> Connect(
      const std::string& host, uint16_t port,
      ChannelPolicy policy = ChannelPolicy::kPlaintext,
      const SecureChannelOptions& secure = SecureChannelOptions());
  ~TcpTransport() override;

  Result<Bytes> Call(const Bytes& request) override;

  /// Writes one pipelined request frame and returns its ticket without
  /// waiting for the response. The socket write itself is blocking: a
  /// caller that submits an unbounded volume without ever collecting
  /// can fill the kernel buffers while the server's per-connection
  /// in-flight cap has paused its reads, and then blocks here forever.
  /// Keep the un-collected window bounded (every in-tree user pipelines
  /// at most a few dozen requests) or collect from another thread.
  Result<uint64_t> Submit(const Bytes& request) override;
  /// Blocks until the response for `ticket` arrives (responses for other
  /// tickets are buffered for their collectors). Each ticket can be
  /// collected exactly once.
  Result<Bytes> Collect(uint64_t ticket) override;

  /// Streaming (change streams): SubmitStream parks `ticket` so the
  /// server can push many frames on it; CollectStream pops them in
  /// arrival order (DeadlineExceeded after `timeout_ms` with nothing
  /// queued — soft, like CollectFor). CloseStream forgets the id; any
  /// frame arriving on it afterwards is dropped silently, so cancel a
  /// stream server-side and drain it BEFORE closing.
  Result<uint64_t> SubmitStream(const Bytes& request) override;
  Result<Bytes> CollectStream(uint64_t ticket, int timeout_ms) override;
  void CloseStream(uint64_t ticket) override;

  /// Collect with a deadline: returns DeadlineExceeded when no response
  /// for `ticket` arrived within `timeout_ms`. The ticket stays
  /// outstanding — the response, should it arrive later, is parked for a
  /// retry — and the stream is NOT marked broken; callers that treat a
  /// timeout as fatal (topology probes do) follow up with Abort().
  /// Bounded waits hold even while this thread is the elected reader:
  /// the socket is polled before every blocking read.
  Result<Bytes> CollectFor(uint64_t ticket, int timeout_ms);

  /// Marks the stream broken with `reason` and shuts the socket down,
  /// which promptly fails every parked Submit/Collect — including a
  /// collector blocked inside recv() as the elected reader — with the
  /// sticky stream status. Idempotent; safe from any thread. The
  /// shutdown is orderly (queued bytes flush, then FIN), so a server
  /// sees a clean EOF rather than a reset.
  void Abort(const Status& reason);

  /// Sticky stream status: OK while the connection is usable, the first
  /// fatal failure afterwards. A broken transport never recovers —
  /// reconnection means building a new transport (secure::topology does).
  Status stream_status() const;

  /// "host:port" this transport was connected to.
  const std::string& peer() const { return peer_; }

  /// Costs are updated under an internal lock; read them only while no
  /// Call/Submit/Collect is concurrently in flight.
  const TransportCosts& costs() const override { return costs_; }
  void ResetCosts() override;

 private:
  struct ReadyResponse {
    Result<Bytes> payload = Status::Internal("unparsed");
    int64_t server_nanos = 0;
  };

  TcpTransport(int fd, std::string peer) : fd_(fd), peer_(std::move(peer)) {}

  /// Issues the next request id (never 0; wraps past 2^32 - 1).
  uint32_t NextId();
  /// Frames and writes one request — sealed into a record first on a
  /// secure channel.
  Status SubmitFrame(const Bytes& request, uint32_t id);
  /// Waits until the response for `id` is ready, reading frames off the
  /// socket whenever no other thread is already reading. A null
  /// `deadline` waits forever; otherwise DeadlineExceeded past it.
  Result<ReadyResponse> AwaitResponse(
      uint32_t id,
      const std::chrono::steady_clock::time_point* deadline = nullptr);
  /// Reads and parses exactly one response frame (any id). Runs outside
  /// the state lock; only one thread reads at a time. With a deadline,
  /// the socket is polled before blocking and DeadlineExceeded is
  /// returned — without consuming anything — when it passes first.
  Status ReadOneResponse(const std::chrono::steady_clock::time_point* deadline);
  /// Secure path of ReadOneResponse: receives records straight into
  /// recv_raw_, opens them in place, and stops once the plaintext stream
  /// yields one complete frame, whose header and status prefix are read
  /// in place and whose payload is copied out once into `*ready`. Only
  /// the elected reader touches the receive buffers.
  Status ReadSecureFrame(const std::chrono::steady_clock::time_point* deadline,
                         uint32_t* request_id, ReadyResponse* ready,
                         size_t* body_len);
  /// Parses a response body (u64 server_nanos, ok flag, then the payload
  /// or the error text) into `*ready`, copying the payload once.
  static Status ParseResponseBody(const uint8_t* body, size_t len,
                                  ReadyResponse* ready);
  /// Records the first fatal stream failure, wakes every parked waiter,
  /// and shuts the socket down so the elected reader's recv() returns.
  void MarkBroken(const Status& reason);

  int fd_;
  std::string peer_;  ///< "host:port", for failure attribution
  std::unique_ptr<SecureChannel> channel_;  ///< null = plaintext wire
  /// Receive buffer (elected reader only): [recv_raw_off_, recv_raw_end_)
  /// holds received bytes not yet opened; the rest is free space that
  /// recv() fills directly.
  Bytes recv_raw_;
  size_t recv_raw_off_ = 0;
  size_t recv_raw_end_ = 0;
  Bytes recv_plain_;       ///< decrypted, not yet parsed frame bytes
  size_t recv_plain_off_ = 0;

  std::mutex write_mutex_;  ///< serializes frame writes + ticket issue
  uint32_t next_id_ = 1;

  mutable std::mutex state_mutex_;  ///< pending/ready bookkeeping + reader election
  std::condition_variable state_cv_;
  bool reader_active_ = false;
  Status broken_ = Status::OK();  ///< sticky stream failure
  std::unordered_set<uint32_t> outstanding_;
  std::unordered_map<uint32_t, ReadyResponse> ready_;
  /// Streaming ids: ReadOneResponse routes their frames into
  /// stream_ready_ (a queue per id — many frames per ticket) and keeps
  /// the id outstanding for the frames still to come.
  std::unordered_set<uint32_t> streaming_;
  std::unordered_map<uint32_t, std::deque<ReadyResponse>> stream_ready_;
  /// Closed stream ids: late frames (a server still flushing when the
  /// client gave up) are dropped instead of poisoning the connection as
  /// unknown-id protocol violations.
  std::unordered_set<uint32_t> closed_streams_;

  std::mutex costs_mutex_;
  TransportCosts costs_;
};

/// Writes one frame (`request_id` must be nonzero) to a blocking `fd`.
Status WriteFrame(int fd, uint32_t request_id, const Bytes& payload);
/// Reads one frame from a blocking `fd` (body up to `max_len` bytes); a
/// header without the id flag, or with id 0, is a NetworkError.
Result<DecodedFrame> ReadFrame(int fd, size_t max_len = 1ull << 31);

}  // namespace net
}  // namespace simcloud

#endif  // SIMCLOUD_NET_TCP_H_
