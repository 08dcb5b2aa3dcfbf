// Client-server transport abstraction with cost accounting.
//
// The paper evaluates a real client/server deployment (two processes on
// one machine, TCP over loopback) and reports three separate cost
// components per operation: client time, server time, and communication
// time. To reproduce that decomposition the transport protocol carries the
// server's processing time in every response, so the client can attribute
//   call wall time = server time + communication time.
//
// Two implementations:
//  * LoopbackTransport — in-process; bytes are counted exactly and
//    communication time is modelled from a configurable LinkModel
//    (latency + bandwidth), keeping benchmarks deterministic.
//  * TcpTransport/TcpServer (tcp.h) — real POSIX sockets for integration
//    testing of the full wire path.

#ifndef SIMCLOUD_NET_TRANSPORT_H_
#define SIMCLOUD_NET_TRANSPORT_H_

#include <cstdint>
#include <map>
#include <memory>

#include "common/bytes.h"
#include "common/status.h"

namespace simcloud {
namespace obs {
class TraceSpan;
}  // namespace obs
namespace net {

/// Server-push outlet for one request id: lets a handler send additional
/// frames on the id AFTER its response, from any thread, for as long as
/// the connection lives. Implementations are thread-safe.
class PushSink {
 public:
  virtual ~PushSink() = default;
  /// Enqueues one push frame. Best-effort with explicit outcomes:
  ///  * OK                  — queued (counted against the connection's
  ///                          bounded output queue like any response);
  ///  * FailedPrecondition  — the queue is at max_output_queue_bytes; the
  ///                          producer should hold the event and retry
  ///                          (backpressure, not an error);
  ///  * NetworkError        — the connection is gone; drop the producer.
  virtual Status TryPush(const Bytes& payload) = 0;
};

/// Per-request streaming context a transport hands to HandleStream. Today
/// it only mints push sinks; a null context (or a null sink) means the
/// transport cannot push on this request — an in-process loopback call —
/// and stream-registering opcodes must fail cleanly instead.
class StreamContext {
 public:
  virtual ~StreamContext() = default;
  /// A sink bound to this request's connection + id; may outlive the
  /// handler call. Null when the transport cannot push.
  virtual std::shared_ptr<PushSink> MakeSink() = 0;
  /// Stable identity of the underlying connection, for per-connection
  /// server state (cursors, watches) reaped via OnConnectionClosed. 0 =
  /// no identity (in-process call); such state is TTL-reaped only.
  virtual uint64_t connection_id() const { return 0; }
  /// The request's trace span (stage timings, distance accounting), or
  /// null when the transport does not trace (loopback, tracing off).
  /// Handlers annotate it (shard, batch size); the transport finishes it.
  virtual obs::TraceSpan* trace() const { return nullptr; }
};

/// Server-side request handler: consumes a request message, produces a
/// response message. Implementations are the "similarity cloud" services.
class RequestHandler {
 public:
  virtual ~RequestHandler() = default;
  /// Handles one request; errors become transport-level failures.
  virtual Result<Bytes> Handle(const Bytes& request) = 0;
  /// Handles one request that may register a push stream. `stream` is
  /// null when the transport cannot push (loopback);
  /// the default ignores it, so non-streaming handlers need no change.
  virtual Result<Bytes> HandleStream(const Bytes& request,
                                     StreamContext* stream) {
    (void)stream;
    return Handle(request);
  }
  /// Notifies the handler that connection `connection_id` (the value
  /// StreamContext::connection_id reported for its requests) is gone —
  /// the eager-reap hook for per-connection server state (open cursors,
  /// watch registrations). Called from the transport's event thread;
  /// implementations must not block. Default: nothing to reap.
  virtual void OnConnectionClosed(uint64_t connection_id) {
    (void)connection_id;
  }
};

/// Aggregated transport-level costs (the paper's server/communication
/// split plus the exchanged volume, its "communication cost").
struct TransportCosts {
  int64_t server_nanos = 0;         ///< time spent inside the handler
  int64_t communication_nanos = 0;  ///< wire time (modelled or measured)
  uint64_t bytes_sent = 0;          ///< client -> server volume
  uint64_t bytes_received = 0;      ///< server -> client volume
  uint64_t calls = 0;

  uint64_t TotalBytes() const { return bytes_sent + bytes_received; }
  void Clear() { *this = TransportCosts{}; }
};

/// Synchronous request/response channel as seen by a client.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Sends `request` and waits for the response.
  virtual Result<Bytes> Call(const Bytes& request) = 0;

  /// Costs accumulated over all Call()s so far.
  virtual const TransportCosts& costs() const = 0;
  /// Resets the cost accumulators.
  virtual void ResetCosts() = 0;
};

/// Transport with request pipelining: many requests can be submitted
/// before any response is collected, so round trips overlap on one
/// persistent connection. Submit returns a ticket; Collect blocks until
/// that ticket's response arrives. Call() remains the synchronous path.
/// Requests pipelined together may be *executed* in any order by the
/// server — callers must not pipeline requests that depend on each
/// other's effects.
class PipelinedTransport : public Transport {
 public:
  virtual Result<uint64_t> Submit(const Bytes& request) = 0;
  virtual Result<Bytes> Collect(uint64_t ticket) = 0;

  /// Streaming extension (change streams): SubmitStream parks a request
  /// id the server may push many frames on; CollectStream yields them in
  /// arrival order, response first... except that a push the server
  /// enqueued before its response lands first — callers tag frames in the
  /// payload, not by position. CloseStream forgets the id; any later
  /// frame on it is dropped, so callers must drain a cancelled stream
  /// BEFORE closing (see EncodeWatchCancelRequest). The base class does
  /// not pipeline pushes: transports without server-push keep the
  /// default NotSupported.
  virtual Result<uint64_t> SubmitStream(const Bytes& request) {
    (void)request;
    return Status::NotSupported("transport cannot stream");
  }
  virtual Result<Bytes> CollectStream(uint64_t ticket, int timeout_ms) {
    (void)ticket;
    (void)timeout_ms;
    return Status::NotSupported("transport cannot stream");
  }
  virtual void CloseStream(uint64_t ticket) { (void)ticket; }
};

/// Network link model for deterministic communication-time accounting.
/// Defaults approximate the paper's setup (loopback interface on one
/// machine): per-message latency plus volume / bandwidth.
struct LinkModel {
  double latency_seconds = 100e-6;        ///< per direction, per message
  double bandwidth_bytes_per_sec = 100e6; ///< ~1 GbE payload rate

  /// Modelled one-way transfer time for a message of `bytes`.
  double TransferSeconds(uint64_t bytes) const {
    return latency_seconds +
           static_cast<double>(bytes) / bandwidth_bytes_per_sec;
  }
};

/// In-process transport: invokes the handler directly, counting bytes
/// exactly and charging communication time from the LinkModel. The
/// pipelined API is supported with degenerate overlap (each Submit runs
/// the handler immediately and buffers the response for its Collect),
/// keeping loopback and TCP deployments drop-in interchangeable. Not
/// safe for concurrent use, like the rest of this class.
class LoopbackTransport : public PipelinedTransport {
 public:
  explicit LoopbackTransport(RequestHandler* handler,
                             LinkModel link = LinkModel())
      : handler_(handler), link_(link) {}

  Result<Bytes> Call(const Bytes& request) override;

  Result<uint64_t> Submit(const Bytes& request) override;
  Result<Bytes> Collect(uint64_t ticket) override;

  const TransportCosts& costs() const override { return costs_; }
  void ResetCosts() override { costs_.Clear(); }

 private:
  RequestHandler* handler_;
  LinkModel link_;
  TransportCosts costs_;
  uint64_t next_ticket_ = 1;
  std::map<uint64_t, Result<Bytes>> pending_;
};

}  // namespace net
}  // namespace simcloud

#endif  // SIMCLOUD_NET_TRANSPORT_H_
