// Transport tests: loopback cost accounting, real TCP framing, error
// propagation, the server/communication time split, request pipelining,
// backpressure against slow clients, and shutdown races of the epoll
// engine.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/clock.h"
#include "common/serialize.h"
#include "net/tcp.h"
#include "net/transport.h"
#include "tests/net_test_util.h"

namespace simcloud {
namespace net {
namespace {

/// Echoes the request back, optionally burning some CPU first. The
/// TcpServer worker pool calls Handle concurrently, hence the atomic.
class EchoHandler : public RequestHandler {
 public:
  explicit EchoHandler(bool burn_cpu = false) : burn_cpu_(burn_cpu) {}

  Result<Bytes> Handle(const Bytes& request) override {
    if (!request.empty() && request[0] == 0xEE) {
      return Status::InvalidArgument("poison request");
    }
    if (burn_cpu_) {
      volatile double x = 0;
      for (int i = 0; i < 200000; ++i) x = x + i * 0.5;
    }
    handled_.fetch_add(1);
    return request;
  }

  int handled() const { return handled_.load(); }

 private:
  bool burn_cpu_;
  std::atomic<int> handled_{0};
};

TEST(LoopbackTransportTest, EchoAndByteAccounting) {
  EchoHandler handler;
  LoopbackTransport transport(&handler);

  const Bytes request = {1, 2, 3, 4, 5};
  auto response = transport.Call(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(*response, request);

  const TransportCosts& costs = transport.costs();
  EXPECT_EQ(costs.calls, 1u);
  EXPECT_EQ(costs.bytes_sent, 5u);
  EXPECT_EQ(costs.bytes_received, 5u);
  EXPECT_EQ(costs.TotalBytes(), 10u);
  EXPECT_GT(costs.communication_nanos, 0);
}

TEST(LoopbackTransportTest, ServerTimeIsMeasured) {
  EchoHandler handler(/*burn_cpu=*/true);
  LoopbackTransport transport(&handler);
  ASSERT_TRUE(transport.Call(Bytes(10)).ok());
  EXPECT_GT(transport.costs().server_nanos, 0);
}

TEST(LoopbackTransportTest, LinkModelScalesWithVolume) {
  EchoHandler handler;
  LinkModel slow;
  slow.latency_seconds = 0.0;
  slow.bandwidth_bytes_per_sec = 1e6;  // 1 MB/s
  LoopbackTransport transport(&handler, slow);

  ASSERT_TRUE(transport.Call(Bytes(1000)).ok());
  const int64_t small_comm = transport.costs().communication_nanos;
  transport.ResetCosts();
  ASSERT_TRUE(transport.Call(Bytes(100000)).ok());
  const int64_t large_comm = transport.costs().communication_nanos;
  EXPECT_GT(large_comm, small_comm * 50);
}

TEST(LoopbackTransportTest, HandlerErrorsPropagate) {
  EchoHandler handler;
  LoopbackTransport transport(&handler);
  auto response = transport.Call(Bytes{0xEE});
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
}

TEST(LoopbackTransportTest, ResetClearsCosts) {
  EchoHandler handler;
  LoopbackTransport transport(&handler);
  ASSERT_TRUE(transport.Call(Bytes(10)).ok());
  transport.ResetCosts();
  EXPECT_EQ(transport.costs().calls, 0u);
  EXPECT_EQ(transport.costs().TotalBytes(), 0u);
}

TEST(TcpTest, EndToEndEcho) {
  EchoHandler handler;
  TcpServer server(&handler);
  ASSERT_TRUE(server.Start(0).ok());
  ASSERT_GT(server.port(), 0);

  auto transport = TcpTransport::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(transport.ok());

  for (int i = 0; i < 10; ++i) {
    Bytes request(100 + i, static_cast<uint8_t>(i));
    auto response = (*transport)->Call(request);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(*response, request);
  }
  EXPECT_EQ(handler.handled(), 10);
  EXPECT_EQ((*transport)->costs().calls, 10u);
  EXPECT_GT((*transport)->costs().communication_nanos, 0);
  server.Stop();
}

TEST(TcpTest, LargeMessageRoundTrip) {
  EchoHandler handler;
  TcpServer server(&handler);
  ASSERT_TRUE(server.Start(0).ok());
  auto transport = TcpTransport::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(transport.ok());

  Bytes request(4 * 1024 * 1024);
  for (size_t i = 0; i < request.size(); ++i) {
    request[i] = static_cast<uint8_t>(i * 2654435761u >> 24);
  }
  auto response = (*transport)->Call(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(*response, request);
  server.Stop();
}

TEST(TcpTest, RemoteErrorsSurfaceAsStatus) {
  EchoHandler handler;
  TcpServer server(&handler);
  ASSERT_TRUE(server.Start(0).ok());
  auto transport = TcpTransport::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(transport.ok());

  auto response = (*transport)->Call(Bytes{0xEE});
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kNetworkError);
  EXPECT_NE(response.status().message().find("poison"), std::string::npos);

  // The connection survives an application-level error.
  auto ok_response = (*transport)->Call(Bytes{1, 2});
  EXPECT_TRUE(ok_response.ok());
  server.Stop();
}

TEST(TcpTest, ConnectToClosedPortFails) {
  auto transport = TcpTransport::Connect("127.0.0.1", 1);
  EXPECT_FALSE(transport.ok());
}

TEST(TcpTest, RejectsInvalidAddress) {
  auto transport = TcpTransport::Connect("not-an-ip", 80);
  EXPECT_FALSE(transport.ok());
}

TEST(TcpTest, SequentialConnectionsAreServed) {
  EchoHandler handler;
  TcpServer server(&handler);
  ASSERT_TRUE(server.Start(0).ok());
  for (int round = 0; round < 3; ++round) {
    auto transport = TcpTransport::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(transport.ok());
    auto response = (*transport)->Call(Bytes{9});
    ASSERT_TRUE(response.ok());
  }
  server.Stop();
}

// ---------------------------------------------------------------------------
// Pipelining, frame bytes, backpressure, and shutdown races.
// ---------------------------------------------------------------------------

/// Request: u32 LE size; response: that many bytes. Lets a tiny request
/// provoke an arbitrarily large response (backpressure tests).
class InflateHandler : public RequestHandler {
 public:
  Result<Bytes> Handle(const Bytes& request) override {
    BinaryReader reader(request);
    SIMCLOUD_ASSIGN_OR_RETURN(uint32_t size, reader.ReadU32());
    return Bytes(size, 0xAB);
  }
};

Bytes InflateRequest(uint32_t size) {
  BinaryWriter writer;
  writer.WriteU32(size);
  return writer.TakeBuffer();
}

TEST(PipelineTest, LoopbackSubmitCollectAnyOrder) {
  EchoHandler handler;
  LoopbackTransport transport(&handler);
  std::vector<uint64_t> tickets;
  for (uint8_t i = 0; i < 10; ++i) {
    auto ticket = transport.Submit(Bytes(4, i));
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(*ticket);
  }
  for (int i = 9; i >= 0; --i) {
    auto response = transport.Collect(tickets[i]);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(*response, Bytes(4, static_cast<uint8_t>(i)));
  }
  // Double-collect is an error, not a hang.
  EXPECT_FALSE(transport.Collect(tickets[0]).ok());
}

TEST(PipelineTest, TcpSubmitCollectOutOfOrder) {
  EchoHandler handler;
  TcpServer server(&handler);
  ASSERT_TRUE(server.Start(0).ok());
  auto transport = TcpTransport::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(transport.ok());

  constexpr int kInFlight = 32;
  std::vector<uint64_t> tickets(kInFlight);
  for (int i = 0; i < kInFlight; ++i) {
    auto ticket = (*transport)->Submit(Bytes(100, static_cast<uint8_t>(i)));
    ASSERT_TRUE(ticket.ok());
    tickets[i] = *ticket;
  }
  // Collect in reverse: every response must match its request's ticket,
  // not the arrival order.
  for (int i = kInFlight - 1; i >= 0; --i) {
    auto response = (*transport)->Collect(tickets[i]);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(*response, Bytes(100, static_cast<uint8_t>(i)));
  }
  EXPECT_EQ(handler.handled(), kInFlight);
  EXPECT_FALSE((*transport)->Collect(tickets[0]).ok());  // double collect
  server.Stop();
}

TEST(PipelineTest, TcpPipelineDeeperThanServerInFlightCap) {
  EchoHandler handler;
  TcpServerOptions options;
  options.max_in_flight = 4;  // frames beyond 4 wait in the input buffer
  TcpServer server(&handler, options);
  ASSERT_TRUE(server.Start(0).ok());
  auto transport = TcpTransport::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(transport.ok());

  std::vector<uint64_t> tickets;
  for (int i = 0; i < 64; ++i) {
    auto ticket = (*transport)->Submit(Bytes(64, static_cast<uint8_t>(i)));
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(*ticket);
  }
  for (int i = 0; i < 64; ++i) {
    auto response = (*transport)->Collect(tickets[i]);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(*response, Bytes(64, static_cast<uint8_t>(i)));
  }
  server.Stop();
}

/// Echoes like EchoHandler, but holds any request starting with 0xB0
/// until Release() (or 10 s pass), so a test can keep one request in
/// flight on the server.
class GatedEchoHandler : public RequestHandler {
 public:
  Result<Bytes> Handle(const Bytes& request) override {
    if (!request.empty() && request[0] == 0xB0) {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait_for(lock, std::chrono::seconds(10), [&] { return released_; });
    }
    return request;
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool released_ = false;
};

TEST(PipelineTest, CallsInterleaveWithPipelinedTraffic) {
  GatedEchoHandler handler;
  TcpServer server(&handler);
  ASSERT_TRUE(server.Start(0).ok());
  auto transport = TcpTransport::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(transport.ok());

  // Call() takes its own request id, so it is no ordering barrier: it
  // returns while a request Submitted before it is still held on the
  // server.
  auto held = (*transport)->Submit(Bytes{0xB0, 1, 1});
  ASSERT_TRUE(held.ok());
  Stopwatch latency;
  auto called = (*transport)->Call(Bytes{7, 7});
  ASSERT_TRUE(called.ok()) << called.status().ToString();
  EXPECT_EQ(*called, (Bytes{7, 7}));
  EXPECT_LT(latency.ElapsedSeconds(), 5.0)
      << "Call waited for an earlier, un-collected Submit";
  auto second = (*transport)->Submit(Bytes{2, 2});
  ASSERT_TRUE(second.ok());
  auto second_response = (*transport)->Collect(*second);
  ASSERT_TRUE(second_response.ok());
  EXPECT_EQ(*second_response, (Bytes{2, 2}));
  handler.Release();
  auto held_response = (*transport)->Collect(*held);
  ASSERT_TRUE(held_response.ok());
  EXPECT_EQ(*held_response, (Bytes{0xB0, 1, 1}));
  EXPECT_EQ((*transport)->costs().calls, 3u);
  server.Stop();
}

TEST(TcpTest, FrameBytesAreStable) {
  // One request frame: u32 LE (length | bit 31), u32 LE id, body.
  const Bytes body = {0x42, 0x43, 0x44, 0x45, 0x46};
  const Bytes request_frame = {0x05, 0x00, 0x00, 0x80, 0x2A, 0x00, 0x00,
                               0x00, 0x42, 0x43, 0x44, 0x45, 0x46};
  // One response frame: the same header over u64 LE server nanos, the
  // ok byte, and the payload.
  const Bytes response_frame = {0x0E, 0x00, 0x00, 0x80, 0x01, 0x00, 0x00,
                                0x00, 0x08, 0x07, 0x06, 0x05, 0x04, 0x03,
                                0x02, 0x01, 0x01, 0x42, 0x43, 0x44, 0x45,
                                0x46};
  auto read_exactly = [](int fd, size_t n) {
    Bytes bytes(n);
    size_t got = 0;
    while (got < n) {
      const ssize_t r = ::recv(fd, bytes.data() + got, n - got, 0);
      if (r <= 0) break;
      got += static_cast<size_t>(r);
    }
    bytes.resize(got);
    return bytes;
  };

  // The server reads the request bytes and answers with the response
  // layout (its nanos vary; every other byte is fixed).
  EchoHandler handler;
  TcpServer server(&handler);
  ASSERT_TRUE(server.Start(0).ok());
  const int fd = RawConnect(server.port());
  ASSERT_EQ(::send(fd, request_frame.data(), request_frame.size(), 0),
            static_cast<ssize_t>(request_frame.size()));
  const Bytes answered = read_exactly(fd, response_frame.size());
  ASSERT_EQ(answered.size(), response_frame.size());
  Bytes expected_answer = response_frame;
  expected_answer[4] = 0x2A;  // the request's id, echoed
  for (size_t i = 8; i < 16; ++i) expected_answer[i] = answered[i];
  EXPECT_EQ(answered, expected_answer);
  ::close(fd);
  server.Stop();

  // The client writes exactly the request layout (its first id is 1)
  // and reads the golden response, server nanos included.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr),
                          &addr_len),
            0);
  auto transport = TcpTransport::Connect("127.0.0.1", ntohs(addr.sin_port));
  ASSERT_TRUE(transport.ok());
  const int peer = ::accept(listener, nullptr, nullptr);
  ASSERT_GE(peer, 0);
  auto ticket = (*transport)->Submit(body);
  ASSERT_TRUE(ticket.ok());
  EXPECT_EQ(*ticket, 1u);
  Bytes expected_request = request_frame;
  expected_request[4] = 0x01;
  EXPECT_EQ(read_exactly(peer, expected_request.size()), expected_request);
  ASSERT_EQ(::send(peer, response_frame.data(), response_frame.size(), 0),
            static_cast<ssize_t>(response_frame.size()));
  auto response = (*transport)->Collect(*ticket);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(*response, body);
  EXPECT_EQ((*transport)->costs().server_nanos, 0x0102030405060708);
  ::close(peer);
  ::close(listener);
}

TEST(TcpTest, DribbledFramesAreReassembled) {
  // A frame arriving one byte at a time (torn across arbitrarily many
  // reads) must be reassembled.
  EchoHandler handler;
  TcpServer server(&handler);
  ASSERT_TRUE(server.Start(0).ok());
  const int fd = RawConnect(server.port());

  const Bytes body = {9, 8, 7, 6};
  for (const uint8_t id : {0x2A, 0x2B}) {
    const Bytes frame = {4, 0, 0, 0x80, id, 0, 0, 0, 9, 8, 7, 6};
    for (uint8_t byte : frame) {
      ASSERT_EQ(::send(fd, &byte, 1, 0), 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    auto response = ReadFrame(fd);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->request_id, id);
    EXPECT_EQ(ResponsePayloadOf(response->payload), body);
  }
  ::close(fd);
  server.Stop();
}

TEST(TcpTest, SlowClientTripsBackpressureWithoutStallingOthers) {
  InflateHandler handler;
  TcpServerOptions options;
  options.max_output_queue_bytes = 256 * 1024;
  options.max_in_flight = 4;
  TcpServer server(&handler, options);
  ASSERT_TRUE(server.Start(0).ok());

  // The slow client asks for ~25 MB of responses with tiny requests and
  // never reads a byte. The server must park the connection at a bounded
  // output queue instead of buffering everything.
  const int slow_fd = RawConnect(server.port());
  constexpr uint32_t kResponseSize = 64 * 1024;
  constexpr int kRequests = 400;
  const Bytes request = InflateRequest(kResponseSize);
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(
        WriteFrame(slow_fd, static_cast<uint32_t>(i + 1), request)
            .ok());
  }

  // Wait for backpressure to trip (kernel socket buffers absorb the
  // first few MB; then the output queue fills to its bound).
  Stopwatch waited;
  while (server.reads_paused() == 0 && waited.ElapsedSeconds() < 20) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(server.reads_paused(), 0u) << "backpressure never engaged";
  // Bounded queue: the configured bound plus the <= max_in_flight
  // responses that were already being handled when it tripped.
  EXPECT_LE(server.peak_output_queue_bytes(),
            options.max_output_queue_bytes +
                (options.max_in_flight + 1) * (kResponseSize + 64));

  // A well-behaved connection is not stalled behind the slow one.
  auto transport = TcpTransport::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(transport.ok());
  Stopwatch latency;
  auto response = (*transport)->Call(InflateRequest(1024));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->size(), 1024u);
  EXPECT_LT(latency.ElapsedSeconds(), 5.0);

  ::close(slow_fd);  // discard the parked responses
  server.Stop();
}

TEST(TcpTest, BackpressureReleaseResumesParsingBufferedFrames) {
  // Regression: with a tiny output-queue bound, a pipelined burst lands
  // entirely in the server's input buffer while dispatch is blocked on
  // the bound. Once flushing drains the queue (the client DOES read
  // here), the engine must re-parse the buffered frames by itself — the
  // socket is already empty, so no epoll event will ever prompt it.
  InflateHandler handler;
  TcpServerOptions options;
  options.max_output_queue_bytes = 8 * 1024;
  options.max_in_flight = 4;
  TcpServer server(&handler, options);
  ASSERT_TRUE(server.Start(0).ok());
  auto transport = TcpTransport::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(transport.ok());

  constexpr int kRequests = 24;
  std::vector<uint64_t> tickets;
  for (int i = 0; i < kRequests; ++i) {
    auto ticket = (*transport)->Submit(InflateRequest(4096));
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(*ticket);
  }
  for (uint64_t ticket : tickets) {
    auto response = (*transport)->Collect(ticket);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->size(), 4096u);
  }
  EXPECT_EQ(server.frames_completed(), static_cast<uint64_t>(kRequests));
  server.Stop();
}

TEST(TcpTest, StopWithPipelinedRequestsInFlightJoinsCleanly) {
  // Regression for shutdown races: Stop() while the pipeline is full
  // must join the event loop and every worker without crashing or
  // hanging, and pending Collects must fail instead of blocking.
  for (int round = 0; round < 10; ++round) {
    EchoHandler handler(/*burn_cpu=*/round % 2 == 1);
    TcpServerOptions options;
    options.worker_threads = 2;
    auto server = std::make_unique<TcpServer>(&handler, options);
    ASSERT_TRUE(server->Start(0).ok());
    auto transport = TcpTransport::Connect("127.0.0.1", server->port());
    ASSERT_TRUE(transport.ok());

    std::vector<uint64_t> tickets;
    for (int i = 0; i < 16; ++i) {
      auto ticket = (*transport)->Submit(Bytes(256, static_cast<uint8_t>(i)));
      if (!ticket.ok()) break;
      tickets.push_back(*ticket);
    }
    if (round % 3 == 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    server->Stop();  // joins loop + workers; in-flight handlers finish

    // Every ticket either made it out before the shutdown or fails with
    // a transport error; none may hang.
    for (uint64_t ticket : tickets) {
      auto response = (*transport)->Collect(ticket);
      if (!response.ok()) {
        EXPECT_EQ(response.status().code(), StatusCode::kNetworkError);
      }
    }
  }
}

/// Holds every request long enough that a prompt server kill happens
/// with all responses still pending.
class SleepHandler : public RequestHandler {
 public:
  Result<Bytes> Handle(const Bytes& request) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    return request;
  }
};

TEST(TcpTest, ServerKillFailsAllParkedCollectsPromptly) {
  // Regression: when the stream dies (server killed mid-pipeline), EVERY
  // parked Collect must fail promptly with the sticky stream status —
  // including collectors that are not the elected reader and would
  // otherwise sit in the condition variable until their own I/O noticed.
  SleepHandler handler;
  TcpServerOptions options;
  options.worker_threads = 2;
  TcpServer server(&handler, options);
  ASSERT_TRUE(server.Start(0).ok());
  auto transport = TcpTransport::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(transport.ok());

  constexpr int kCollectors = 8;
  std::vector<uint64_t> tickets(kCollectors);
  for (int i = 0; i < kCollectors; ++i) {
    auto ticket = (*transport)->Submit(Bytes(512, static_cast<uint8_t>(i)));
    ASSERT_TRUE(ticket.ok());
    tickets[i] = *ticket;
  }
  std::atomic<int> completed{0};
  std::vector<std::thread> collectors;
  collectors.reserve(kCollectors);
  for (int i = 0; i < kCollectors; ++i) {
    collectors.emplace_back([&, i] {
      auto response = (*transport)->Collect(tickets[i]);
      if (!response.ok()) {
        EXPECT_EQ(response.status().code(), StatusCode::kNetworkError);
      }
      completed.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  server.Stop();

  // All collectors must return well before any per-collector I/O timeout
  // could: the first reader to see EOF broadcasts the broken status.
  Stopwatch waited;
  while (completed.load() < kCollectors && waited.ElapsedSeconds() < 10) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(completed.load(), kCollectors) << "parked Collects hung";
  for (std::thread& thread : collectors) thread.join();
  EXPECT_LT(waited.ElapsedSeconds(), 5.0);

  // The failure is sticky: later pipelined use reports it immediately.
  EXPECT_FALSE((*transport)->stream_status().ok());
  auto late = (*transport)->Submit(Bytes{1});
  if (late.ok()) {
    EXPECT_FALSE((*transport)->Collect(*late).ok());
  }
}

TEST(TcpTest, AbortWakesCollectorParkedInRecv) {
  // Regression: Abort() from another thread must wake a collector that
  // is blocked inside recv() as the elected reader (only a socket
  // shutdown can — the condition variable does not cover recv).
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                          &addr_len),
            0);
  const uint16_t port = ntohs(addr.sin_port);

  // A "server" that accepts and then never answers.
  std::thread acceptor([listen_fd] {
    const int conn = ::accept(listen_fd, nullptr, nullptr);
    if (conn >= 0) {
      uint8_t sink[256];
      while (::recv(conn, sink, sizeof(sink), 0) > 0) {
      }
      ::close(conn);
    }
  });

  auto transport = TcpTransport::Connect("127.0.0.1", port);
  ASSERT_TRUE(transport.ok());
  auto ticket = (*transport)->Submit(Bytes{1, 2, 3});
  ASSERT_TRUE(ticket.ok());

  std::atomic<bool> collected{false};
  std::thread collector([&] {
    auto response = (*transport)->Collect(*ticket);
    EXPECT_FALSE(response.ok());
    collected.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_FALSE(collected.load());  // parked in recv, no response coming

  (*transport)->Abort(Status::NetworkError("test abort"));
  Stopwatch waited;
  while (!collected.load() && waited.ElapsedSeconds() < 10) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(collected.load()) << "Abort() left the reader stuck in recv";
  EXPECT_LT(waited.ElapsedSeconds(), 5.0);
  EXPECT_FALSE((*transport)->stream_status().ok());
  collector.join();
  ::close(listen_fd);
  acceptor.join();
}

TEST(TcpTest, CollectForTimesOutWithoutPoisoningTheStream) {
  // A bounded Collect that expires leaves the ticket outstanding and the
  // stream healthy: a later unbounded Collect still gets the response.
  EchoHandler handler(/*burn_cpu=*/true);
  TcpServer server(&handler);
  ASSERT_TRUE(server.Start(0).ok());
  auto transport = TcpTransport::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(transport.ok());

  auto ticket = (*transport)->Submit(Bytes(64, 7));
  ASSERT_TRUE(ticket.ok());
  // A 0ms deadline expires immediately (the response cannot have landed
  // through a burn-cpu handler yet).
  auto expired = (*transport)->CollectFor(*ticket, 0);
  if (!expired.ok()) {
    EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_TRUE((*transport)->stream_status().ok());
    auto retried = (*transport)->Collect(*ticket);
    ASSERT_TRUE(retried.ok());
    EXPECT_EQ(*retried, Bytes(64, 7));
  }
  server.Stop();
}

TEST(TcpTest, ManyIdleConnectionsAreCheap) {
  EchoHandler handler;
  TcpServer server(&handler);
  ASSERT_TRUE(server.Start(0).ok());

  std::vector<std::unique_ptr<TcpTransport>> idle;
  for (int i = 0; i < 128; ++i) {
    auto transport = TcpTransport::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(transport.ok());
    idle.push_back(std::move(*transport));
  }
  // Give the accept loop a moment, then verify they are all live and a
  // request on any of them still works: the engine serves them with its
  // fixed thread pool (1 loop + worker_threads), not a thread each.
  Stopwatch waited;
  while (server.active_connections() < idle.size() &&
         waited.ElapsedSeconds() < 10) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.active_connections(), idle.size());
  EXPECT_EQ(server.connections_accepted(), idle.size());
  auto response = idle[97]->Call(Bytes{5, 5});
  ASSERT_TRUE(response.ok());
  server.Stop();
}

}  // namespace
}  // namespace net
}  // namespace simcloud
