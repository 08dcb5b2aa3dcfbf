// Robustness sweeps: deterministic fuzzing of every untrusted input
// surface. A malicious client can send arbitrary bytes to the server,
// and a malicious server can return arbitrary bytes to the client —
// decoders must fail with a Status, never crash, hang, or over-allocate.
// The TcpFrameFuzz battery drives the same hostility through a LIVE
// epoll server over raw sockets: torn frames, oversized declared
// lengths, garbage request ids, and mid-pipeline disconnects must at
// worst cost the offending connection — never the server, another
// connection, or the event loop.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <thread>

#include "common/clock.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "mindex/persistence.h"
#include "net/secure_channel.h"
#include "net/tcp.h"
#include "secure/client.h"
#include "secure/protocol.h"
#include "secure/secret_key.h"
#include "secure/server.h"
#include "secure/sharded_server.h"
#include "tests/net_test_util.h"

namespace simcloud {
namespace {

Bytes RandomBytes(Rng* rng, size_t max_len) {
  Bytes data(rng->NextBounded(max_len + 1));
  for (auto& b : data) b = static_cast<uint8_t>(rng->NextBounded(256));
  return data;
}

/// Flips `flips` random bits in a copy of `data`.
Bytes Corrupt(const Bytes& data, Rng* rng, int flips) {
  Bytes corrupted = data;
  for (int i = 0; i < flips && !corrupted.empty(); ++i) {
    corrupted[rng->NextBounded(corrupted.size())] ^=
        static_cast<uint8_t>(1u << rng->NextBounded(8));
  }
  return corrupted;
}

class FuzzSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzSeedTest, RequestDecoderNeverCrashesOnRandomBytes) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 500; ++iter) {
    const Bytes garbage = RandomBytes(&rng, 300);
    // Must return (ok or error), not crash. Decoded results of random
    // bytes are fine as long as they were produced safely.
    (void)secure::DecodeRequest(garbage);
  }
}

TEST_P(FuzzSeedTest, ResponseDecodersNeverCrashOnRandomBytes) {
  Rng rng(GetParam() + 100);
  for (int iter = 0; iter < 500; ++iter) {
    const Bytes garbage = RandomBytes(&rng, 300);
    (void)secure::DecodeBatchCandidateResponse(garbage);
    (void)secure::DecodeCursorPage(garbage);
    (void)secure::DecodeInsertResponse(garbage);
    (void)secure::DecodeStatsResponse(garbage);
    // A malicious server can also push arbitrary watch frames.
    (void)secure::DecodeWatchFrame(garbage);
  }
}

TEST_P(FuzzSeedTest, BitFlippedWatchRequestsFailCleanly) {
  Rng rng(GetParam() + 600);
  secure::WatchFilter filter;
  filter.kind = secure::WatchFilter::Kind::kRange;
  filter.query_distances = {1.5f, 2.5f, 3.5f};
  filter.radius = 4.25;
  const Bytes watch =
      secure::EncodeWatchRequest(filter, {7, 123456789, 42});
  const Bytes cancel = secure::EncodeWatchCancelRequest(991);
  for (int iter = 0; iter < 500; ++iter) {
    (void)secure::DecodeRequest(Corrupt(watch, &rng, 1 + iter % 4));
    (void)secure::DecodeRequest(Corrupt(cancel, &rng, 1 + iter % 4));
  }
}

TEST_P(FuzzSeedTest, BitFlippedValidRequestsFailCleanly) {
  Rng rng(GetParam() + 200);
  std::vector<secure::InsertItem> items(2);
  items[0] = {1, {1.0f, 2.0f}, {}, Bytes{9, 9, 9}};
  items[1] = {2, {}, {1, 0}, Bytes{8, 8}};
  const Bytes valid = secure::EncodeInsertBatchRequest(items);
  for (int iter = 0; iter < 500; ++iter) {
    const Bytes corrupted = Corrupt(valid, &rng, 1 + iter % 4);
    (void)secure::DecodeRequest(corrupted);  // no crash, no hang
  }
}

TEST_P(FuzzSeedTest, SecretKeyDeserializeNeverCrashes) {
  Rng rng(GetParam() + 300);
  for (int iter = 0; iter < 300; ++iter) {
    (void)secure::SecretKey::Deserialize(RandomBytes(&rng, 200));
  }
  // Bit flips in a valid key blob must either fail or produce a key —
  // never crash.
  mindex::PivotSet pivots({metric::VectorObject(0, {1.0f, 2.0f})});
  auto key = secure::SecretKey::Create(pivots, Bytes(16, 5));
  ASSERT_TRUE(key.ok());
  auto blob = key->Serialize();
  ASSERT_TRUE(blob.ok());
  for (int iter = 0; iter < 300; ++iter) {
    (void)secure::SecretKey::Deserialize(Corrupt(*blob, &rng, 2));
  }
}

TEST_P(FuzzSeedTest, IndexSnapshotDeserializeNeverCrashes) {
  Rng rng(GetParam() + 400);
  for (int iter = 0; iter < 200; ++iter) {
    (void)mindex::DeserializeIndex(RandomBytes(&rng, 400));
  }
}

TEST_P(FuzzSeedTest, BinaryReaderBoundsAreRespected) {
  Rng rng(GetParam() + 500);
  for (int iter = 0; iter < 500; ++iter) {
    const Bytes garbage = RandomBytes(&rng, 64);
    BinaryReader reader(garbage);
    // Interleave reads of every primitive; all must stay in bounds.
    (void)reader.ReadVarint();
    (void)reader.ReadU32();
    (void)reader.ReadBytes();
    (void)reader.ReadFloatVector();
    (void)reader.ReadString();
    (void)reader.ReadDouble();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeedTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------------------------------
// Live-server frame fuzzing.
// ---------------------------------------------------------------------------

/// True when the server closed its side of `fd` within ~5 seconds.
bool WaitForSocketClose(int fd) {
  Stopwatch watch;
  uint8_t sink[256];
  while (watch.ElapsedSeconds() < 5.0) {
    const ssize_t n = ::recv(fd, sink, sizeof(sink), MSG_DONTWAIT);
    if (n == 0) return true;                       // clean close
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) return true;
    if (n < 0) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

/// A real encrypted M-Index server behind a real TcpServer, plus one
/// well-behaved probe that must keep getting correct answers no matter
/// what the hostile connections do.
class TcpFrameFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    mindex::MIndexOptions options;
    options.num_pivots = 4;
    options.max_level = 3;
    auto handler = secure::EncryptedMIndexServer::Create(options);
    ASSERT_TRUE(handler.ok());
    handler_ = std::move(*handler);
    net::TcpServerOptions server_options;
    server_options.max_frame_bytes = 1u << 20;
    server_ = std::make_unique<net::TcpServer>(handler_.get(),
                                               server_options);
    ASSERT_TRUE(server_->Start(0).ok());
  }

  void TearDown() override { server_->Stop(); }

  int RawConnect() { return net::RawConnect(server_->port()); }

  /// The server is still fully alive: a fresh well-behaved connection
  /// round-trips a real request.
  void ExpectServerAlive() {
    auto transport =
        net::TcpTransport::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(transport.ok());
    auto response = (*transport)->Call(secure::EncodeGetStatsRequest());
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    auto stats = secure::DecodeStatsResponse(*response);
    ASSERT_TRUE(stats.ok());
  }

  static bool WaitForClose(int fd) { return WaitForSocketClose(fd); }

  std::unique_ptr<secure::EncryptedMIndexServer> handler_;
  std::unique_ptr<net::TcpServer> server_;
};

TEST_F(TcpFrameFuzz, TornFramesAndAbruptDisconnects) {
  Rng rng(11);
  const Bytes request = secure::EncodeGetStatsRequest();
  for (int iter = 0; iter < 40; ++iter) {
    const int fd = RawConnect();
    // A valid pipelined frame, truncated at a random byte boundary.
    BinaryWriter frame;
    frame.WriteU32(static_cast<uint32_t>(request.size()) |
                   net::kFrameIdFlag);
    frame.WriteU32(7);
    frame.WriteRaw(request.data(), request.size());
    const Bytes& bytes = frame.buffer();
    const size_t cut = rng.NextBounded(bytes.size());
    if (cut > 0) {
      ASSERT_EQ(::send(fd, bytes.data(), cut, MSG_NOSIGNAL),
                static_cast<ssize_t>(cut));
    }
    ::close(fd);  // torn mid-frame
  }
  ExpectServerAlive();
}

TEST_F(TcpFrameFuzz, OversizedDeclaredLengthClosesOnlyThatConnection) {
  for (const uint32_t declared :
       {uint32_t{1u << 20} + 1, uint32_t{64u << 20}, net::kMaxFrameLength}) {
    const int hostile = RawConnect();
    // Another connection opened BEFORE the attack must sail through it.
    auto good = net::TcpTransport::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(good.ok());

    BinaryWriter header;
    header.WriteU32(declared | net::kFrameIdFlag);
    header.WriteU32(9);
    ASSERT_EQ(::send(hostile, header.buffer().data(), 8, MSG_NOSIGNAL), 8);
    EXPECT_TRUE(WaitForClose(hostile))
        << "server kept a connection that declared a " << declared
        << "-byte frame";
    ::close(hostile);

    auto response = (*good)->Call(secure::EncodeGetStatsRequest());
    EXPECT_TRUE(response.ok());
  }
  ExpectServerAlive();
}

TEST_F(TcpFrameFuzz, GarbageRequestIdsAndBodies) {
  // Id 0 with the pipelined flag is a protocol violation: close.
  {
    const int fd = RawConnect();
    BinaryWriter frame;
    frame.WriteU32(4u | net::kFrameIdFlag);
    frame.WriteU32(0);
    frame.WriteU32(0xDEADBEEF);
    ASSERT_EQ(::send(fd, frame.buffer().data(), frame.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(frame.size()));
    EXPECT_TRUE(WaitForClose(fd));
    ::close(fd);
  }
  // Arbitrary ids with garbage bodies are APPLICATION-level traffic:
  // every frame gets a well-formed response echoing ITS id (usually a
  // decode error; a lucky byte pattern may parse as a real no-arg
  // request), and the connection survives all of them.
  Rng rng(12);
  const int fd = RawConnect();
  int decode_errors = 0;
  for (int iter = 0; iter < 50; ++iter) {
    Bytes garbage(1 + rng.NextBounded(64));
    for (auto& b : garbage) b = static_cast<uint8_t>(rng.NextBounded(256));
    const uint32_t id = 1 + static_cast<uint32_t>(rng.NextBounded(1u << 30));
    ASSERT_TRUE(net::WriteFrame(fd, id, garbage).ok());
    auto frame = net::ReadFrame(fd);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->request_id, id);
    BinaryReader reader(frame->payload);
    ASSERT_TRUE(reader.ReadU64().ok());  // server nanos
    auto ok = reader.ReadBool();
    ASSERT_TRUE(ok.ok());
    if (!*ok) ++decode_errors;
  }
  EXPECT_GT(decode_errors, 25) << "random bodies should mostly fail decode";
  ::close(fd);
  ExpectServerAlive();
}

TEST_F(TcpFrameFuzz, MidPipelineDisconnectsDoNotWedgeTheLoop) {
  const Bytes request = secure::EncodeGetStatsRequest();
  for (int iter = 0; iter < 30; ++iter) {
    const int fd = RawConnect();
    for (uint32_t id = 1; id <= 8; ++id) {
      ASSERT_TRUE(net::WriteFrame(fd, id, request).ok());
    }
    ::close(fd);  // responses in flight hit a dead connection
  }
  ExpectServerAlive();
  // Every handled request was either answered or dropped with its
  // connection; the engine's accounting must not leak "stuck" work.
  Stopwatch watch;
  while (server_->frames_completed() < server_->frames_dispatched() &&
         watch.ElapsedSeconds() < 10) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server_->frames_completed(), server_->frames_dispatched());
}

TEST_F(TcpFrameFuzz, RandomByteStreams) {
  Rng rng(13);
  for (int iter = 0; iter < 25; ++iter) {
    const int fd = RawConnect();
    Bytes noise(1 + rng.NextBounded(300));
    for (auto& b : noise) b = static_cast<uint8_t>(rng.NextBounded(256));
    // Random first bytes often declare absurd lengths — either the
    // server closes the connection or answers with decode errors; it
    // must never crash or stall.
    (void)::send(fd, noise.data(), noise.size(), MSG_NOSIGNAL);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ::close(fd);
  }
  ExpectServerAlive();
}

TEST_F(TcpFrameFuzz, WatchRegistrationsWithGarbageTokens) {
  Rng rng(14);
  for (int iter = 0; iter < 30; ++iter) {
    const int fd = RawConnect();
    Bytes request;
    if (iter % 2 == 0) {
      // Random resume tokens: future seqs, absurd values, wrong widths.
      std::vector<uint64_t> token(1 + rng.NextBounded(4));
      for (auto& t : token) t = rng.NextU64();
      request = secure::EncodeWatchRequest(secure::WatchFilter{}, token);
    } else {
      // Opcode 11 followed by noise: must die in the decoder.
      request.resize(1 + rng.NextBounded(64));
      request[0] = static_cast<uint8_t>(secure::Op::kWatch);
      for (size_t i = 1; i < request.size(); ++i) {
        request[i] = static_cast<uint8_t>(rng.NextBounded(256));
      }
    }
    ASSERT_TRUE(net::WriteFrame(fd, 3, request).ok());
    // Whatever happened — rejected token, decode error, or even an
    // accidental registration — the answer is a well-formed frame
    // echoing our id, and the abrupt close below must cost nothing.
    auto frame = net::ReadFrame(fd);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->request_id, 3u);
    ::close(fd);
  }
  ExpectServerAlive();
}

TEST_F(TcpFrameFuzz, WatchCancelsForUnknownIdsAnswerCleanly) {
  Rng rng(15);
  const int fd = RawConnect();
  for (int iter = 0; iter < 40; ++iter) {
    const uint32_t id = 1 + static_cast<uint32_t>(iter);
    const Bytes request = secure::EncodeWatchCancelRequest(rng.NextU64());
    ASSERT_TRUE(net::WriteFrame(fd, id, request).ok());
    auto frame = net::ReadFrame(fd);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->request_id, id);
  }
  ::close(fd);
  ExpectServerAlive();
}

TEST_F(TcpFrameFuzz, WatchersVanishingMidPushDoNotWedgeTheHub) {
  // Real registrations whose connections die with pushes in flight:
  // the delivery thread must drop each dead subscription and the server
  // must keep serving.
  const Bytes watch_request =
      secure::EncodeWatchRequest(secure::WatchFilter{}, {});
  auto writer = net::TcpTransport::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(writer.ok());
  for (int iter = 0; iter < 10; ++iter) {
    const int fd = RawConnect();
    ASSERT_TRUE(net::WriteFrame(fd, 1, watch_request).ok());
    auto ack = net::ReadFrame(fd);
    ASSERT_TRUE(ack.ok()) << ack.status().ToString();

    // Mutations on another connection start push traffic at the watcher.
    std::vector<secure::InsertItem> items(4);
    for (size_t i = 0; i < items.size(); ++i) {
      items[i].id = static_cast<metric::ObjectId>(iter * 100 + i);
      items[i].pivot_distances = {1.0f, 2.0f, 3.0f, 4.0f};
      items[i].payload = Bytes{0xAB, 0xCD};
    }
    auto inserted =
        (*writer)->Call(secure::EncodeInsertBatchRequest(items));
    ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
    ::close(fd);  // pushes in flight hit a dead connection
  }
  ExpectServerAlive();
  // Reaping is lazy — a dead subscription is dropped at the next
  // delivery sweep, so publish one more mutation to trigger it, then
  // every orphan must drain out of the hub.
  std::vector<secure::InsertItem> nudge(1);
  nudge[0].id = 99999;
  nudge[0].pivot_distances = {1.0f, 2.0f, 3.0f, 4.0f};
  nudge[0].payload = Bytes{0xEE};
  ASSERT_TRUE((*writer)->Call(secure::EncodeInsertBatchRequest(nudge)).ok());
  Stopwatch watch;
  while (handler_->watch_hub()->active() > 0 &&
         watch.ElapsedSeconds() < 10) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(handler_->watch_hub()->active(), 0u);
}

// --------------------------------------------------------------------------
// Cursor opcodes under hostility: garbage / stale / replayed cursor ids,
// and torn cursor frames.
// --------------------------------------------------------------------------

namespace {

/// Seeds the fuzz server with `count` synthetic objects so range cursors
/// actually page (the fixture's index starts empty).
void SeedCursorObjects(secure::EncryptedMIndexServer* handler, int count) {
  std::vector<secure::InsertItem> items(count);
  for (int i = 0; i < count; ++i) {
    items[i].id = static_cast<metric::ObjectId>(10000 + i);
    items[i].pivot_distances = {1.0f + i, 2.0f + i, 3.0f + i, 4.0f + i};
    items[i].payload = Bytes{0x10, static_cast<uint8_t>(i)};
  }
  auto inserted = handler->Handle(secure::EncodeInsertBatchRequest(items));
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
}

/// A response body split into its parts: `ok` + payload, or the error.
struct ParsedBody {
  bool ok = false;
  Bytes payload;
  std::string error;
};

ParsedBody ParseResponseBody(const Bytes& body) {
  BinaryReader reader(body);
  auto nanos = reader.ReadU64();
  EXPECT_TRUE(nanos.ok());
  auto ok = reader.ReadBool();
  EXPECT_TRUE(ok.ok());
  ParsedBody parsed;
  parsed.ok = ok.ok() && *ok;
  if (parsed.ok) {
    parsed.payload = Bytes(body.begin() + reader.position(), body.end());
  } else {
    auto message = reader.ReadString();
    EXPECT_TRUE(message.ok());
    if (message.ok()) parsed.error = *message;
  }
  return parsed;
}

/// The fixture's 4-pivot query covering every seeded object.
Bytes CursorOpenRequest(uint64_t page_size) {
  return secure::EncodeRangeSearchCursorRequest({1.0f, 2.0f, 3.0f, 4.0f},
                                                1e9, page_size, 0);
}

}  // namespace

TEST_F(TcpFrameFuzz, CursorGarbageStaleAndReplayedIdsFailCleanly) {
  SeedCursorObjects(handler_.get(), 12);
  const int fd = RawConnect();
  uint32_t frame = 1;
  auto round_trip = [&](const Bytes& request) {
    const uint32_t id = frame++;
    EXPECT_TRUE(net::WriteFrame(fd, id, request).ok());
    auto response = net::ReadFrame(fd);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->request_id, id);
    return ParseResponseBody(response->payload);
  };

  // Garbage ids: every kCursorNext answers a clean error naming the
  // unknown cursor; the connection survives all of them.
  Rng rng(41);
  for (int i = 0; i < 20; ++i) {
    const uint64_t bogus = 1000000 + rng.NextBounded(1u << 30);
    ParsedBody next = round_trip(secure::EncodeCursorNextRequest(bogus));
    EXPECT_FALSE(next.ok);
    EXPECT_NE(next.error.find("unknown cursor"), std::string::npos)
        << next.error;
  }

  // A REPLAYED id: drain a real cursor to exhaustion, then next it
  // again — the id is dead, the answer is the same clean error.
  ParsedBody open = round_trip(CursorOpenRequest(/*page_size=*/3));
  ASSERT_TRUE(open.ok) << open.error;
  auto page = secure::DecodeCursorPage(open.payload);
  ASSERT_TRUE(page.ok());
  const uint64_t drained_id = page->cursor_id;
  ASSERT_NE(drained_id, 0u);
  uint64_t cursor_id = drained_id;
  while (cursor_id != 0) {
    ParsedBody next =
        round_trip(secure::EncodeCursorNextRequest(cursor_id));
    ASSERT_TRUE(next.ok) << next.error;
    auto next_page = secure::DecodeCursorPage(next.payload);
    ASSERT_TRUE(next_page.ok());
    cursor_id = next_page->cursor_id;
  }
  ParsedBody replayed =
      round_trip(secure::EncodeCursorNextRequest(drained_id));
  EXPECT_FALSE(replayed.ok);
  EXPECT_NE(replayed.error.find("unknown cursor"), std::string::npos);

  // A STALE id: close a live cursor, then keep using it. Next fails
  // cleanly; a second close stays an idempotent 0-ack.
  ParsedBody reopened = round_trip(CursorOpenRequest(/*page_size=*/3));
  ASSERT_TRUE(reopened.ok) << reopened.error;
  auto live = secure::DecodeCursorPage(reopened.payload);
  ASSERT_TRUE(live.ok());
  ASSERT_NE(live->cursor_id, 0u);
  ParsedBody closed =
      round_trip(secure::EncodeCursorCloseRequest(live->cursor_id));
  ASSERT_TRUE(closed.ok) << closed.error;
  ParsedBody stale = round_trip(secure::EncodeCursorNextRequest(live->cursor_id));
  EXPECT_FALSE(stale.ok);
  EXPECT_NE(stale.error.find("unknown cursor"), std::string::npos);
  ParsedBody again =
      round_trip(secure::EncodeCursorCloseRequest(live->cursor_id));
  EXPECT_TRUE(again.ok) << "double close must be an ack, not an error";

  ::close(fd);
  ExpectServerAlive();
}

TEST_F(TcpFrameFuzz, TornCursorFramesDoNotWedgeOrLeakCursors) {
  SeedCursorObjects(handler_.get(), 8);
  const Bytes open_request = CursorOpenRequest(/*page_size=*/2);

  // Cursor frames truncated at every interesting boundary, connection
  // dropped mid-header or mid-body: each costs only its connection.
  BinaryWriter framed;
  framed.WriteU32(static_cast<uint32_t>(open_request.size()) |
                  net::kFrameIdFlag);
  framed.WriteU32(7);
  framed.WriteRaw(open_request.data(), open_request.size());
  const Bytes full(framed.buffer().begin(), framed.buffer().end());
  for (size_t cut : {size_t{1}, size_t{4}, size_t{5}, size_t{8},
                     full.size() - 1}) {
    const int fd = RawConnect();
    ASSERT_EQ(::send(fd, full.data(), cut, MSG_NOSIGNAL),
              static_cast<ssize_t>(cut));
    ::close(fd);
  }

  // A real open followed by a torn kCursorNext and an abrupt
  // disconnect: the server drops the connection AND reaps its cursor.
  const int fd = RawConnect();
  ASSERT_TRUE(net::WriteFrame(fd, 1, open_request).ok());
  auto response = net::ReadFrame(fd);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ParsedBody open = ParseResponseBody(response->payload);
  ASSERT_TRUE(open.ok) << open.error;
  auto page = secure::DecodeCursorPage(open.payload);
  ASSERT_TRUE(page.ok());
  ASSERT_NE(page->cursor_id, 0u);
  EXPECT_EQ(handler_->cursors().counters().open, 1u);
  BinaryWriter torn;
  torn.WriteU32(64u | net::kFrameIdFlag);  // declares 64 bytes, sends 4
  torn.WriteU32(2);
  ASSERT_EQ(::send(fd, torn.buffer().data(), torn.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(torn.size()));
  ::close(fd);
  Stopwatch watch;
  while (handler_->cursors().counters().open > 0 &&
         watch.ElapsedSeconds() < 10) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(handler_->cursors().counters().open, 0u)
      << "torn connection leaked its cursor";
  ExpectServerAlive();
}

TEST_F(TcpFrameFuzz, UnflaggedHeadersCloseBeforeAnyDispatch) {
  // Every frame header carries bit 31. One without it — a bare u32
  // length, whatever follows — is a protocol violation: the server
  // closes the connection without handing anything to the handler, even
  // when the bytes after it would parse as a complete request.
  SeedCursorObjects(handler_.get(), 8);
  const uint64_t dispatched_before = server_->frames_dispatched();
  std::vector<secure::InsertItem> items(1);
  items[0].id = 777;
  items[0].pivot_distances = {1.0f, 2.0f, 3.0f, 4.0f};
  items[0].payload = Bytes{0x42};
  for (const Bytes& body :
       {secure::EncodeGetStatsRequest(), secure::EncodeGetMetricsRequest(),
        CursorOpenRequest(/*page_size=*/2),
        secure::EncodeInsertBatchRequest(items)}) {
    const int fd = RawConnect();
    BinaryWriter frame;
    frame.WriteU32(static_cast<uint32_t>(body.size()));
    frame.WriteRaw(body.data(), body.size());
    ASSERT_EQ(::send(fd, frame.buffer().data(), frame.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(frame.size()));
    EXPECT_TRUE(WaitForClose(fd)) << "server kept an unflagged frame";
    ::close(fd);
  }
  EXPECT_EQ(server_->frames_dispatched(), dispatched_before);
  EXPECT_EQ(handler_->index().size(), 8u) << "an unflagged insert ran";
  EXPECT_EQ(handler_->cursors().counters().opened_total, 0u);
  ExpectServerAlive();
}

TEST_F(TcpFrameFuzz, RetiredOpcodesAnswerCorruptionOnShardAndFacade) {
  // Opcodes 2, 3 and 5 (the single-query range, approximate k-NN and
  // delete) are retired: on the shard server and on the sharded facade
  // each gets a Corruption error frame, and the same connection then
  // answers a kPing.
  mindex::MIndexOptions options;
  options.num_pivots = 4;
  options.max_level = 3;
  auto facade = secure::ShardedServer::Create(options, 2);
  ASSERT_TRUE(facade.ok());
  net::TcpServer facade_server(facade->get());
  ASSERT_TRUE(facade_server.Start(0).ok());

  // Bodies shaped like the old requests: distances + radius, a query
  // signature + budget, an id + permutation.
  BinaryWriter range;
  range.WriteU8(2);
  range.WriteFloatVector({1.0f, 2.0f, 3.0f, 4.0f});
  range.WriteDouble(5.0);
  BinaryWriter knn;
  knn.WriteU8(3);
  knn.WriteFloatVector({});
  knn.WriteU32Vector({0, 1, 2, 3});
  knn.WriteBool(false);
  knn.WriteVarint(10);
  BinaryWriter del;
  del.WriteU8(5);
  del.WriteVarint(10000);
  del.WriteU32Vector({0, 1, 2, 3});

  for (const uint16_t port : {server_->port(), facade_server.port()}) {
    const int fd = net::RawConnect(port);
    uint32_t id = 1;
    for (const BinaryWriter* request : {&range, &knn, &del}) {
      const uint8_t opcode = request->buffer()[0];
      ASSERT_TRUE(net::WriteFrame(fd, id, request->buffer()).ok());
      auto frame = net::ReadFrame(fd);
      ASSERT_TRUE(frame.ok()) << frame.status().ToString();
      EXPECT_EQ(frame->request_id, id);
      ParsedBody parsed = ParseResponseBody(frame->payload);
      EXPECT_FALSE(parsed.ok);
      EXPECT_EQ(parsed.error,
                "Corruption: unknown opcode " + std::to_string(opcode));
      ++id;
    }
    ASSERT_TRUE(net::WriteFrame(fd, id, secure::EncodePingRequest()).ok());
    auto pong = net::ReadFrame(fd);
    ASSERT_TRUE(pong.ok()) << pong.status().ToString();
    EXPECT_EQ(pong->request_id, id);
    ParsedBody parsed = ParseResponseBody(pong->payload);
    EXPECT_TRUE(parsed.ok) << parsed.error;
    EXPECT_TRUE(parsed.payload.empty());
    ::close(fd);
  }
  facade_server.Stop();
  ExpectServerAlive();
}

TEST_F(TcpFrameFuzz, GetMetricsWithTrailingJunkOrTornFramesLeaksNothing) {
  // Opcode 16 with trailing bytes: the decoder rejects the request (the
  // strictly-empty body is the anti-confusion guard), so no registry
  // snapshot leaves the process, and the connection keeps serving.
  Rng rng(23);
  const int fd = RawConnect();
  for (int iter = 0; iter < 20; ++iter) {
    Bytes junk = secure::EncodeGetMetricsRequest();
    const size_t extra = 1 + rng.NextBounded(32);
    for (size_t i = 0; i < extra; ++i) {
      junk.push_back(static_cast<uint8_t>(rng.NextBounded(256)));
    }
    const uint32_t id = 1 + static_cast<uint32_t>(iter);
    ASSERT_TRUE(net::WriteFrame(fd, id, junk).ok());
    auto frame = net::ReadFrame(fd);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->request_id, id);
    ParsedBody parsed = ParseResponseBody(frame->payload);
    EXPECT_FALSE(parsed.ok);
    EXPECT_TRUE(parsed.payload.empty()) << "error responses carry no payload";
  }
  // A clean kGetMetrics on the same connection still works.
  ASSERT_TRUE(
      net::WriteFrame(fd, 900, secure::EncodeGetMetricsRequest())
          .ok());
  auto good = net::ReadFrame(fd);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  ParsedBody scraped = ParseResponseBody(good->payload);
  ASSERT_TRUE(scraped.ok) << scraped.error;
  EXPECT_TRUE(secure::DecodeMetricsResponse(scraped.payload).ok());
  ::close(fd);

  // Torn kGetMetrics frames cut at every header/body boundary cost only
  // their connection.
  BinaryWriter framed;
  const Bytes request = secure::EncodeGetMetricsRequest();
  framed.WriteU32(static_cast<uint32_t>(request.size()) | net::kFrameIdFlag);
  framed.WriteU32(5);
  framed.WriteRaw(request.data(), request.size());
  const Bytes full(framed.buffer().begin(), framed.buffer().end());
  for (size_t cut = 1; cut < full.size(); ++cut) {
    const int torn = RawConnect();
    ASSERT_EQ(::send(torn, full.data(), cut, MSG_NOSIGNAL),
              static_cast<ssize_t>(cut));
    ::close(torn);
  }
  ExpectServerAlive();
}

// ---------------------------------------------------------------------------
// Live SECURE-server fuzzing: hostile handshakes and records.
// ---------------------------------------------------------------------------

/// The TcpFrameFuzz setup with ChannelPolicy::kSecure: every violation
/// of the handshake or record layer must cost exactly the offending
/// connection, and well-behaved secure clients must keep working.
class SecureTcpFrameFuzz : public ::testing::Test {
 protected:
  static constexpr uint8_t kPskFill = 0x5C;

  void SetUp() override {
    mindex::MIndexOptions options;
    options.num_pivots = 4;
    options.max_level = 3;
    auto handler = secure::EncryptedMIndexServer::Create(options);
    ASSERT_TRUE(handler.ok());
    handler_ = std::move(*handler);
    net::TcpServerOptions server_options;
    server_options.max_frame_bytes = 1u << 20;
    server_options.channel_policy = net::ChannelPolicy::kSecure;
    server_options.secure_channel.psk = Bytes(32, kPskFill);
    server_ = std::make_unique<net::TcpServer>(handler_.get(),
                                               server_options);
    ASSERT_TRUE(server_->Start(0).ok());
  }

  void TearDown() override { server_->Stop(); }

  int RawConnect() { return net::RawConnect(server_->port()); }

  net::SecureChannelOptions ClientOptions() {
    net::SecureChannelOptions options;
    options.psk = Bytes(32, kPskFill);
    return options;
  }

  /// Completes a real handshake over a raw socket; returns the open
  /// channel (blocking reads, 5 s timeout).
  std::unique_ptr<net::SecureChannel> HandshakeOn(int fd) {
    auto channel = net::RunClientHandshake(fd, ClientOptions());
    EXPECT_TRUE(channel.ok()) << channel.status().ToString();
    return channel.ok() ? std::move(*channel) : nullptr;
  }

  void ExpectServerAlive() {
    auto transport =
        net::TcpTransport::Connect("127.0.0.1", server_->port(),
                                   net::ChannelPolicy::kSecure,
                                   ClientOptions());
    ASSERT_TRUE(transport.ok()) << transport.status().ToString();
    auto response = (*transport)->Call(secure::EncodeGetStatsRequest());
    ASSERT_TRUE(response.ok()) << response.status().ToString();
  }

  static bool WaitForClose(int fd) { return WaitForSocketClose(fd); }

  std::unique_ptr<secure::EncryptedMIndexServer> handler_;
  std::unique_ptr<net::TcpServer> server_;
};

TEST_F(SecureTcpFrameFuzz, GarbageAndTornHandshakes) {
  Rng rng(21);
  for (int iter = 0; iter < 40; ++iter) {
    const int fd = RawConnect();
    if (iter % 3 == 0) {
      // Pure noise instead of a hello.
      Bytes noise(1 + rng.NextBounded(200));
      for (auto& b : noise) b = static_cast<uint8_t>(rng.NextBounded(256));
      (void)::send(fd, noise.data(), noise.size(), MSG_NOSIGNAL);
    } else {
      // A valid hello torn at a random byte, then an abrupt close.
      auto handshake = net::ClientHandshake::Start(ClientOptions());
      ASSERT_TRUE(handshake.ok());
      const Bytes& hello = handshake->hello();
      const size_t cut = rng.NextBounded(hello.size());
      if (cut > 0) {
        (void)::send(fd, hello.data(), cut, MSG_NOSIGNAL);
      }
    }
    ::close(fd);
  }
  ExpectServerAlive();
}

TEST_F(SecureTcpFrameFuzz, PlaintextProtocolFramesAreHardClosed) {
  // Well-formed PLAINTEXT frames of the real protocol: a downgrade
  // attempt. The server must close without answering.
  const Bytes request = secure::EncodeGetStatsRequest();
  {
    // An unflagged header (no request id), the violation even a
    // plaintext server closes on.
    const int fd = RawConnect();
    BinaryWriter frame;
    frame.WriteU32(static_cast<uint32_t>(request.size()));
    frame.WriteRaw(request.data(), request.size());
    ASSERT_EQ(::send(fd, frame.buffer().data(), frame.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(frame.size()));
    EXPECT_TRUE(WaitForClose(fd))
        << "secure server served an unflagged frame";
    ::close(fd);
  }
  {
    const int fd = RawConnect();
    ASSERT_TRUE(net::WriteFrame(fd, 7, request).ok());
    EXPECT_TRUE(WaitForClose(fd));
    ::close(fd);
  }
  ExpectServerAlive();
}

TEST_F(SecureTcpFrameFuzz, GarbageAndOversizedRecordsAfterRealHandshake) {
  Rng rng(22);
  // Oversized declared record length.
  {
    const int fd = RawConnect();
    auto channel = HandshakeOn(fd);
    ASSERT_NE(channel, nullptr);
    const uint8_t huge[8] = {0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0};
    ASSERT_EQ(::send(fd, huge, sizeof(huge), MSG_NOSIGNAL), 8);
    EXPECT_TRUE(WaitForClose(fd))
        << "server kept a connection declaring a 2 GiB record";
    ::close(fd);
  }
  // Records full of noise: authentication must fail and close.
  for (int iter = 0; iter < 10; ++iter) {
    const int fd = RawConnect();
    auto channel = HandshakeOn(fd);
    ASSERT_NE(channel, nullptr);
    const uint32_t len = 48 + rng.NextBounded(128);
    Bytes bogus(4 + len);
    for (int i = 0; i < 4; ++i) {
      bogus[i] = static_cast<uint8_t>(len >> (8 * i));
    }
    for (size_t i = 4; i < bogus.size(); ++i) {
      bogus[i] = static_cast<uint8_t>(rng.NextBounded(256));
    }
    ASSERT_EQ(::send(fd, bogus.data(), bogus.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bogus.size()));
    EXPECT_TRUE(WaitForClose(fd));
    ::close(fd);
  }
  ExpectServerAlive();
}

TEST_F(SecureTcpFrameFuzz, TamperedAndReplayedRecordsCloseTheConnection) {
  const Bytes request = secure::EncodeGetStatsRequest();
  BinaryWriter frame;
  frame.WriteU32(static_cast<uint32_t>(request.size()) | net::kFrameIdFlag);
  frame.WriteU32(5);
  frame.WriteRaw(request.data(), request.size());

  // Tampered: flip one ciphertext bit of a genuine record.
  {
    const int fd = RawConnect();
    auto channel = HandshakeOn(fd);
    ASSERT_NE(channel, nullptr);
    auto record = channel->Seal(frame.buffer());
    ASSERT_TRUE(record.ok());
    Bytes tampered = *record;
    tampered[tampered.size() / 2] ^= 0x04;
    ASSERT_EQ(::send(fd, tampered.data(), tampered.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(tampered.size()));
    EXPECT_TRUE(WaitForClose(fd));
    ::close(fd);
  }
  // Replayed: the same genuine record twice. The first answers; the
  // second must kill the connection (sequence moved on).
  {
    const int fd = RawConnect();
    auto channel = HandshakeOn(fd);
    ASSERT_NE(channel, nullptr);
    auto record = channel->Seal(frame.buffer());
    ASSERT_TRUE(record.ok());
    ASSERT_EQ(::send(fd, record->data(), record->size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(record->size()));
    ASSERT_EQ(::send(fd, record->data(), record->size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(record->size()));
    EXPECT_TRUE(WaitForClose(fd));
    ::close(fd);
  }
  ExpectServerAlive();
}

TEST_F(SecureTcpFrameFuzz, MidPipelineDisconnectsDoNotWedgeTheLoop) {
  const Bytes request = secure::EncodeGetStatsRequest();
  for (int iter = 0; iter < 15; ++iter) {
    const int fd = RawConnect();
    auto channel = HandshakeOn(fd);
    ASSERT_NE(channel, nullptr);
    for (uint32_t id = 1; id <= 6; ++id) {
      BinaryWriter frame;
      frame.WriteU32(static_cast<uint32_t>(request.size()) |
                     net::kFrameIdFlag);
      frame.WriteU32(id);
      frame.WriteRaw(request.data(), request.size());
      auto record = channel->Seal(frame.buffer());
      ASSERT_TRUE(record.ok());
      ASSERT_EQ(::send(fd, record->data(), record->size(), MSG_NOSIGNAL),
                static_cast<ssize_t>(record->size()));
    }
    ::close(fd);  // responses in flight hit a dead connection
  }
  ExpectServerAlive();
  Stopwatch watch;
  while (server_->frames_completed() < server_->frames_dispatched() &&
         watch.ElapsedSeconds() < 10) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server_->frames_completed(), server_->frames_dispatched());
}

}  // namespace
}  // namespace simcloud
