// Query-authentication tests: authorized clients pass transparently,
// forged / unauthenticated / tampered / replayed requests are rejected,
// the nonce cache stays bounded, and the whole thing composes with the
// encrypted search stack end to end.

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "metric/ground_truth.h"
#include "net/tcp.h"
#include "secure/auth.h"
#include "secure/client.h"
#include "secure/server.h"

namespace simcloud {
namespace secure {
namespace {

using metric::VectorObject;

/// A handler that records what reaches it and echoes the request.
class EchoHandler : public net::RequestHandler {
 public:
  Result<Bytes> Handle(const Bytes& request) override {
    ++calls_;
    last_request_ = request;
    return request;
  }
  uint64_t calls() const { return calls_; }
  const Bytes& last_request() const { return last_request_; }

 private:
  uint64_t calls_ = 0;
  Bytes last_request_;
};

TEST(AuthTest, AuthorizedRequestPassesThroughUnchanged) {
  EchoHandler echo;
  const Bytes mac_key(32, 0x4D);
  AuthenticatingHandler handler(mac_key, &echo);
  net::LoopbackTransport inner(&handler);
  AuthenticatingTransport transport(mac_key, &inner);

  const Bytes request = {1, 2, 3, 4, 5};
  auto response = transport.Call(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(*response, request);
  EXPECT_EQ(echo.calls(), 1u);
  EXPECT_EQ(echo.last_request(), request);
  EXPECT_EQ(handler.rejected_count(), 0u);
}

TEST(AuthTest, UnauthenticatedRequestIsRejected) {
  EchoHandler echo;
  AuthenticatingHandler handler(Bytes(32, 0x4D), &echo);
  net::LoopbackTransport bare(&handler);

  // A raw request without the header never reaches the inner handler.
  auto response = bare.Call(Bytes{9, 9, 9});
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(echo.calls(), 0u);
  EXPECT_EQ(handler.rejected_count(), 1u);
}

TEST(AuthTest, WrongMacKeyIsRejected) {
  EchoHandler echo;
  AuthenticatingHandler handler(Bytes(32, 0x01), &echo);
  net::LoopbackTransport inner(&handler);
  AuthenticatingTransport wrong_key(Bytes(32, 0x02), &inner);

  auto response = wrong_key.Call(Bytes{1, 2, 3});
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(echo.calls(), 0u);
  EXPECT_EQ(handler.rejected_count(), 1u);
}

TEST(AuthTest, TamperedRequestBodyIsRejected) {
  EchoHandler echo;
  const Bytes mac_key(32, 0x4D);
  AuthenticatingHandler handler(mac_key, &echo);

  /// Capture an authentic frame, then corrupt the body.
  class CapturingTransport : public net::Transport {
   public:
    Result<Bytes> Call(const Bytes& request) override {
      captured = request;
      return Bytes{};
    }
    const net::TransportCosts& costs() const override { return costs_; }
    void ResetCosts() override {}
    Bytes captured;

   private:
    net::TransportCosts costs_;
  };
  CapturingTransport capture;
  AuthenticatingTransport transport(mac_key, &capture);
  ASSERT_TRUE(transport.Call(Bytes{1, 2, 3, 4}).ok());

  Bytes tampered = capture.captured;
  tampered.back() ^= 0xFF;  // flip a body bit
  EXPECT_FALSE(handler.Handle(tampered).ok());
  EXPECT_EQ(handler.rejected_count(), 1u);
}

TEST(AuthTest, ReplayedRequestIsRejected) {
  EchoHandler echo;
  const Bytes mac_key(32, 0x4D);
  AuthenticatingHandler handler(mac_key, &echo);

  class CapturingTransport : public net::Transport {
   public:
    explicit CapturingTransport(net::RequestHandler* handler)
        : handler_(handler) {}
    Result<Bytes> Call(const Bytes& request) override {
      captured = request;
      return handler_->Handle(request);
    }
    const net::TransportCosts& costs() const override { return costs_; }
    void ResetCosts() override {}
    Bytes captured;

   private:
    net::RequestHandler* handler_;
    net::TransportCosts costs_;
  };
  CapturingTransport capture(&handler);
  AuthenticatingTransport transport(mac_key, &capture);
  ASSERT_TRUE(transport.Call(Bytes{5, 6, 7}).ok());
  EXPECT_EQ(echo.calls(), 1u);

  // An attacker replays the captured (authentic) frame verbatim.
  auto replay = handler.Handle(capture.captured);
  EXPECT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(echo.calls(), 1u);
}

TEST(AuthTest, NonceCacheIsBoundedButFreshRequestsKeepWorking) {
  EchoHandler echo;
  const Bytes mac_key(32, 0x4D);
  AuthenticatingHandler handler(mac_key, &echo, /*replay_window=*/16);
  net::LoopbackTransport inner(&handler);
  AuthenticatingTransport transport(mac_key, &inner);

  for (int i = 0; i < 200; ++i) {
    auto response = transport.Call(Bytes{static_cast<uint8_t>(i)});
    ASSERT_TRUE(response.ok()) << "request " << i;
  }
  EXPECT_EQ(echo.calls(), 200u);
  EXPECT_EQ(handler.rejected_count(), 0u);
}

TEST(AuthTest, ComposesWithEncryptedSearchEndToEnd) {
  data::MixtureOptions options;
  options.num_objects = 300;
  options.dimension = 8;
  options.num_clusters = 4;
  options.seed = 71;
  metric::Dataset dataset("auth", data::MakeGaussianMixture(options),
                          std::make_shared<metric::L2Distance>());
  auto pivots = mindex::PivotSet::SelectRandom(dataset.objects(), 8, 72);
  ASSERT_TRUE(pivots.ok());
  auto key = SecretKey::Create(std::move(pivots).value(), Bytes(16, 0x11));
  ASSERT_TRUE(key.ok());

  mindex::MIndexOptions index_options;
  index_options.num_pivots = 8;
  index_options.max_level = 4;
  auto server = EncryptedMIndexServer::Create(index_options);
  ASSERT_TRUE(server.ok());

  // Server provisioned with the derived MAC key.
  AuthenticatingHandler auth_handler(key->DeriveQueryMacKey(),
                                     server->get());
  net::LoopbackTransport inner(&auth_handler);
  AuthenticatingTransport auth_transport(key->DeriveQueryMacKey(), &inner);

  EncryptionClient client(*key, dataset.distance(), &auth_transport);
  ASSERT_TRUE(
      client.InsertBulk(dataset.objects(), InsertStrategy::kPrecise, 100)
          .ok());

  const VectorObject& query = dataset.objects()[17];
  const auto exact = metric::LinearRangeSearch(dataset, query, 2.0);
  auto answer = client.RangeSearch(query, 2.0);
  ASSERT_TRUE(answer.ok());
  ASSERT_EQ(answer->size(), exact.size());
  for (size_t i = 0; i < exact.size(); ++i) {
    EXPECT_EQ((*answer)[i].id, exact[i].id);
  }

  // An attacker without the MAC key cannot get anything past the door —
  // exactly the arbitrary-permutation probe of paper Section 4.3.
  net::LoopbackTransport attacker(&auth_handler);
  mindex::QuerySignature probe;
  probe.permutation = {0, 1, 2, 3, 4, 5, 6, 7};
  auto probe_response =
      attacker.Call(EncodeApproxKnnBatchRequest({mindex::KnnQuery{probe, 50}}));
  EXPECT_FALSE(probe_response.ok());
  EXPECT_GE(auth_handler.rejected_count(), 1u);
}

TEST(AuthTest, DerivedMacKeyIsStableAndKeyDependent) {
  mindex::PivotSet pivots({VectorObject(0, {1.0f})});
  auto key1 = SecretKey::Create(pivots, Bytes(16, 0x01));
  auto key2 = SecretKey::Create(pivots, Bytes(16, 0x02));
  ASSERT_TRUE(key1.ok());
  ASSERT_TRUE(key2.ok());
  EXPECT_EQ(key1->DeriveQueryMacKey(), key1->DeriveQueryMacKey());
  EXPECT_NE(key1->DeriveQueryMacKey(), key2->DeriveQueryMacKey());
  // The MAC key must not equal the AES key (domain separation).
  EXPECT_NE(key1->DeriveQueryMacKey(), Bytes(16, 0x01));
}

TEST(AuthTest, PipelinedRequestsComposeWithRequestIdFrames) {
  // The lightweight plaintext-deployment alternative to the secure
  // channel: AuthenticatingHandler in front of the server behind a real
  // TcpServer, and an AuthenticatingTransport that pipelines many
  // authenticated requests as bit-31 frames on ONE connection. Each
  // request carries its own nonce+tag inside the frame body, so
  // out-of-order responses resolve by ticket without corrupting the
  // framing.
  EchoHandler echo;
  const Bytes mac_key(32, 0x4E);
  AuthenticatingHandler handler(mac_key, &echo);
  net::TcpServer server(&handler);
  ASSERT_TRUE(server.Start(0).ok());
  auto inner = net::TcpTransport::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(inner.ok());
  AuthenticatingTransport transport(mac_key, inner->get());

  constexpr int kInFlight = 24;
  std::vector<uint64_t> tickets;
  for (int i = 0; i < kInFlight; ++i) {
    auto ticket = transport.Submit(Bytes(32, static_cast<uint8_t>(i)));
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    tickets.push_back(*ticket);
  }
  for (int i = kInFlight - 1; i >= 0; --i) {  // collect in reverse
    auto response = transport.Collect(tickets[i]);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(*response, Bytes(32, static_cast<uint8_t>(i)));
  }
  EXPECT_EQ(echo.calls(), static_cast<uint64_t>(kInFlight));
  EXPECT_EQ(handler.rejected_count(), 0u);

  // Synchronous Calls, each under its own request id, interleave with
  // pipelined traffic; a Call does not wait for an earlier Submit.
  auto first = transport.Submit(Bytes{1, 2, 3});
  ASSERT_TRUE(first.ok());
  auto called = transport.Call(Bytes{9, 9});
  ASSERT_TRUE(called.ok());
  EXPECT_EQ(*called, (Bytes{9, 9}));
  auto collected = transport.Collect(*first);
  ASSERT_TRUE(collected.ok());
  EXPECT_EQ(*collected, (Bytes{1, 2, 3}));

  // An unauthenticated pipelined request is still rejected per-request;
  // the connection (and the authenticated traffic) lives on.
  auto bare = (*inner)->Submit(Bytes{7, 7, 7});
  ASSERT_TRUE(bare.ok());
  auto rejected = (*inner)->Collect(*bare);
  EXPECT_FALSE(rejected.ok());
  EXPECT_GE(handler.rejected_count(), 1u);
  EXPECT_TRUE(transport.Call(Bytes{4}).ok());
  server.Stop();
}

TEST(AuthTest, SubmitOnNonPipelinedInnerFailsCleanly) {
  /// A Transport that is NOT pipelined.
  class CallOnlyTransport : public net::Transport {
   public:
    explicit CallOnlyTransport(net::RequestHandler* handler)
        : handler_(handler) {}
    Result<Bytes> Call(const Bytes& request) override {
      return handler_->Handle(request);
    }
    const net::TransportCosts& costs() const override { return costs_; }
    void ResetCosts() override { costs_.Clear(); }

   private:
    net::RequestHandler* handler_;
    net::TransportCosts costs_;
  };

  EchoHandler echo;
  const Bytes mac_key(32, 0x4F);
  AuthenticatingHandler handler(mac_key, &echo);
  CallOnlyTransport inner(&handler);
  AuthenticatingTransport transport(mac_key, &inner);
  auto ticket = transport.Submit(Bytes{1});
  ASSERT_FALSE(ticket.ok());
  EXPECT_EQ(ticket.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(transport.Call(Bytes{1}).ok());  // Call still works
}

}  // namespace
}  // namespace secure
}  // namespace simcloud
