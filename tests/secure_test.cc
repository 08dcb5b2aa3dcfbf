// Encrypted M-Index tests: secret key lifecycle, the distribution-hiding
// transform's mathematical properties, the wire protocol, and full
// client-server search correctness over the loopback transport.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "data/synthetic.h"
#include "metric/ground_truth.h"
#include "secure/client.h"
#include "secure/distance_transform.h"
#include "secure/privacy.h"
#include "secure/protocol.h"
#include "secure/secret_key.h"
#include "secure/server.h"

namespace simcloud {
namespace secure {
namespace {

using metric::VectorObject;

struct SecureWorld {
  metric::Dataset dataset{};
  SecretKey key;
  std::unique_ptr<EncryptedMIndexServer> server;
  std::unique_ptr<net::LoopbackTransport> transport;
  std::unique_ptr<EncryptionClient> client;
};

SecureWorld MakeSecureWorld(size_t num_pivots = 10, size_t bucket_capacity = 50,
                            bool with_transform = false) {
  SecureWorld world{
      .key =
          []() {
            // placeholder; replaced below
            auto pivots = mindex::PivotSet({VectorObject(0, {0.0f})});
            return SecretKey::Create(std::move(pivots), Bytes(16, 1)).value();
          }(),
      .server = nullptr,
      .transport = nullptr,
      .client = nullptr};

  data::MixtureOptions options;
  options.num_objects = 700;
  options.dimension = 8;
  options.num_clusters = 6;
  options.seed = 77;
  world.dataset = metric::Dataset(
      "test", data::MakeGaussianMixture(options),
      std::make_shared<metric::L2Distance>());

  auto pivots = mindex::PivotSet::SelectRandom(world.dataset.objects(),
                                               num_pivots, 78);
  EXPECT_TRUE(pivots.ok());
  auto key = SecretKey::Create(std::move(pivots).value(), Bytes(16, 0x42));
  EXPECT_TRUE(key.ok());
  world.key = std::move(key).value();
  if (with_transform) {
    EXPECT_TRUE(world.key.EnableDistanceTransform(99, 2000.0).ok());
  }

  mindex::MIndexOptions index_options;
  index_options.num_pivots = num_pivots;
  index_options.bucket_capacity = bucket_capacity;
  index_options.max_level = 4;
  auto server = EncryptedMIndexServer::Create(index_options);
  EXPECT_TRUE(server.ok());
  world.server = std::move(server).value();
  world.transport =
      std::make_unique<net::LoopbackTransport>(world.server.get());
  world.client = std::make_unique<EncryptionClient>(
      world.key, world.dataset.distance(), world.transport.get());
  return world;
}

// -------------------------------------------------------------- SecretKey

TEST(SecretKeyTest, CreateValidates) {
  EXPECT_FALSE(SecretKey::Create(mindex::PivotSet{}, Bytes(16)).ok());
  mindex::PivotSet pivots({VectorObject(0, {1.0f})});
  EXPECT_FALSE(SecretKey::Create(pivots, Bytes(10)).ok());
  EXPECT_TRUE(SecretKey::Create(pivots, Bytes(16)).ok());
}

TEST(SecretKeyTest, DeriveChannelKeyIsDomainSeparated) {
  mindex::PivotSet pivots({VectorObject(0, {1.0f})});
  auto key1 = SecretKey::Create(pivots, Bytes(16, 0x01));
  auto key2 = SecretKey::Create(pivots, Bytes(16, 0x02));
  ASSERT_TRUE(key1.ok() && key2.ok());
  // Deterministic per key (both ends derive the same PSK), 32 bytes,
  // key-dependent, and distinct from every other derived secret.
  EXPECT_EQ(key1->DeriveChannelKey(), key1->DeriveChannelKey());
  EXPECT_EQ(key1->DeriveChannelKey().size(), 32u);
  EXPECT_NE(key1->DeriveChannelKey(), key2->DeriveChannelKey());
  EXPECT_NE(key1->DeriveChannelKey(), key1->DeriveQueryMacKey());
  EXPECT_NE(key1->DeriveChannelKey(), Bytes(16, 0x01));
}

TEST(SecretKeyTest, MovedFromKeysAreCleared) {
  // Key hygiene regression: moving a SecretKey must leave the source
  // without key material (its buffer wiped), so a stale copy on the
  // stack or in a container cannot leak the AES key.
  mindex::PivotSet pivots({VectorObject(0, {1.0f})});
  auto created = SecretKey::Create(pivots, Bytes(16, 0x3C));
  ASSERT_TRUE(created.ok());
  SecretKey original = std::move(*created);
  EXPECT_TRUE(original.has_key_material());

  SecretKey moved_to = std::move(original);
  EXPECT_FALSE(original.has_key_material());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(moved_to.has_key_material());

  auto assigned = SecretKey::Create(pivots, Bytes(16, 0x3D));
  ASSERT_TRUE(assigned.ok());
  *assigned = std::move(moved_to);
  EXPECT_FALSE(moved_to.has_key_material());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(assigned->has_key_material());

  // Copies stay independent: copying does not clear the source.
  SecretKey copy = *assigned;
  EXPECT_TRUE(copy.has_key_material());
  EXPECT_TRUE(assigned->has_key_material());
  // The surviving key still works end to end.
  VectorObject object(7, {1.5f, 2.5f});
  auto ciphertext = copy.EncryptObject(object);
  ASSERT_TRUE(ciphertext.ok());
  auto back = copy.DecryptObject(*ciphertext);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, object);
}

TEST(SecretKeyTest, EncryptDecryptObjectRoundTrip) {
  mindex::PivotSet pivots({VectorObject(0, {1.0f})});
  auto key = SecretKey::Create(pivots, Bytes(16, 9));
  ASSERT_TRUE(key.ok());
  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    std::vector<float> values(rng.NextBounded(100) + 1);
    for (auto& v : values) v = rng.NextFloat();
    VectorObject object(rng.NextBounded(1000), std::move(values));
    auto ciphertext = key->EncryptObject(object);
    ASSERT_TRUE(ciphertext.ok());
    auto back = key->DecryptObject(*ciphertext);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, object);
  }
}

TEST(SecretKeyTest, WrongKeyCannotDecrypt) {
  mindex::PivotSet pivots({VectorObject(0, {1.0f})});
  auto key1 = SecretKey::Create(pivots, Bytes(16, 1));
  auto key2 = SecretKey::Create(pivots, Bytes(16, 2));
  ASSERT_TRUE(key1.ok());
  ASSERT_TRUE(key2.ok());
  VectorObject object(7, {1.0f, 2.0f, 3.0f});
  auto ciphertext = key1->EncryptObject(object);
  ASSERT_TRUE(ciphertext.ok());
  auto wrong = key2->DecryptObject(*ciphertext);
  // Either padding fails or the payload deserializes into garbage.
  if (wrong.ok()) {
    EXPECT_NE(*wrong, object);
  }
}

TEST(SecretKeyTest, SerializeRoundTripPreservesEverything) {
  auto dataset = data::MakeYeastLike(1);
  auto pivots = mindex::PivotSet::SelectRandom(dataset.objects(), 5, 2);
  ASSERT_TRUE(pivots.ok());
  auto key = SecretKey::Create(std::move(pivots).value(), Bytes(16, 0xAA));
  ASSERT_TRUE(key.ok());
  ASSERT_TRUE(key->EnableDistanceTransform(3, 1000.0).ok());

  auto blob = key->Serialize();
  ASSERT_TRUE(blob.ok());
  auto back = SecretKey::Deserialize(*blob);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_pivots(), 5u);
  EXPECT_TRUE(back->has_transform());
  // Same pivots.
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(back->pivots().pivot(i), key->pivots().pivot(i));
  }
  // Same transform behaviour.
  for (double x : {0.0, 1.5, 500.0, 5000.0}) {
    EXPECT_DOUBLE_EQ(back->transform().Apply(x), key->transform().Apply(x));
  }
  // Cross-decryption works.
  VectorObject object(3, {4.0f, 5.0f});
  auto ciphertext = key->EncryptObject(object);
  ASSERT_TRUE(ciphertext.ok());
  auto decrypted = back->DecryptObject(*ciphertext);
  ASSERT_TRUE(decrypted.ok());
  EXPECT_EQ(*decrypted, object);
}

TEST(SecretKeyTest, FromPasswordIsDeterministic) {
  mindex::PivotSet pivots({VectorObject(0, {1.0f})});
  const Bytes salt = {1, 2, 3, 4};
  auto key1 = SecretKey::FromPassword(pivots, "hunter2", salt, 100);
  auto key2 = SecretKey::FromPassword(pivots, "hunter2", salt, 100);
  ASSERT_TRUE(key1.ok());
  ASSERT_TRUE(key2.ok());
  VectorObject object(1, {2.0f});
  auto ciphertext = key1->EncryptObject(object);
  ASSERT_TRUE(ciphertext.ok());
  auto decrypted = key2->DecryptObject(*ciphertext);
  ASSERT_TRUE(decrypted.ok());
  EXPECT_EQ(*decrypted, object);
}

TEST(SecretKeyTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(SecretKey::Deserialize(Bytes{1, 2, 3}).ok());
}

// ---------------------------------------------------- ConcaveTransform

class TransformPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TransformPropertyTest, MonotoneConcaveSubadditive) {
  auto transform = ConcaveTransform::FromSeed(GetParam(), 100.0, 32);
  ASSERT_TRUE(transform.ok());
  Rng rng(GetParam() * 31 + 7);
  EXPECT_DOUBLE_EQ(transform->Apply(0.0), 0.0);
  for (int iter = 0; iter < 200; ++iter) {
    const double x = rng.NextUniform(0.0, 300.0);  // also beyond domain
    const double y = rng.NextUniform(0.0, 300.0);
    // Strict monotonicity.
    if (x < y) {
      EXPECT_LT(transform->Apply(x), transform->Apply(y));
    }
    // Subadditivity: T(x+y) <= T(x) + T(y). This is the property every
    // server-side pruning rule relies on (see distance_transform.h).
    EXPECT_LE(transform->Apply(x + y),
              transform->Apply(x) + transform->Apply(y) + 1e-9);
    // The derived filtering bound: |T(x) - T(y)| <= T(|x - y|).
    EXPECT_LE(std::fabs(transform->Apply(x) - transform->Apply(y)),
              transform->Apply(std::fabs(x - y)) + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransformPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(TransformTest, ValidatesArguments) {
  EXPECT_FALSE(ConcaveTransform::FromSeed(1, 0.0).ok());
  EXPECT_FALSE(ConcaveTransform::FromSeed(1, -5.0).ok());
  EXPECT_FALSE(ConcaveTransform::FromSeed(1, 10.0, 0).ok());
}

TEST(TransformTest, PreservesPermutations) {
  // Strictly increasing => the pivot permutation is unchanged.
  auto transform = ConcaveTransform::FromSeed(17, 50.0);
  ASSERT_TRUE(transform.ok());
  Rng rng(18);
  std::vector<float> distances(20);
  for (auto& d : distances) d = static_cast<float>(rng.NextUniform(0, 60));
  const auto before = mindex::DistancesToPermutation(distances);
  const auto after =
      mindex::DistancesToPermutation(transform->ApplyAll(distances));
  EXPECT_EQ(before, after);
}

// ---------------------------------------------------------------- Protocol

TEST(ProtocolTest, InsertRequestRoundTrip) {
  std::vector<InsertItem> items(2);
  items[0].id = 7;
  items[0].pivot_distances = {1.0f, 2.0f};
  items[0].payload = {9, 9, 9};
  items[1].id = 8;
  items[1].permutation = {1, 0};
  items[1].payload = {1};
  const Bytes encoded = EncodeInsertBatchRequest(items);
  auto request = DecodeRequest(encoded);
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->op, Op::kInsertBatch);
  ASSERT_EQ(request->insert_items.size(), 2u);
  EXPECT_EQ(request->insert_items[0].id, 7u);
  EXPECT_EQ(request->insert_items[0].pivot_distances,
            std::vector<float>({1.0f, 2.0f}));
  EXPECT_EQ(request->insert_items[1].permutation,
            mindex::Permutation({1, 0}));
}

TEST(ProtocolTest, SearchRequestsRoundTrip) {
  mindex::RangeQuery range_query;
  range_query.pivot_distances = {3.0f, 4.0f};
  range_query.radius = 2.5;
  auto range = DecodeRequest(EncodeRangeSearchBatchRequest({range_query}));
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->op, Op::kRangeSearchBatch);
  ASSERT_EQ(range->range_queries.size(), 1u);
  EXPECT_EQ(range->range_queries[0].pivot_distances,
            std::vector<float>({3.0f, 4.0f}));
  EXPECT_DOUBLE_EQ(range->range_queries[0].radius, 2.5);

  mindex::KnnQuery knn_query;
  knn_query.signature.permutation = {2, 0, 1};
  knn_query.cand_size = 150;
  auto knn = DecodeRequest(EncodeApproxKnnBatchRequest({knn_query}));
  ASSERT_TRUE(knn.ok());
  EXPECT_EQ(knn->op, Op::kApproxKnnBatch);
  ASSERT_EQ(knn->knn_queries.size(), 1u);
  EXPECT_EQ(knn->knn_queries[0].signature.permutation,
            mindex::Permutation({2, 0, 1}));
  EXPECT_EQ(knn->knn_queries[0].cand_size, 150u);
}

TEST(ProtocolTest, DeleteRequestRoundTrip) {
  auto request = DecodeRequest(EncodeDeleteBatchRequest({{42, {3, 1, 0, 2}}}));
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->op, Op::kDeleteBatch);
  ASSERT_EQ(request->delete_items.size(), 1u);
  EXPECT_EQ(request->delete_items[0].id, 42u);
  EXPECT_EQ(request->delete_items[0].permutation,
            mindex::Permutation({3, 1, 0, 2}));
}

TEST(ProtocolTest, RejectsTruncatedRequests) {
  const Bytes full = EncodeDeleteBatchRequest({{42, {3, 1, 0, 2}}});
  for (size_t len = 1; len + 1 < full.size(); len += 3) {
    Bytes truncated(full.begin(), full.begin() + len);
    EXPECT_FALSE(DecodeRequest(truncated).ok()) << "length " << len;
  }
}

TEST(ProtocolTest, BatchOfOneCandidateResponseRoundTrip) {
  mindex::CandidateList candidates(2);
  candidates[0] = {11, 0.5, Bytes{1, 2}};
  candidates[1] = {12, 1.5, Bytes{3}};
  mindex::BatchCandidates batch;
  batch.payloads = {Bytes{1, 2}, Bytes{3}};
  batch.per_query = {{{11, 0.5, 0}, {12, 1.5, 1}}};
  mindex::SearchStats stats;
  stats.cells_visited = 3;
  stats.candidates = 2;
  const Bytes encoded = EncodeBatchCandidateResponse(batch, {stats});
  auto response = DecodeBatchCandidateResponse(encoded);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->query_count(), 1u);
  const CandidateResponse only = response->Materialize(0);
  EXPECT_EQ(only.stats.cells_visited, 3u);
  EXPECT_EQ(only.stats.candidates, 2u);
  ASSERT_EQ(only.candidates.size(), 2u);
  for (size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(only.candidates[i].id, candidates[i].id);
    EXPECT_DOUBLE_EQ(only.candidates[i].score, candidates[i].score);
    EXPECT_EQ(only.candidates[i].payload, candidates[i].payload);
  }
}

TEST(ProtocolTest, RejectsUnknownOpcode) {
  EXPECT_FALSE(DecodeRequest(Bytes{0xFD}).ok());
  EXPECT_FALSE(DecodeRequest(Bytes{}).ok());
  // The retired single-query opcodes are unknown, whatever follows them.
  for (const uint8_t retired : {2, 3, 5}) {
    auto request = DecodeRequest(Bytes{retired, 1, 2, 3, 4});
    ASSERT_FALSE(request.ok());
    EXPECT_EQ(request.status().code(), StatusCode::kCorruption);
    EXPECT_EQ(request.status().message(),
              "unknown opcode " + std::to_string(retired));
  }
}

// ------------------------------------------------- Client-server searches

TEST(EncryptedMIndexTest, InsertThenStats) {
  auto world = MakeSecureWorld();
  ASSERT_TRUE(world.client
                  ->InsertBulk(world.dataset.objects(),
                               InsertStrategy::kPrecise, 200)
                  .ok());
  auto stats = world.client->GetServerStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->object_count, world.dataset.size());
  EXPECT_GT(stats->storage_bytes, 0u);
  EXPECT_GT(world.client->costs().encryption_nanos, 0);
  EXPECT_GT(world.client->costs().distance_nanos, 0);
  EXPECT_EQ(world.client->costs().objects_encrypted, world.dataset.size());
}

class SecureRangeTest : public ::testing::TestWithParam<bool> {};

TEST_P(SecureRangeTest, RangeSearchEqualsGroundTruth) {
  const bool with_transform = GetParam();
  auto world = MakeSecureWorld(10, 50, with_transform);
  ASSERT_TRUE(world.client
                  ->InsertBulk(world.dataset.objects(),
                               InsertStrategy::kPrecise, 500)
                  .ok());

  Rng rng(123);
  for (int iter = 0; iter < 8; ++iter) {
    const VectorObject& query =
        world.dataset.objects()[rng.NextBounded(world.dataset.size())];
    const double radius = rng.NextUniform(5.0, 60.0);
    const auto exact = metric::LinearRangeSearch(world.dataset, query, radius);

    auto answer = world.client->RangeSearch(query, radius);
    ASSERT_TRUE(answer.ok());
    ASSERT_EQ(answer->size(), exact.size())
        << "transform=" << with_transform << " radius=" << radius;
    for (size_t i = 0; i < exact.size(); ++i) {
      EXPECT_EQ((*answer)[i].id, exact[i].id);
      EXPECT_NEAR((*answer)[i].distance, exact[i].distance, 1e-5);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PlainAndTransformed, SecureRangeTest,
                         ::testing::Values(false, true),
                         [](const auto& info) {
                           return info.param ? "withTransform" : "plain";
                         });

TEST(EncryptedMIndexTest, ApproxKnnRecallIsHighWithGenerousCandidates) {
  auto world = MakeSecureWorld();
  ASSERT_TRUE(world.client
                  ->InsertBulk(world.dataset.objects(),
                               InsertStrategy::kPermutationOnly, 500)
                  .ok());
  Rng rng(321);
  double recall_total = 0;
  const int query_count = 10;
  for (int iter = 0; iter < query_count; ++iter) {
    const VectorObject& query =
        world.dataset.objects()[rng.NextBounded(world.dataset.size())];
    const auto exact = metric::LinearKnnSearch(world.dataset, query, 10);
    auto answer = world.client->ApproxKnn(query, 10, 300);
    ASSERT_TRUE(answer.ok());
    EXPECT_LE(answer->size(), 10u);
    recall_total += metric::RecallPercent(*answer, exact);
  }
  EXPECT_GT(recall_total / query_count, 80.0);
}

TEST(EncryptedMIndexTest, KnnAnswersHoldOnlyTheirKEntries) {
  // Refinement sizes a list for every candidate; the answer handed back
  // must not keep that room (callers store answers, and cand_size is
  // many times k).
  auto world = MakeSecureWorld();
  ASSERT_TRUE(world.client
                  ->InsertBulk(world.dataset.objects(),
                               InsertStrategy::kPrecise, 500)
                  .ok());
  const VectorObject& q0 = world.dataset.objects()[0];
  const VectorObject& q1 = world.dataset.objects()[1];
  auto single = world.client->ApproxKnn(q0, 5, 300);
  ASSERT_TRUE(single.ok());
  ASSERT_EQ(single->size(), 5u);
  EXPECT_EQ(single->capacity(), 5u);
  auto batch = world.client->ApproxKnnBatch({q0, q1}, 5, 300);
  ASSERT_TRUE(batch.ok());
  for (const auto& answer : *batch) {
    ASSERT_EQ(answer.size(), 5u);
    EXPECT_EQ(answer.capacity(), 5u);
  }
  auto precise = world.client->PreciseKnn(q0, 5);
  ASSERT_TRUE(precise.ok());
  ASSERT_EQ(precise->size(), 5u);
  EXPECT_EQ(precise->capacity(), 5u);
}

TEST(EncryptedMIndexTest, PreciseKnnEqualsGroundTruth) {
  auto world = MakeSecureWorld();
  ASSERT_TRUE(world.client
                  ->InsertBulk(world.dataset.objects(),
                               InsertStrategy::kPrecise, 500)
                  .ok());
  Rng rng(55);
  for (int iter = 0; iter < 6; ++iter) {
    const VectorObject& query =
        world.dataset.objects()[rng.NextBounded(world.dataset.size())];
    const auto exact = metric::LinearKnnSearch(world.dataset, query, 5);
    auto answer = world.client->PreciseKnn(query, 5);
    ASSERT_TRUE(answer.ok());
    ASSERT_EQ(answer->size(), exact.size());
    for (size_t i = 0; i < exact.size(); ++i) {
      EXPECT_EQ((*answer)[i].id, exact[i].id);
    }
  }
}

TEST(EncryptedMIndexTest, SearchCostsArePopulated) {
  auto world = MakeSecureWorld();
  ASSERT_TRUE(world.client
                  ->InsertBulk(world.dataset.objects(),
                               InsertStrategy::kPermutationOnly, 500)
                  .ok());
  world.client->ResetCosts();
  world.transport->ResetCosts();

  auto answer =
      world.client->ApproxKnn(world.dataset.objects()[0], 5, 100);
  ASSERT_TRUE(answer.ok());
  const ClientCosts& costs = world.client->costs();
  EXPECT_GT(costs.decryption_nanos, 0);
  EXPECT_GT(costs.distance_nanos, 0);
  EXPECT_EQ(costs.candidates_decrypted, 100u);
  // 10 pivots + 100 candidate refinements.
  EXPECT_EQ(costs.distance_computations, 110u);
  EXPECT_GT(world.transport->costs().bytes_received, 100u * 16u)
      << "candidate ciphertexts dominate the response volume";
}

TEST(EncryptedMIndexTest, CandidateVolumeScalesWithCandSize) {
  auto world = MakeSecureWorld();
  ASSERT_TRUE(world.client
                  ->InsertBulk(world.dataset.objects(),
                               InsertStrategy::kPermutationOnly, 500)
                  .ok());
  world.transport->ResetCosts();
  ASSERT_TRUE(world.client->ApproxKnn(world.dataset.objects()[0], 5, 50).ok());
  const uint64_t volume_small = world.transport->costs().bytes_received;
  world.transport->ResetCosts();
  ASSERT_TRUE(
      world.client->ApproxKnn(world.dataset.objects()[0], 5, 400).ok());
  const uint64_t volume_large = world.transport->costs().bytes_received;
  EXPECT_GT(volume_large, volume_small * 6);
}

TEST(EncryptedMIndexTest, ValidatesQueryArguments) {
  auto world = MakeSecureWorld();
  ASSERT_TRUE(world.client
                  ->InsertBulk(world.dataset.objects(),
                               InsertStrategy::kPrecise, 500)
                  .ok());
  const VectorObject& query = world.dataset.objects()[0];
  EXPECT_FALSE(world.client->RangeSearch(query, -1.0).ok());
  EXPECT_FALSE(world.client->ApproxKnn(query, 0, 10).ok());
  EXPECT_FALSE(world.client->ApproxKnn(query, 20, 10).ok());
  EXPECT_FALSE(world.client->PreciseKnn(query, 0).ok());
}

TEST(EncryptedMIndexTest, EarlyStopKnnMatchesFullRefinementAnswer) {
  auto world = MakeSecureWorld();
  ASSERT_TRUE(world.client
                  ->InsertBulk(world.dataset.objects(),
                               InsertStrategy::kPrecise, 500)
                  .ok());
  // With the candidate budget = whole collection, the candidate set is
  // everything, so the early-stop answer must equal exact ground truth.
  Rng rng(91);
  for (int iter = 0; iter < 5; ++iter) {
    const VectorObject& query =
        world.dataset.objects()[rng.NextBounded(world.dataset.size())];
    const size_t k = 10;
    const auto exact = metric::LinearKnnSearch(world.dataset, query, k);
    auto answer =
        world.client->ApproxKnnEarlyStop(query, k, world.dataset.size());
    ASSERT_TRUE(answer.ok());
    ASSERT_EQ(answer->size(), exact.size());
    for (size_t i = 0; i < exact.size(); ++i) {
      EXPECT_EQ((*answer)[i].id, exact[i].id) << "iter " << iter;
    }
  }
}

TEST(EncryptedMIndexTest, EarlyStopDecryptsFewerCandidates) {
  auto world = MakeSecureWorld();
  ASSERT_TRUE(world.client
                  ->InsertBulk(world.dataset.objects(),
                               InsertStrategy::kPrecise, 500)
                  .ok());
  world.client->ResetCosts();
  const size_t cand_size = 400;
  const VectorObject& query = world.dataset.objects()[3];

  ASSERT_TRUE(world.client->ApproxKnn(query, 10, cand_size).ok());
  const uint64_t full_decrypted = world.client->costs().candidates_decrypted;
  world.client->ResetCosts();

  ASSERT_TRUE(world.client->ApproxKnnEarlyStop(query, 10, cand_size).ok());
  const uint64_t early_decrypted =
      world.client->costs().candidates_decrypted;

  EXPECT_EQ(full_decrypted, cand_size);
  EXPECT_LT(early_decrypted, full_decrypted)
      << "early stop should save decryptions on pre-ranked candidates";
}

TEST(EncryptedMIndexTest, EarlyStopSoundUnderDistanceTransform) {
  auto world = MakeSecureWorld(10, 50, /*with_transform=*/true);
  ASSERT_TRUE(world.client
                  ->InsertBulk(world.dataset.objects(),
                               InsertStrategy::kPrecise, 500)
                  .ok());
  const VectorObject& query = world.dataset.objects()[8];
  const size_t k = 5;
  const auto exact = metric::LinearKnnSearch(world.dataset, query, k);
  auto answer =
      world.client->ApproxKnnEarlyStop(query, k, world.dataset.size());
  ASSERT_TRUE(answer.ok());
  ASSERT_EQ(answer->size(), exact.size());
  for (size_t i = 0; i < exact.size(); ++i) {
    EXPECT_EQ((*answer)[i].id, exact[i].id);
  }
}

TEST(EncryptedMIndexTest, DeleteRemovesObjectEndToEnd) {
  auto world = MakeSecureWorld();
  ASSERT_TRUE(world.client
                  ->InsertBulk(world.dataset.objects(),
                               InsertStrategy::kPrecise, 500)
                  .ok());
  const VectorObject& victim = world.dataset.objects()[42];

  auto before = world.client->RangeSearch(victim, 0.5);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(std::any_of(
      before->begin(), before->end(),
      [&](const metric::Neighbor& n) { return n.id == victim.id(); }));

  ASSERT_TRUE(world.client->Delete(victim).ok());
  auto after = world.client->RangeSearch(victim, 0.5);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(std::none_of(
      after->begin(), after->end(),
      [&](const metric::Neighbor& n) { return n.id == victim.id(); }));

  // Deleting again fails loudly — the server no longer has the object.
  EXPECT_FALSE(world.client->Delete(victim).ok());
}

TEST(EncryptedMIndexTest, DeleteWorksWithPermutationOnlyInserts) {
  auto world = MakeSecureWorld();
  ASSERT_TRUE(world.client
                  ->InsertBulk(world.dataset.objects(),
                               InsertStrategy::kPermutationOnly, 500)
                  .ok());
  const VectorObject& victim = world.dataset.objects()[10];
  ASSERT_TRUE(world.client->Delete(victim).ok());
  auto stats = world.client->GetServerStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->object_count, world.dataset.size() - 1);
}

TEST(EncryptedMIndexTest, AuthenticatedPayloadsDetectServerTampering) {
  // Build a world whose key seals payloads with the AEAD; then corrupt
  // the candidate bytes "on the server" and verify the client refuses.
  auto pivots_objects = []() {
    data::MixtureOptions options;
    options.num_objects = 200;
    options.dimension = 6;
    options.num_clusters = 4;
    options.seed = 31;
    return data::MakeGaussianMixture(options);
  }();
  metric::Dataset dataset("tamper", pivots_objects,
                          std::make_shared<metric::L2Distance>());
  auto pivots = mindex::PivotSet::SelectRandom(dataset.objects(), 6, 32);
  ASSERT_TRUE(pivots.ok());
  auto key = SecretKey::Create(std::move(pivots).value(), Bytes(16, 0x77),
                               PayloadScheme::kAuthenticated);
  ASSERT_TRUE(key.ok());

  // Round trip through the key works.
  auto sealed = key->EncryptObject(dataset.objects()[0]);
  ASSERT_TRUE(sealed.ok());
  auto opened = key->DecryptObject(*sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->id(), dataset.objects()[0].id());

  // A tampered payload is rejected instead of decrypting to garbage.
  Bytes corrupted = *sealed;
  corrupted[corrupted.size() / 2] ^= 0x01;
  EXPECT_FALSE(key->DecryptObject(corrupted).ok());

  // End-to-end: search still returns correct results under the AEAD.
  mindex::MIndexOptions index_options;
  index_options.num_pivots = 6;
  index_options.bucket_capacity = 50;
  index_options.max_level = 3;
  auto server = EncryptedMIndexServer::Create(index_options);
  ASSERT_TRUE(server.ok());
  net::LoopbackTransport transport(server->get());
  EncryptionClient client(*key, dataset.distance(), &transport);
  ASSERT_TRUE(
      client.InsertBulk(dataset.objects(), InsertStrategy::kPrecise, 100)
          .ok());
  const VectorObject& query = dataset.objects()[5];
  const auto exact = metric::LinearKnnSearch(dataset, query, 5);
  auto answer = client.PreciseKnn(query, 5);
  ASSERT_TRUE(answer.ok());
  ASSERT_EQ(answer->size(), exact.size());
  for (size_t i = 0; i < exact.size(); ++i) {
    EXPECT_EQ((*answer)[i].id, exact[i].id);
  }
}

TEST(SecretKeyTest, AuthenticatedSchemeSurvivesSerialization) {
  mindex::PivotSet pivots({VectorObject(0, {1.0f, 2.0f})});
  auto key = SecretKey::Create(pivots, Bytes(16, 3),
                               PayloadScheme::kAuthenticated);
  ASSERT_TRUE(key.ok());
  auto blob = key->Serialize();
  ASSERT_TRUE(blob.ok());
  auto restored = SecretKey::Deserialize(*blob);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->scheme(), PayloadScheme::kAuthenticated);

  // Cross-compatibility: a payload sealed by the original opens under the
  // restored key.
  VectorObject object(7, {3.0f, 4.0f});
  auto sealed = key->EncryptObject(object);
  ASSERT_TRUE(sealed.ok());
  auto opened = restored->DecryptObject(*sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->id(), 7u);
}

TEST(PrivacyTest, TaxonomyNamesAreStable) {
  EXPECT_STREQ(PrivacyLevelName(PrivacyLevel::kMsObjectEncryption),
               "ms-object-encryption");
  EXPECT_STREQ(PrivacyLevelName(PrivacyLevel::kDistributionHiding),
               "distribution-hiding");
  EXPECT_NE(std::string(AttackerView(PrivacyLevel::kMsObjectEncryption)),
            std::string(AttackerView(PrivacyLevel::kNoEncryption)));
}

}  // namespace
}  // namespace secure
}  // namespace simcloud
