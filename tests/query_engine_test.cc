// Batched query engine tests: FetchMany ordering on both storage
// backends, byte-identity of a batch with batches of one and with the
// index's single-query API (loopback and sharded), and payload-cache
// correctness across evictions.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "common/rng.h"
#include "common/serialize.h"
#include "data/synthetic.h"
#include "mindex/mindex.h"
#include "mindex/payload_cache.h"
#include "mindex/pivot_set.h"
#include "mindex/storage.h"
#include "secure/client.h"
#include "secure/protocol.h"
#include "secure/secret_key.h"
#include "secure/server.h"
#include "secure/sharded_server.h"

namespace simcloud {
namespace mindex {
namespace {

Bytes RandomPayload(Rng* rng, size_t max_len) {
  Bytes payload(1 + rng->NextBounded(max_len));
  for (auto& b : payload) b = static_cast<uint8_t>(rng->NextBounded(256));
  return payload;
}

// ------------------------------------------------------------- FetchMany

class FetchManyTest : public ::testing::TestWithParam<StorageKind> {
 protected:
  void SetUp() override {
    path_ = testing::TempDir() + "/simcloud_fetch_many_test.bin";
    auto storage = MakeStorage(GetParam(), path_);
    ASSERT_TRUE(storage.ok());
    storage_ = std::move(storage).value();
  }
  void TearDown() override {
    storage_.reset();
    std::remove(path_.c_str());
  }

  std::string path_;
  std::unique_ptr<BucketStorage> storage_;
};

TEST_P(FetchManyTest, ReturnsPayloadsInHandleOrderForShuffledHandles) {
  Rng rng(11);
  std::vector<PayloadHandle> handles;
  std::vector<Bytes> expected;
  for (int i = 0; i < 200; ++i) {
    Bytes payload = RandomPayload(&rng, 300);
    auto handle = storage_->Store(payload);
    ASSERT_TRUE(handle.ok());
    handles.push_back(*handle);
    expected.push_back(std::move(payload));
  }

  // Shuffle the handle order; out[i] must still match handles[i].
  std::vector<size_t> positions(handles.size());
  for (size_t i = 0; i < positions.size(); ++i) positions[i] = i;
  rng.Shuffle(positions);
  std::vector<PayloadHandle> shuffled;
  for (size_t pos : positions) shuffled.push_back(handles[pos]);

  std::vector<Bytes> fetched;
  ASSERT_TRUE(storage_->FetchMany(shuffled, &fetched).ok());
  ASSERT_EQ(fetched.size(), shuffled.size());
  for (size_t i = 0; i < shuffled.size(); ++i) {
    EXPECT_EQ(fetched[i], expected[positions[i]]) << "position " << i;
  }
}

TEST_P(FetchManyTest, HandlesDuplicatesEmptyBatchAndEmptyPayloads) {
  auto a = storage_->Store(Bytes{1, 2, 3});
  auto b = storage_->Store(Bytes{});
  auto c = storage_->Store(Bytes{9});
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());

  std::vector<Bytes> fetched;
  ASSERT_TRUE(storage_->FetchMany({}, &fetched).ok());
  EXPECT_TRUE(fetched.empty());

  const std::vector<PayloadHandle> handles = {*c, *a, *b, *a};
  ASSERT_TRUE(storage_->FetchMany(handles, &fetched).ok());
  ASSERT_EQ(fetched.size(), 4u);
  EXPECT_EQ(fetched[0], Bytes{9});
  EXPECT_EQ(fetched[1], (Bytes{1, 2, 3}));
  EXPECT_TRUE(fetched[2].empty());
  EXPECT_EQ(fetched[3], (Bytes{1, 2, 3}));
}

TEST_P(FetchManyTest, RejectsOutOfRangeHandle) {
  ASSERT_TRUE(storage_->Store(Bytes{1}).ok());
  std::vector<Bytes> fetched;
  const std::vector<PayloadHandle> handles = {0, 17};
  EXPECT_EQ(storage_->FetchMany(handles, &fetched).code(),
            StatusCode::kNotFound);
}

INSTANTIATE_TEST_SUITE_P(Backends, FetchManyTest,
                         ::testing::Values(StorageKind::kMemory,
                                           StorageKind::kDisk));

TEST(DiskStorageTest, OperationsAfterCloseFailCleanly) {
  const std::string path =
      testing::TempDir() + "/simcloud_disk_close_test.bin";
  auto storage = DiskStorage::Create(path);
  ASSERT_TRUE(storage.ok());
  ASSERT_TRUE((*storage)->Store(Bytes{1, 2}).ok());
  ASSERT_TRUE((*storage)->Close().ok());

  EXPECT_EQ((*storage)->Store(Bytes{3}).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*storage)->Fetch(0).status().code(),
            StatusCode::kFailedPrecondition);
  std::vector<Bytes> fetched;
  const std::vector<PayloadHandle> handles = {0};
  EXPECT_EQ((*storage)->FetchMany(handles, &fetched).code(),
            StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(DiskStorageTest, TruncatedBackingFileIsCorruptionNotSilence) {
  const std::string path =
      testing::TempDir() + "/simcloud_disk_truncate_test.bin";
  auto storage = DiskStorage::Create(path);
  ASSERT_TRUE(storage.ok());
  auto handle = (*storage)->Store(Bytes(64, 0xAB));
  ASSERT_TRUE(handle.ok());

  // Truncate the backing file behind the storage's back.
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputc(0xAB, f);
  std::fclose(f);

  EXPECT_EQ((*storage)->Fetch(*handle).status().code(),
            StatusCode::kCorruption);
  std::vector<Bytes> fetched;
  const std::vector<PayloadHandle> handles = {*handle};
  EXPECT_EQ((*storage)->FetchMany(handles, &fetched).code(),
            StatusCode::kCorruption);
  std::remove(path.c_str());
}

// ---------------------------------------------------------- PayloadCache

class PayloadCacheTest : public ::testing::TestWithParam<StorageKind> {
 protected:
  void SetUp() override {
    path_ = testing::TempDir() + "/simcloud_payload_cache_test.bin";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::unique_ptr<PayloadCache> MakeCache(uint64_t capacity_bytes,
                                          size_t num_shards) {
    auto storage = MakeStorage(GetParam(), path_);
    EXPECT_TRUE(storage.ok());
    return std::make_unique<PayloadCache>(std::move(storage).value(),
                                          capacity_bytes, num_shards);
  }

  std::string path_;
};

TEST_P(PayloadCacheTest, ReturnsCorrectBytesAfterEviction) {
  // Capacity fits only a few payloads, so a scan evicts continuously.
  auto cache = MakeCache(/*capacity_bytes=*/400, /*num_shards=*/2);
  Rng rng(23);
  std::vector<PayloadHandle> handles;
  std::vector<Bytes> expected;
  for (int i = 0; i < 50; ++i) {
    Bytes payload = RandomPayload(&rng, 100);
    auto handle = cache->Store(payload);
    ASSERT_TRUE(handle.ok());
    handles.push_back(*handle);
    expected.push_back(std::move(payload));
  }

  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < handles.size(); ++i) {
      auto got = cache->Fetch(handles[i]);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(*got, expected[i]) << "round " << round << " handle " << i;
    }
  }
  const PayloadCache::CacheStats stats = cache->stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.misses, 0u);
  EXPECT_LE(stats.cached_bytes, cache->capacity_bytes());
}

TEST_P(PayloadCacheTest, FetchManyMixesHitsAndMissesCorrectly) {
  auto cache = MakeCache(/*capacity_bytes=*/100000, /*num_shards=*/4);
  Rng rng(29);
  std::vector<PayloadHandle> handles;
  std::vector<Bytes> expected;
  for (int i = 0; i < 60; ++i) {
    Bytes payload = RandomPayload(&rng, 200);
    auto handle = cache->Store(payload);
    ASSERT_TRUE(handle.ok());
    handles.push_back(*handle);
    expected.push_back(std::move(payload));
  }
  // Warm half of the cache, then fetch everything in one batch.
  for (size_t i = 0; i < handles.size(); i += 2) {
    ASSERT_TRUE(cache->Fetch(handles[i]).ok());
  }
  std::vector<Bytes> fetched;
  ASSERT_TRUE(cache->FetchMany(handles, &fetched).ok());
  ASSERT_EQ(fetched.size(), handles.size());
  for (size_t i = 0; i < handles.size(); ++i) {
    EXPECT_EQ(fetched[i], expected[i]);
  }
  const PayloadCache::CacheStats stats = cache->stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);

  // Everything now cached: a second batch is all hits.
  const uint64_t misses_before = stats.misses;
  ASSERT_TRUE(cache->FetchMany(handles, &fetched).ok());
  EXPECT_EQ(cache->stats().misses, misses_before);
}

INSTANTIATE_TEST_SUITE_P(Backends, PayloadCacheTest,
                         ::testing::Values(StorageKind::kMemory,
                                           StorageKind::kDisk));

// ------------------------------------------- parallel == serial (batch)

// The parallel batch paths are pure schedule changes: with
// query_threads > 1 the distinct-query evaluation fans across workers,
// but every byte of the result — payload dictionary, per-query refs,
// stats — must match the serial engine exactly.
class ParallelBatchTest : public ::testing::TestWithParam<StorageKind> {
 protected:
  void SetUp() override {
    // The env override would make both indexes use the same thread
    // count, turning the comparison into a tautology.
    ::unsetenv("SIMCLOUD_QUERY_THREADS");
    serial_path_ = testing::TempDir() + "/simcloud_parallel_serial.bin";
    parallel_path_ = testing::TempDir() + "/simcloud_parallel_parallel.bin";
  }
  void TearDown() override {
    std::remove(serial_path_.c_str());
    std::remove(parallel_path_.c_str());
  }

  std::unique_ptr<MIndex> BuildIndex(
      const std::vector<metric::VectorObject>& objects,
      const PivotSet& pivots, const metric::DistanceFunction& metric,
      int query_threads, const std::string& path) {
    MIndexOptions options;
    options.num_pivots = pivots.size();
    options.bucket_capacity = 24;
    options.max_level = 4;
    options.storage_kind = GetParam();
    options.disk_path = path;
    options.query_threads = query_threads;
    auto index = MIndex::Create(options);
    EXPECT_TRUE(index.ok()) << index.status().ToString();
    for (const auto& object : objects) {
      std::vector<float> distances = pivots.ComputeDistances(object, metric);
      BinaryWriter payload;
      object.Serialize(&payload);
      Status st = (*index)->Insert(object.id(), std::move(distances), {},
                                   payload.buffer());
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
    return std::move(index).value();
  }

  static void ExpectIdentical(const BatchCandidates& serial,
                              const BatchCandidates& parallel,
                              const std::vector<SearchStats>& serial_stats,
                              const std::vector<SearchStats>& parallel_stats) {
    EXPECT_EQ(serial.payloads, parallel.payloads);
    ASSERT_EQ(serial.per_query.size(), parallel.per_query.size());
    for (size_t q = 0; q < serial.per_query.size(); ++q) {
      ASSERT_EQ(serial.per_query[q].size(), parallel.per_query[q].size())
          << "query " << q;
      for (size_t i = 0; i < serial.per_query[q].size(); ++i) {
        EXPECT_EQ(serial.per_query[q][i].id, parallel.per_query[q][i].id);
        EXPECT_EQ(serial.per_query[q][i].score,
                  parallel.per_query[q][i].score);
        EXPECT_EQ(serial.per_query[q][i].payload_index,
                  parallel.per_query[q][i].payload_index);
      }
    }
    ASSERT_EQ(serial_stats.size(), parallel_stats.size());
    for (size_t q = 0; q < serial_stats.size(); ++q) {
      EXPECT_EQ(serial_stats[q].cells_visited,
                parallel_stats[q].cells_visited) << "query " << q;
      EXPECT_EQ(serial_stats[q].cells_pruned, parallel_stats[q].cells_pruned);
      EXPECT_EQ(serial_stats[q].entries_scanned,
                parallel_stats[q].entries_scanned);
      EXPECT_EQ(serial_stats[q].entries_filtered,
                parallel_stats[q].entries_filtered);
      EXPECT_EQ(serial_stats[q].candidates, parallel_stats[q].candidates);
    }
  }

  std::string serial_path_;
  std::string parallel_path_;
};

TEST_P(ParallelBatchTest, BatchResultsAreByteIdenticalToSerial) {
  data::MixtureOptions mixture;
  mixture.num_objects = 300;
  mixture.dimension = 8;
  mixture.num_clusters = 8;
  mixture.seed = 77;
  const auto objects = data::MakeGaussianMixture(mixture);
  metric::L2Distance metric;
  auto pivots = PivotSet::SelectRandom(objects, 12, 78);
  ASSERT_TRUE(pivots.ok());

  auto serial = BuildIndex(objects, *pivots, metric, 0, serial_path_);
  auto parallel = BuildIndex(objects, *pivots, metric, 3, parallel_path_);
  ASSERT_NE(serial, nullptr);
  ASSERT_NE(parallel, nullptr);
  EXPECT_EQ(serial->options().query_threads, 0);
  EXPECT_EQ(parallel->options().query_threads, 3);

  // Range batch: varied radii, duplicated hot queries, one empty-result
  // radius. 17 queries over 9 distinct signatures.
  std::vector<RangeQuery> range_batch;
  for (size_t q = 0; q < 8; ++q) {
    RangeQuery query;
    query.pivot_distances =
        pivots->ComputeDistances(objects[q * 31], metric);
    query.radius = 0.4 + 0.25 * static_cast<double>(q % 4);
    range_batch.push_back(std::move(query));
  }
  range_batch.push_back(range_batch[2]);  // duplicates, interleaved
  range_batch.push_back(range_batch[5]);
  range_batch.push_back(range_batch[2]);
  RangeQuery empty_query;
  empty_query.pivot_distances =
      pivots->ComputeDistances(objects[111], metric);
  empty_query.radius = 1e-9;
  range_batch.push_back(empty_query);
  for (size_t q = 0; q < 5; ++q) range_batch.push_back(range_batch[q]);

  std::vector<SearchStats> serial_stats, parallel_stats;
  auto serial_range = serial->RangeSearchBatchCandidates(range_batch,
                                                         &serial_stats);
  auto parallel_range = parallel->RangeSearchBatchCandidates(
      range_batch, &parallel_stats);
  ASSERT_TRUE(serial_range.ok()) << serial_range.status().ToString();
  ASSERT_TRUE(parallel_range.ok()) << parallel_range.status().ToString();
  ExpectIdentical(*serial_range, *parallel_range, serial_stats,
                  parallel_stats);

  // k-NN batch: mixed candidate sizes, whole-cells variant, duplicates.
  std::vector<KnnQuery> knn_batch;
  for (size_t q = 0; q < 8; ++q) {
    QuerySignature signature;
    signature.pivot_distances =
        pivots->ComputeDistances(objects[q * 17 + 3], metric);
    signature.permutation =
        DistancesToPermutation(signature.pivot_distances);
    signature.whole_cells = (q % 3 == 0);
    knn_batch.push_back(
        KnnQuery{std::move(signature), 10 + 15 * (q % 4)});
  }
  knn_batch.push_back(knn_batch[1]);
  knn_batch.push_back(knn_batch[6]);
  knn_batch.push_back(knn_batch[1]);

  auto serial_knn = serial->ApproxKnnBatchCandidates(knn_batch,
                                                     &serial_stats);
  auto parallel_knn = parallel->ApproxKnnBatchCandidates(knn_batch,
                                                         &parallel_stats);
  ASSERT_TRUE(serial_knn.ok()) << serial_knn.status().ToString();
  ASSERT_TRUE(parallel_knn.ok()) << parallel_knn.status().ToString();
  ExpectIdentical(*serial_knn, *parallel_knn, serial_stats, parallel_stats);

  // Error behaviour is thread-count independent: a zero cand_size fails
  // identically on both engines.
  knn_batch[5].cand_size = 0;
  EXPECT_EQ(serial->ApproxKnnBatchCandidates(knn_batch, nullptr)
                .status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(parallel->ApproxKnnBatchCandidates(knn_batch, nullptr)
                .status().code(),
            StatusCode::kInvalidArgument);
}

TEST_P(ParallelBatchTest, MoreThreadsThanQueriesStillIdentical) {
  data::MixtureOptions mixture;
  mixture.num_objects = 120;
  mixture.dimension = 6;
  mixture.num_clusters = 4;
  mixture.seed = 91;
  const auto objects = data::MakeGaussianMixture(mixture);
  metric::L2Distance metric;
  auto pivots = PivotSet::SelectRandom(objects, 8, 92);
  ASSERT_TRUE(pivots.ok());

  auto serial = BuildIndex(objects, *pivots, metric, 1, serial_path_);
  auto parallel = BuildIndex(objects, *pivots, metric, 16, parallel_path_);
  ASSERT_NE(serial, nullptr);
  ASSERT_NE(parallel, nullptr);

  // Two distinct queries, 16 workers configured: the fan-out must clamp
  // to the distinct count and still match the serial result.
  std::vector<RangeQuery> batch;
  for (size_t q = 0; q < 2; ++q) {
    RangeQuery query;
    query.pivot_distances = pivots->ComputeDistances(objects[q], metric);
    query.radius = 0.9;
    batch.push_back(std::move(query));
  }
  std::vector<SearchStats> serial_stats, parallel_stats;
  auto serial_range = serial->RangeSearchBatchCandidates(batch,
                                                         &serial_stats);
  auto parallel_range = parallel->RangeSearchBatchCandidates(
      batch, &parallel_stats);
  ASSERT_TRUE(serial_range.ok());
  ASSERT_TRUE(parallel_range.ok());
  ExpectIdentical(*serial_range, *parallel_range, serial_stats,
                  parallel_stats);
}

INSTANTIATE_TEST_SUITE_P(Backends, ParallelBatchTest,
                         ::testing::Values(StorageKind::kMemory,
                                           StorageKind::kDisk));

TEST(QueryThreadsEnvTest, EnvOverridesOptionAtCreate) {
  ::setenv("SIMCLOUD_QUERY_THREADS", "5", 1);
  MIndexOptions options;
  options.num_pivots = 4;
  auto index = MIndex::Create(options);
  ::unsetenv("SIMCLOUD_QUERY_THREADS");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->options().query_threads, 5);

  ::setenv("SIMCLOUD_QUERY_THREADS", "not-a-number", 1);
  auto fallback = MIndex::Create(options);
  ::unsetenv("SIMCLOUD_QUERY_THREADS");
  ASSERT_TRUE(fallback.ok());
  EXPECT_EQ((*fallback)->options().query_threads, 0);

  options.query_threads = -1;
  EXPECT_EQ(MIndex::Create(options).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace mindex

// ------------------------------------------------- batch == batches of one

namespace secure {
namespace {

using metric::VectorObject;

struct BatchWorld {
  metric::Dataset dataset{};
  SecretKey key;
  std::unique_ptr<net::RequestHandler> server;
  std::unique_ptr<net::LoopbackTransport> transport;
  std::unique_ptr<EncryptionClient> client;
};

BatchWorld MakeBatchWorld(size_t num_shards, InsertStrategy strategy,
                          uint64_t cache_bytes = 0) {
  BatchWorld world{
      .key =
          []() {
            auto pivots = mindex::PivotSet({VectorObject(0, {0.0f})});
            return SecretKey::Create(std::move(pivots), Bytes(16, 1)).value();
          }(),
      .server = nullptr,
      .transport = nullptr,
      .client = nullptr};

  data::MixtureOptions options;
  options.num_objects = 600;
  options.dimension = 8;
  options.num_clusters = 5;
  options.seed = 101;
  world.dataset = metric::Dataset("batch", data::MakeGaussianMixture(options),
                                  std::make_shared<metric::L2Distance>());

  const size_t num_pivots = 10;
  auto pivots =
      mindex::PivotSet::SelectRandom(world.dataset.objects(), num_pivots, 5);
  EXPECT_TRUE(pivots.ok());
  auto key = SecretKey::Create(std::move(pivots).value(), Bytes(16, 0x42));
  EXPECT_TRUE(key.ok());
  world.key = std::move(key).value();

  mindex::MIndexOptions index_options;
  index_options.num_pivots = num_pivots;
  index_options.bucket_capacity = 40;
  index_options.max_level = 4;
  index_options.cache_bytes = cache_bytes;
  if (num_shards <= 1) {
    auto server = EncryptedMIndexServer::Create(index_options);
    EXPECT_TRUE(server.ok());
    world.server = std::move(server).value();
  } else {
    auto server = ShardedServer::Create(index_options, num_shards);
    EXPECT_TRUE(server.ok());
    world.server = std::move(server).value();
  }
  world.transport =
      std::make_unique<net::LoopbackTransport>(world.server.get());
  world.client = std::make_unique<EncryptionClient>(
      world.key, world.dataset.distance(), world.transport.get());
  EXPECT_TRUE(world.client->InsertBulk(world.dataset.objects(), strategy).ok());
  return world;
}

std::vector<VectorObject> TestQueries(const BatchWorld& world, size_t count) {
  std::vector<VectorObject> queries;
  for (size_t i = 0; i < count; ++i) {
    queries.push_back(world.dataset.objects()[i * 37 % 600]);
  }
  return queries;
}

void ExpectSameCandidates(const CandidateResponse& batch,
                          const CandidateResponse& single, size_t q) {
  ASSERT_EQ(batch.candidates.size(), single.candidates.size()) << "query " << q;
  for (size_t c = 0; c < batch.candidates.size(); ++c) {
    EXPECT_EQ(batch.candidates[c].id, single.candidates[c].id)
        << "query " << q << " candidate " << c;
    EXPECT_EQ(batch.candidates[c].score, single.candidates[c].score)
        << "query " << q << " candidate " << c;
    EXPECT_EQ(batch.candidates[c].payload, single.candidates[c].payload)
        << "query " << q << " candidate " << c;
  }
  EXPECT_EQ(batch.stats.cells_visited, single.stats.cells_visited);
  EXPECT_EQ(batch.stats.entries_scanned, single.stats.entries_scanned);
  EXPECT_EQ(batch.stats.candidates, single.stats.candidates);
}

/// Handles `request`, a batch of one query, and returns that query's
/// candidates and stats (empty, with a test failure, on any error).
CandidateResponse OnlyQueryOf(net::RequestHandler* server,
                              const Bytes& request, Bytes* raw = nullptr) {
  auto bytes = server->Handle(request);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  if (!bytes.ok()) return {};
  auto decoded = DecodeBatchCandidateResponse(*bytes);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  if (!decoded.ok() || decoded->query_count() != 1) {
    ADD_FAILURE() << "not a batch of one";
    return {};
  }
  if (raw != nullptr) *raw = std::move(*bytes);
  return decoded->Materialize(0);
}

class BatchProtocolTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BatchProtocolTest, RangeBatchMatchesBatchesOfOne) {
  BatchWorld world = MakeBatchWorld(GetParam(), InsertStrategy::kPrecise);
  const std::vector<VectorObject> queries = TestQueries(world, 16);
  const double radius = 1.5;

  std::vector<mindex::RangeQuery> batch;
  std::vector<CandidateResponse> singles;
  for (const VectorObject& query : queries) {
    mindex::RangeQuery item{
        world.key.pivots().ComputeDistances(query, *world.dataset.distance()),
        radius};
    singles.push_back(OnlyQueryOf(world.server.get(),
                                  EncodeRangeSearchBatchRequest({item})));
    batch.push_back(std::move(item));
  }

  auto batch_response_bytes =
      world.server->Handle(EncodeRangeSearchBatchRequest(batch));
  ASSERT_TRUE(batch_response_bytes.ok());
  auto batch_responses = DecodeBatchCandidateResponse(*batch_response_bytes);
  ASSERT_TRUE(batch_responses.ok());
  ASSERT_EQ(batch_responses->query_count(), queries.size());

  for (size_t q = 0; q < queries.size(); ++q) {
    ExpectSameCandidates(batch_responses->Materialize(q), singles[q], q);
  }
  // On one shard a batch of one also equals the index's own single-query
  // API.
  if (auto* shard = dynamic_cast<EncryptedMIndexServer*>(world.server.get())) {
    for (size_t q = 0; q < queries.size(); ++q) {
      CandidateResponse direct;
      auto candidates = shard->index().RangeSearchCandidates(
          batch[q].pivot_distances, radius, &direct.stats);
      ASSERT_TRUE(candidates.ok());
      direct.candidates = std::move(*candidates);
      ExpectSameCandidates(singles[q], direct, q);
    }
  }
}

TEST_P(BatchProtocolTest, ApproxKnnBatchMatchesBatchesOfOne) {
  BatchWorld world = MakeBatchWorld(GetParam(), InsertStrategy::kPrecise);
  const std::vector<VectorObject> queries = TestQueries(world, 16);
  const uint64_t cand_size = 60;

  std::vector<mindex::KnnQuery> batch;
  std::vector<CandidateResponse> singles;
  for (const VectorObject& query : queries) {
    std::vector<float> distances =
        world.key.pivots().ComputeDistances(query, *world.dataset.distance());
    mindex::QuerySignature signature;
    signature.pivot_distances = distances;
    signature.permutation = mindex::DistancesToPermutation(distances);
    mindex::KnnQuery item{std::move(signature), cand_size};
    singles.push_back(OnlyQueryOf(world.server.get(),
                                  EncodeApproxKnnBatchRequest({item})));
    batch.push_back(std::move(item));
  }

  auto batch_response_bytes =
      world.server->Handle(EncodeApproxKnnBatchRequest(batch));
  ASSERT_TRUE(batch_response_bytes.ok());
  auto batch_responses = DecodeBatchCandidateResponse(*batch_response_bytes);
  ASSERT_TRUE(batch_responses.ok());
  ASSERT_EQ(batch_responses->query_count(), queries.size());

  for (size_t q = 0; q < queries.size(); ++q) {
    ExpectSameCandidates(batch_responses->Materialize(q), singles[q], q);
  }
  if (auto* shard = dynamic_cast<EncryptedMIndexServer*>(world.server.get())) {
    for (size_t q = 0; q < queries.size(); ++q) {
      CandidateResponse direct;
      auto candidates = shard->index().ApproxKnnCandidates(
          batch[q].signature, cand_size, &direct.stats);
      ASSERT_TRUE(candidates.ok());
      direct.candidates = std::move(*candidates);
      ExpectSameCandidates(singles[q], direct, q);
    }
  }
}

TEST(BatchProtocolTest, RepeatedQueriesInBatchMatchSinglesAndShareBytes) {
  // Memoized duplicates and the payload dictionary must not change
  // per-query answers — and the response must not grow linearly with the
  // number of repetitions of one hot query.
  BatchWorld world = MakeBatchWorld(1, InsertStrategy::kPrecise);
  const VectorObject& hot = world.dataset.objects()[7];
  std::vector<float> distances =
      world.key.pivots().ComputeDistances(hot, *world.dataset.distance());
  mindex::QuerySignature signature;
  signature.pivot_distances = distances;
  signature.permutation = mindex::DistancesToPermutation(distances);

  const mindex::KnnQuery item{signature, 50};
  Bytes single_bytes;
  const CandidateResponse single = OnlyQueryOf(
      world.server.get(), EncodeApproxKnnBatchRequest({item}), &single_bytes);
  ASSERT_FALSE(single.candidates.empty());

  const std::vector<mindex::KnnQuery> batch(32, item);
  auto batch_bytes = world.server->Handle(EncodeApproxKnnBatchRequest(batch));
  ASSERT_TRUE(batch_bytes.ok());
  auto decoded = DecodeBatchCandidateResponse(*batch_bytes);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->query_count(), batch.size());
  for (size_t q = 0; q < batch.size(); ++q) {
    ExpectSameCandidates(decoded->Materialize(q), single, q);
  }
  // Dictionary: 32 identical queries share one payload set.
  EXPECT_EQ(decoded->batch.payloads.size(), single.candidates.size());
  EXPECT_LT(batch_bytes->size(), 2 * single_bytes.size() + 32 * 1024);
}

INSTANTIATE_TEST_SUITE_P(SingleAndSharded, BatchProtocolTest,
                         ::testing::Values(1u, 3u));

TEST(BatchClientTest, RangeSearchBatchMatchesSingleSearches) {
  BatchWorld world =
      MakeBatchWorld(1, InsertStrategy::kPrecise, /*cache_bytes=*/1 << 20);
  const std::vector<VectorObject> queries = TestQueries(world, 8);
  const double radius = 1.2;

  auto batched = world.client->RangeSearchBatch(queries, radius);
  ASSERT_TRUE(batched.ok());
  ASSERT_EQ(batched->size(), queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    auto single = world.client->RangeSearch(queries[q], radius);
    ASSERT_TRUE(single.ok());
    ASSERT_EQ((*batched)[q].size(), single->size()) << "query " << q;
    for (size_t i = 0; i < single->size(); ++i) {
      EXPECT_EQ((*batched)[q][i].id, (*single)[i].id);
      EXPECT_DOUBLE_EQ((*batched)[q][i].distance, (*single)[i].distance);
    }
  }
}

TEST(BatchClientTest, ApproxKnnBatchMatchesSingleSearches) {
  BatchWorld world = MakeBatchWorld(1, InsertStrategy::kPermutationOnly);
  const std::vector<VectorObject> queries = TestQueries(world, 8);
  const size_t k = 10, cand_size = 80;

  auto batched = world.client->ApproxKnnBatch(queries, k, cand_size);
  ASSERT_TRUE(batched.ok());
  ASSERT_EQ(batched->size(), queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    auto single = world.client->ApproxKnn(queries[q], k, cand_size);
    ASSERT_TRUE(single.ok());
    ASSERT_EQ((*batched)[q].size(), single->size()) << "query " << q;
    for (size_t i = 0; i < single->size(); ++i) {
      EXPECT_EQ((*batched)[q][i].id, (*single)[i].id);
      EXPECT_DOUBLE_EQ((*batched)[q][i].distance, (*single)[i].distance);
    }
  }
}

TEST(BatchClientTest, BatchUsesOneRoundTrip) {
  BatchWorld world = MakeBatchWorld(1, InsertStrategy::kPrecise);
  const std::vector<VectorObject> queries = TestQueries(world, 12);

  world.transport->ResetCosts();
  ASSERT_TRUE(world.client->ApproxKnnBatch(queries, 5, 50).ok());
  EXPECT_EQ(world.transport->costs().calls, 1u);

  world.transport->ResetCosts();
  ASSERT_TRUE(world.client->RangeSearchBatch(queries, 1.0).ok());
  EXPECT_EQ(world.transport->costs().calls, 1u);
}

}  // namespace
}  // namespace secure
}  // namespace simcloud
