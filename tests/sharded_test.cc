// Sharded similarity-cloud tests: a ShardedServer must be a drop-in
// replacement for the single-node server — identical range results,
// equivalent approximate k-NN behaviour, shard-local deletes — while
// actually spreading the data across nodes.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/rng.h"
#include "data/synthetic.h"
#include "metric/ground_truth.h"
#include "mindex/permutation.h"
#include "net/tcp.h"
#include "secure/client.h"
#include "secure/server.h"
#include "secure/sharded_server.h"

namespace simcloud {
namespace secure {
namespace {

using metric::VectorObject;

struct ShardedWorld {
  metric::Dataset dataset{};
  SecretKey key;
  std::unique_ptr<ShardedServer> server;
  std::unique_ptr<net::LoopbackTransport> transport;
  std::unique_ptr<EncryptionClient> client;
};

ShardedWorld MakeShardedWorld(size_t num_shards,
                              InsertStrategy strategy =
                                  InsertStrategy::kPrecise,
                              uint64_t seed = 501) {
  ShardedWorld world{
      .dataset = {},
      .key =
          []() {
            auto pivots = mindex::PivotSet({VectorObject(0, {0.0f})});
            return SecretKey::Create(std::move(pivots), Bytes(16, 1)).value();
          }(),
      .server = nullptr,
      .transport = nullptr,
      .client = nullptr};

  data::MixtureOptions options;
  options.num_objects = 800;
  options.dimension = 8;
  options.num_clusters = 6;
  options.seed = seed;
  world.dataset = metric::Dataset("sharded", data::MakeGaussianMixture(options),
                                  std::make_shared<metric::L2Distance>());
  auto pivots =
      mindex::PivotSet::SelectRandom(world.dataset.objects(), 10, seed + 1);
  EXPECT_TRUE(pivots.ok());
  auto key = SecretKey::Create(std::move(pivots).value(), Bytes(16, 0x51));
  EXPECT_TRUE(key.ok());
  world.key = std::move(key).value();

  mindex::MIndexOptions index_options;
  index_options.num_pivots = 10;
  index_options.bucket_capacity = 40;
  index_options.max_level = 4;
  auto server = ShardedServer::Create(index_options, num_shards);
  EXPECT_TRUE(server.ok());
  world.server = std::move(server).value();
  world.transport =
      std::make_unique<net::LoopbackTransport>(world.server.get());
  world.client = std::make_unique<EncryptionClient>(
      world.key, world.dataset.distance(), world.transport.get());
  EXPECT_TRUE(
      world.client->InsertBulk(world.dataset.objects(), strategy, 200).ok());
  return world;
}

TEST(ShardedServerTest, CreateValidates) {
  mindex::MIndexOptions options;
  EXPECT_FALSE(ShardedServer::Create(options, 0).ok());
  auto server = ShardedServer::Create(options, 3);
  ASSERT_TRUE(server.ok());
  EXPECT_EQ((*server)->num_shards(), 3u);
}

TEST(ShardedServerTest, DataActuallySpreadsAcrossShards) {
  auto world = MakeShardedWorld(4);
  EXPECT_EQ(world.server->TotalObjects(), world.dataset.size());
  size_t populated = 0;
  for (size_t i = 0; i < world.server->num_shards(); ++i) {
    if (world.server->shard(i).index().size() > 0) ++populated;
  }
  EXPECT_GE(populated, 2u) << "with 10 pivots and 4 shards, several shards "
                              "must own top-level cells";
}

TEST(ShardedServerTest, RangeSearchEqualsGroundTruthAcrossShardCounts) {
  for (size_t shards : {1u, 2u, 5u}) {
    auto world = MakeShardedWorld(shards);
    Rng rng(600 + shards);
    for (int iter = 0; iter < 4; ++iter) {
      const VectorObject& query =
          world.dataset.objects()[rng.NextBounded(world.dataset.size())];
      const double radius = rng.NextUniform(1.0, 3.0);
      const auto exact =
          metric::LinearRangeSearch(world.dataset, query, radius);
      auto answer = world.client->RangeSearch(query, radius);
      ASSERT_TRUE(answer.ok());
      ASSERT_EQ(answer->size(), exact.size())
          << "shards=" << shards << " iter=" << iter;
      for (size_t i = 0; i < exact.size(); ++i) {
        EXPECT_EQ((*answer)[i].id, exact[i].id);
      }
    }
  }
}

TEST(ShardedServerTest, ShardedMatchesSingleNodeOnTheSameWorkload) {
  // The sharded facade and one big server over the same pivots and data
  // must return identical approximate answers: the merge keeps the
  // globally best-ranked candidates, which is exactly what the
  // single-node promise-ordered traversal yields for the same budget.
  auto sharded = MakeShardedWorld(3, InsertStrategy::kPermutationOnly);

  mindex::MIndexOptions index_options;
  index_options.num_pivots = 10;
  index_options.bucket_capacity = 40;
  index_options.max_level = 4;
  auto single = EncryptedMIndexServer::Create(index_options);
  ASSERT_TRUE(single.ok());
  net::LoopbackTransport single_transport(single->get());
  EncryptionClient single_client(sharded.key, sharded.dataset.distance(),
                                 &single_transport);
  ASSERT_TRUE(single_client
                  .InsertBulk(sharded.dataset.objects(),
                              InsertStrategy::kPermutationOnly, 200)
                  .ok());

  // The two deployments form their candidate sets differently (the
  // sharded merge keeps the globally best cand_size candidates by
  // pre-rank score out of up to cand_size per shard; the single node
  // trims its own promise-ordered collection), so individual tails can
  // differ in either direction. The invariants: the top result agrees
  // (the query itself), and aggregate recall is equivalent.
  Rng rng(77);
  const size_t k = 10;
  double sharded_recall = 0;
  double single_recall = 0;
  const int kIters = 10;
  for (int iter = 0; iter < kIters; ++iter) {
    const VectorObject& query =
        sharded.dataset.objects()[rng.NextBounded(sharded.dataset.size())];
    const auto exact = metric::LinearKnnSearch(sharded.dataset, query, k);
    auto a = sharded.client->ApproxKnn(query, k, 200);
    auto b = single_client.ApproxKnn(query, k, 200);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_FALSE(a->empty());
    ASSERT_FALSE(b->empty());
    EXPECT_EQ((*a)[0].id, (*b)[0].id) << "iter " << iter;
    sharded_recall += metric::RecallPercent(*a, exact);
    single_recall += metric::RecallPercent(*b, exact);
  }
  EXPECT_GE(sharded_recall / kIters, single_recall / kIters - 5.0)
      << "sharded recall must not collapse relative to single-node";
}

TEST(ShardedServerTest, DeleteRoutesToOwningShard) {
  auto world = MakeShardedWorld(4);
  const VectorObject& victim = world.dataset.objects()[33];
  ASSERT_TRUE(world.client->Delete(victim).ok());
  EXPECT_EQ(world.server->TotalObjects(), world.dataset.size() - 1);
  EXPECT_FALSE(world.client->Delete(victim).ok()) << "double delete";

  auto after = world.client->RangeSearch(victim, 0.5);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(std::none_of(
      after->begin(), after->end(),
      [&](const metric::Neighbor& n) { return n.id == victim.id(); }));
}

TEST(ShardedServerTest, DeleteOfAbsentObjectIsNotFoundOnShardAndFacade) {
  // Delete is a batch of one; an object that is not indexed reads as
  // NotFound on a shard server and on the facade, through loopback and
  // through TCP alike.
  data::MixtureOptions mixture;
  mixture.num_objects = 120;
  mixture.dimension = 8;
  mixture.num_clusters = 4;
  mixture.seed = 611;
  metric::Dataset dataset("absent", data::MakeGaussianMixture(mixture),
                          std::make_shared<metric::L2Distance>());
  auto pivots = mindex::PivotSet::SelectRandom(dataset.objects(), 10, 612);
  ASSERT_TRUE(pivots.ok());
  auto key = SecretKey::Create(std::move(pivots).value(), Bytes(16, 0x53));
  ASSERT_TRUE(key.ok());
  const std::vector<VectorObject> stored(dataset.objects().begin(),
                                         dataset.objects().end() - 1);
  const VectorObject& never_stored = dataset.objects().back();

  mindex::MIndexOptions index_options;
  index_options.num_pivots = 10;
  index_options.bucket_capacity = 40;
  index_options.max_level = 4;
  auto shard = EncryptedMIndexServer::Create(index_options);
  ASSERT_TRUE(shard.ok());
  auto facade = ShardedServer::Create(index_options, 3);
  ASSERT_TRUE(facade.ok());
  for (net::RequestHandler* handler :
       {static_cast<net::RequestHandler*>(shard->get()),
        static_cast<net::RequestHandler*>(facade->get())}) {
    net::TcpServer server(handler);
    ASSERT_TRUE(server.Start(0).ok());
    auto tcp = net::TcpTransport::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(tcp.ok());
    net::LoopbackTransport loopback(handler);
    EncryptionClient tcp_client(*key, dataset.distance(), tcp->get());
    EncryptionClient loopback_client(*key, dataset.distance(), &loopback);
    ASSERT_TRUE(
        tcp_client.InsertBulk(stored, InsertStrategy::kPrecise, 60).ok());
    for (EncryptionClient* client : {&tcp_client, &loopback_client}) {
      Status absent = client->Delete(never_stored);
      EXPECT_EQ(absent.code(), StatusCode::kNotFound) << absent.ToString();
    }
    ASSERT_TRUE(tcp_client.Delete(stored[7]).ok());
    for (EncryptionClient* client : {&tcp_client, &loopback_client}) {
      Status again = client->Delete(stored[7]);
      EXPECT_EQ(again.code(), StatusCode::kNotFound) << again.ToString();
    }
    auto stats = tcp_client.GetServerStats();
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->object_count, stored.size() - 1);
    server.Stop();
  }
}

TEST(ShardedServerTest, StatsAggregateAcrossShards) {
  auto world = MakeShardedWorld(4);
  auto stats = world.client->GetServerStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->object_count, world.dataset.size());
  uint64_t leaf_sum = 0;
  for (size_t i = 0; i < world.server->num_shards(); ++i) {
    leaf_sum += world.server->shard(i).index().Stats().leaf_count;
  }
  EXPECT_EQ(stats->leaf_count, leaf_sum);
}

TEST(ShardedServerTest, PreciseKnnWorksThroughTheFacade) {
  auto world = MakeShardedWorld(3);
  const VectorObject& query = world.dataset.objects()[5];
  const auto exact = metric::LinearKnnSearch(world.dataset, query, 7);
  auto answer = world.client->PreciseKnn(query, 7);
  ASSERT_TRUE(answer.ok());
  ASSERT_EQ(answer->size(), exact.size());
  for (size_t i = 0; i < exact.size(); ++i) {
    EXPECT_EQ((*answer)[i].id, exact[i].id);
  }
}

TEST(ShardedServerTest, RemoteShardsOverPersistentConnections) {
  // Three shard servers as separate TcpServer processes-in-miniature;
  // the facade connects to them over persistent pipelined connections
  // and must behave exactly like a local sharded deployment.
  const size_t kShards = 3;
  mindex::MIndexOptions index_options;
  index_options.num_pivots = 10;
  index_options.bucket_capacity = 40;
  index_options.max_level = 4;

  std::vector<std::unique_ptr<EncryptedMIndexServer>> shard_handlers;
  std::vector<std::unique_ptr<net::TcpServer>> shard_servers;
  std::vector<ShardEndpoint> endpoints;
  for (size_t i = 0; i < kShards; ++i) {
    auto handler = EncryptedMIndexServer::Create(index_options);
    ASSERT_TRUE(handler.ok());
    shard_handlers.push_back(std::move(*handler));
    shard_servers.push_back(
        std::make_unique<net::TcpServer>(shard_handlers.back().get()));
    ASSERT_TRUE(shard_servers.back()->Start(0).ok());
    endpoints.push_back(ShardEndpoint{"127.0.0.1",
                                      shard_servers.back()->port()});
  }

  auto facade = ShardedServer::Connect(endpoints, index_options.num_pivots);
  ASSERT_TRUE(facade.ok()) << facade.status().ToString();
  EXPECT_FALSE((*facade)->is_local());
  EXPECT_EQ((*facade)->num_shards(), kShards);

  data::MixtureOptions mixture;
  mixture.num_objects = 500;
  mixture.dimension = 8;
  mixture.num_clusters = 5;
  mixture.seed = 601;
  metric::Dataset dataset("remote", data::MakeGaussianMixture(mixture),
                          std::make_shared<metric::L2Distance>());
  auto pivots = mindex::PivotSet::SelectRandom(dataset.objects(), 10, 602);
  ASSERT_TRUE(pivots.ok());
  auto key = SecretKey::Create(std::move(pivots).value(), Bytes(16, 0x52));
  ASSERT_TRUE(key.ok());

  net::LoopbackTransport transport(facade->get());
  EncryptionClient client(*key, dataset.distance(), &transport);
  ASSERT_TRUE(
      client.InsertBulk(dataset.objects(), InsertStrategy::kPrecise, 100)
          .ok());

  // Data actually landed on the remote shards.
  EXPECT_EQ((*facade)->TotalObjects(), dataset.size());
  size_t populated = 0;
  for (const auto& handler : shard_handlers) {
    if (handler->index().size() > 0) ++populated;
  }
  EXPECT_GE(populated, 2u);

  // Exact range answers through the remote fan-out.
  Rng rng(603);
  for (int q = 0; q < 8; ++q) {
    const VectorObject& query =
        dataset.objects()[rng.NextBounded(dataset.size())];
    const double radius = rng.NextUniform(1.0, 3.0);
    const auto exact = metric::LinearRangeSearch(dataset, query, radius);
    auto answer = client.RangeSearch(query, radius);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    ASSERT_EQ(answer->size(), exact.size());
    for (size_t i = 0; i < exact.size(); ++i) {
      EXPECT_EQ((*answer)[i].id, exact[i].id);
    }
  }

  // Batched queries, stats, batched deletes, and compaction all travel
  // through the same persistent connections.
  std::vector<VectorObject> batch(dataset.objects().begin(),
                                  dataset.objects().begin() + 6);
  auto batch_answers = client.RangeSearchBatch(batch, 2.0);
  ASSERT_TRUE(batch_answers.ok());
  ASSERT_EQ(batch_answers->size(), batch.size());

  auto stats = client.GetServerStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->object_count, dataset.size());

  std::vector<VectorObject> doomed(dataset.objects().begin(),
                                   dataset.objects().begin() + 50);
  ASSERT_TRUE(client.DeleteBatch(doomed, 50).ok());
  EXPECT_EQ((*facade)->TotalObjects(), dataset.size() - doomed.size());

  auto report = client.Compact(/*force=*/true);
  ASSERT_TRUE(report.ok());

  facade->reset();  // disconnects before the shard servers stop
  for (auto& server : shard_servers) server->Stop();
}

TEST(ShardedServerTest, RemoteShardsOverSecureChannels) {
  // The remote deployment with ChannelPolicy::kSecure end to end: every
  // facade->shard connection runs the PSK handshake and speaks AEAD
  // records, and the facade behaves exactly like the plaintext one.
  const size_t kShards = 2;
  mindex::MIndexOptions index_options;
  index_options.num_pivots = 8;
  index_options.bucket_capacity = 40;
  index_options.max_level = 4;

  net::SecureChannelOptions channel_options;
  channel_options.psk = Bytes(32, 0x21);
  channel_options.rekey_after_records = 16;  // cross epochs mid-test

  std::vector<std::unique_ptr<EncryptedMIndexServer>> shard_handlers;
  std::vector<std::unique_ptr<net::TcpServer>> shard_servers;
  std::vector<ShardEndpoint> endpoints;
  for (size_t i = 0; i < kShards; ++i) {
    auto handler = EncryptedMIndexServer::Create(index_options);
    ASSERT_TRUE(handler.ok());
    shard_handlers.push_back(std::move(*handler));
    net::TcpServerOptions server_options;
    server_options.channel_policy = net::ChannelPolicy::kSecure;
    server_options.secure_channel = channel_options;
    shard_servers.push_back(std::make_unique<net::TcpServer>(
        shard_handlers.back().get(), server_options));
    ASSERT_TRUE(shard_servers.back()->Start(0).ok());
    endpoints.push_back(ShardEndpoint{"127.0.0.1",
                                      shard_servers.back()->port()});
  }

  // A facade with the wrong PSK must fail to connect at all.
  net::SecureChannelOptions wrong = channel_options;
  wrong.psk = Bytes(32, 0x22);
  EXPECT_FALSE(ShardedServer::Connect(endpoints, index_options.num_pivots,
                                      net::ChannelPolicy::kSecure, wrong)
                   .ok());

  auto facade = ShardedServer::Connect(endpoints, index_options.num_pivots,
                                       net::ChannelPolicy::kSecure,
                                       channel_options);
  ASSERT_TRUE(facade.ok()) << facade.status().ToString();

  data::MixtureOptions mixture;
  mixture.num_objects = 220;
  mixture.dimension = 6;
  mixture.num_clusters = 4;
  mixture.seed = 611;
  metric::Dataset dataset("secure-remote", data::MakeGaussianMixture(mixture),
                          std::make_shared<metric::L2Distance>());
  auto pivots = mindex::PivotSet::SelectRandom(dataset.objects(), 8, 612);
  ASSERT_TRUE(pivots.ok());
  auto key = SecretKey::Create(std::move(pivots).value(), Bytes(16, 0x53));
  ASSERT_TRUE(key.ok());

  net::LoopbackTransport transport(facade->get());
  EncryptionClient client(*key, dataset.distance(), &transport);
  ASSERT_TRUE(
      client.InsertBulk(dataset.objects(), InsertStrategy::kPrecise, 60)
          .ok());
  EXPECT_EQ((*facade)->TotalObjects(), dataset.size());

  Rng rng(613);
  for (int q = 0; q < 5; ++q) {
    const VectorObject& query =
        dataset.objects()[rng.NextBounded(dataset.size())];
    const double radius = rng.NextUniform(1.0, 3.0);
    const auto exact = metric::LinearRangeSearch(dataset, query, radius);
    auto answer = client.RangeSearch(query, radius);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    ASSERT_EQ(answer->size(), exact.size());
    for (size_t i = 0; i < exact.size(); ++i) {
      EXPECT_EQ((*answer)[i].id, exact[i].id);
    }
  }
  auto stats = client.GetServerStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->object_count, dataset.size());

  facade->reset();
  for (auto& server : shard_servers) server->Stop();
}

/// Echoes after a short sleep, so a Stop() can race in-flight and
/// queued tickets deterministically.
/// The merge FanOutBatch performed before it spliced shard payloads:
/// decode every shard response into owned payloads, merge and trim the
/// refs by score, compact the dictionary in first-reference order, and
/// re-encode. Kept here as the reference the splicing merge must match
/// byte for byte.
Bytes DecodeMergeEncodeReference(const std::vector<Bytes>& shard_responses,
                                 const std::vector<size_t>& limits) {
  std::vector<BatchCandidateResponse> decoded;
  for (const Bytes& response : shard_responses) {
    auto batch = DecodeBatchCandidateResponse(response);
    EXPECT_TRUE(batch.ok());
    decoded.push_back(std::move(*batch));
  }
  std::vector<const Bytes*> flat;
  std::vector<uint32_t> offset;
  for (const auto& shard : decoded) {
    offset.push_back(static_cast<uint32_t>(flat.size()));
    for (const Bytes& payload : shard.batch.payloads) flat.push_back(&payload);
  }
  mindex::BatchCandidates merged;
  merged.per_query.resize(limits.size());
  std::vector<mindex::SearchStats> stats(limits.size());
  for (size_t q = 0; q < limits.size(); ++q) {
    auto& refs = merged.per_query[q];
    for (size_t s = 0; s < decoded.size(); ++s) {
      stats[q].Add(decoded[s].stats[q]);
      for (auto ref : decoded[s].batch.per_query[q]) {
        ref.payload_index += offset[s];
        refs.push_back(ref);
      }
    }
    std::stable_sort(refs.begin(), refs.end(),
                     [](const auto& a, const auto& b) {
                       return a.score < b.score;
                     });
    if (limits[q] > 0 && refs.size() > limits[q]) refs.resize(limits[q]);
    stats[q].candidates = refs.size();
  }
  std::vector<uint32_t> remap(flat.size(), ~0u);
  for (auto& refs : merged.per_query) {
    for (auto& ref : refs) {
      if (remap[ref.payload_index] == ~0u) {
        remap[ref.payload_index] =
            static_cast<uint32_t>(merged.payloads.size());
        merged.payloads.push_back(*flat[ref.payload_index]);
      }
      ref.payload_index = remap[ref.payload_index];
    }
  }
  return EncodeBatchCandidateResponse(merged, stats);
}

struct RemoteShards {
  std::vector<std::unique_ptr<EncryptedMIndexServer>> handlers;
  std::vector<std::unique_ptr<net::TcpServer>> servers;
  std::vector<ShardEndpoint> endpoints;
};

TEST(ShardedServerTest, FanOutBatchSplicesTheReferenceMergeByteForByte) {
  mindex::MIndexOptions index_options;
  index_options.num_pivots = 10;
  index_options.bucket_capacity = 40;
  index_options.max_level = 4;
  RemoteShards shards;
  for (size_t i = 0; i < 3; ++i) {
    auto handler = EncryptedMIndexServer::Create(index_options);
    ASSERT_TRUE(handler.ok());
    shards.handlers.push_back(std::move(*handler));
    shards.servers.push_back(
        std::make_unique<net::TcpServer>(shards.handlers.back().get()));
    ASSERT_TRUE(shards.servers.back()->Start(0).ok());
    shards.endpoints.push_back(
        ShardEndpoint{"127.0.0.1", shards.servers.back()->port()});
  }
  auto facade =
      ShardedServer::Connect(shards.endpoints, index_options.num_pivots);
  ASSERT_TRUE(facade.ok()) << facade.status().ToString();

  data::MixtureOptions mixture;
  mixture.num_objects = 600;
  mixture.dimension = 8;
  mixture.num_clusters = 5;
  mixture.seed = 611;
  metric::Dataset dataset("splice", data::MakeGaussianMixture(mixture),
                          std::make_shared<metric::L2Distance>());
  auto pivots = mindex::PivotSet::SelectRandom(dataset.objects(), 10, 612);
  ASSERT_TRUE(pivots.ok());
  auto key = SecretKey::Create(std::move(pivots).value(), Bytes(16, 0x53));
  ASSERT_TRUE(key.ok());
  net::LoopbackTransport transport(facade->get());
  EncryptionClient client(*key, dataset.distance(), &transport);
  ASSERT_TRUE(
      client.InsertBulk(dataset.objects(), InsertStrategy::kPrecise, 100)
          .ok());

  // Trimmed and whole-cell (limit 0) queries; the repeats share their
  // payloads across queries, so the dictionary dedups across the batch.
  Rng rng(613);
  std::vector<mindex::KnnQuery> queries;
  std::vector<size_t> limits;
  for (int i = 0; i < 6; ++i) {
    std::vector<float> distances(10);
    for (float& d : distances) d = static_cast<float>(rng.NextUniform(0, 5));
    mindex::KnnQuery query;
    query.signature.permutation = mindex::DistancesToPermutation(distances);
    query.signature.whole_cells = i % 3 == 2;
    query.cand_size = 10 + 25 * i;
    queries.push_back(query);
  }
  queries.push_back(queries[0]);
  queries.back().cand_size = 40;
  queries.push_back(queries[2]);
  for (const auto& query : queries) {
    limits.push_back(query.signature.whole_cells ? 0 : query.cand_size);
  }
  const Bytes request = EncodeApproxKnnBatchRequest(queries);

  std::vector<Bytes> shard_responses;
  for (auto& handler : shards.handlers) {
    auto response = handler->Handle(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    shard_responses.push_back(std::move(*response));
  }
  const Bytes reference = DecodeMergeEncodeReference(shard_responses, limits);
  auto spliced = (*facade)->Handle(request);
  ASSERT_TRUE(spliced.ok()) << spliced.status().ToString();
  EXPECT_TRUE(*spliced == reference)
      << "spliced merge (" << spliced->size() << " B) differs from the "
      << "decode-merge-encode reference (" << reference.size() << " B)";

  // The batch really exercised trimming, whole cells and sharing.
  auto decoded = DecodeBatchCandidateResponse(*spliced);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->batch.per_query[0].size(), 10u);
  EXPECT_GT(decoded->batch.per_query[2].size(), 0u);
  size_t refs = 0;
  for (const auto& per_query : decoded->batch.per_query) {
    refs += per_query.size();
  }
  EXPECT_LT(decoded->batch.payloads.size(), refs);

  // Range batches (limit 0 for every query) take the same path.
  std::vector<mindex::RangeQuery> ranges;
  for (int i = 0; i < 4; ++i) {
    mindex::RangeQuery range;
    range.pivot_distances.resize(10);
    for (float& d : range.pivot_distances) {
      d = static_cast<float>(rng.NextUniform(0, 5));
    }
    range.radius = 2.5;
    ranges.push_back(range);
  }
  const Bytes range_request = EncodeRangeSearchBatchRequest(ranges);
  shard_responses.clear();
  for (auto& handler : shards.handlers) {
    auto response = handler->Handle(range_request);
    ASSERT_TRUE(response.ok());
    shard_responses.push_back(std::move(*response));
  }
  auto range_spliced = (*facade)->Handle(range_request);
  ASSERT_TRUE(range_spliced.ok());
  EXPECT_TRUE(*range_spliced ==
              DecodeMergeEncodeReference(shard_responses,
                                         std::vector<size_t>(4, 0)));

  facade->reset();
  for (auto& server : shards.servers) server->Stop();
}

/// A shard that answers every batch query with fixed bytes (and pings
/// with the empty ack the topology monitor expects).
class CannedShard : public net::RequestHandler {
 public:
  explicit CannedShard(Bytes response) : response_(std::move(response)) {}
  Result<Bytes> Handle(const Bytes& request) override {
    if (!request.empty() && request[0] == static_cast<uint8_t>(Op::kPing)) {
      return Bytes{};
    }
    return response_;
  }

 private:
  Bytes response_;
};

TEST(ShardedServerTest, MalformedShardBatchResponsesAreCorruption) {
  auto empty_stats = [](BinaryWriter* writer) {
    for (int i = 0; i < 5; ++i) writer->WriteVarint(0);
  };
  std::vector<std::pair<std::string, Bytes>> cases;
  {
    // One payload, but the ref points at index 1.
    BinaryWriter writer;
    writer.WriteVarint(1);
    writer.WriteBytes(Bytes{1, 2, 3});
    writer.WriteVarint(1);
    empty_stats(&writer);
    writer.WriteVarint(1);
    writer.WriteVarint(7);
    writer.WriteDouble(0.5);
    writer.WriteVarint(1);
    cases.emplace_back("payload index out of range", writer.TakeBuffer());
  }
  {
    // The payload declares 1000 bytes; 10 follow.
    BinaryWriter writer;
    writer.WriteVarint(1);
    writer.WriteVarint(1000);
    writer.WriteRaw(Bytes(10, 9).data(), 10);
    cases.emplace_back("truncated payload", writer.TakeBuffer());
  }
  {
    // A length near 2^64 must not wrap the bounds check.
    BinaryWriter writer;
    writer.WriteVarint(1);
    writer.WriteVarint(~uint64_t{0} - 2);
    writer.WriteRaw(Bytes(16, 9).data(), 16);
    cases.emplace_back("wrapping payload length", writer.TakeBuffer());
  }

  for (const auto& [name, bytes] : cases) {
    // The client-side decoder and the facade's splicing merge share
    // the one parser; both must refuse the response.
    EXPECT_EQ(DecodeBatchCandidateResponse(bytes).status().code(),
              StatusCode::kCorruption)
        << name;
    CannedShard shard(bytes);
    net::TcpServer server(&shard);
    ASSERT_TRUE(server.Start(0).ok());
    auto facade = ShardedServer::Connect(
        {ShardEndpoint{"127.0.0.1", server.port()}}, /*num_pivots=*/10);
    ASSERT_TRUE(facade.ok()) << facade.status().ToString();
    mindex::KnnQuery query;
    query.signature.permutation = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    query.cand_size = 5;
    auto merged = (*facade)->Handle(EncodeApproxKnnBatchRequest({query}));
    EXPECT_EQ(merged.status().code(), StatusCode::kCorruption)
        << name << ": " << merged.status().ToString();
    facade->reset();
    server.Stop();
  }
}

class SlowEchoHandler : public net::RequestHandler {
 public:
  Result<Bytes> Handle(const Bytes& request) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    return request;
  }
};

TEST(LocalShardChannelTest, RejectsSubmitAfterStop) {
  // Regression: a post-stop Submit used to enqueue a ticket no worker
  // would ever run, hanging the racing Collect forever.
  SlowEchoHandler handler;
  LocalShardChannel channel(&handler, /*num_workers=*/1);
  auto before = channel.Submit(Bytes{1, 2});
  ASSERT_TRUE(before.ok());
  channel.Stop();
  auto after = channel.Submit(Bytes{3, 4});
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kFailedPrecondition);
  // The pre-stop ticket resolves (handled or failed), never hangs.
  auto response = channel.Collect(*before);
  if (!response.ok()) {
    EXPECT_EQ(response.status().code(), StatusCode::kFailedPrecondition);
  }
}

TEST(LocalShardChannelTest, StopFailsQueuedTicketsInsteadOfStranding) {
  // One worker, many queued tickets: Stop() must resolve every ticket —
  // the in-flight one completes, queued ones fail — so every collector
  // returns.
  SlowEchoHandler handler;
  LocalShardChannel channel(&handler, /*num_workers=*/1);
  std::vector<uint64_t> tickets;
  for (int i = 0; i < 8; ++i) {
    auto ticket = channel.Submit(Bytes(16, static_cast<uint8_t>(i)));
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(*ticket);
  }
  channel.Stop();
  int completed = 0;
  int failed = 0;
  for (uint64_t ticket : tickets) {
    auto response = channel.Collect(ticket);
    if (response.ok()) {
      ++completed;
    } else {
      EXPECT_EQ(response.status().code(), StatusCode::kFailedPrecondition);
      ++failed;
    }
  }
  EXPECT_EQ(completed + failed, 8);
  EXPECT_GT(failed, 0) << "with a 10ms handler and one worker, most of the "
                          "queue must still have been pending at Stop()";
}

TEST(ShardedServerTest, ConnectPartialFailureNamesTheEndpoint) {
  // One real shard plus one dead endpoint: Connect must fail, name the
  // dead endpoint as host:port, and tear the established connection
  // down cleanly (the live server keeps serving afterwards).
  mindex::MIndexOptions index_options;
  index_options.num_pivots = 8;
  auto handler = EncryptedMIndexServer::Create(index_options);
  ASSERT_TRUE(handler.ok());
  net::TcpServer server(handler->get());
  ASSERT_TRUE(server.Start(0).ok());

  // Find a port with nothing listening: bind one, note it, close it.
  uint16_t dead_port;
  {
    net::TcpServer probe(handler->get());
    ASSERT_TRUE(probe.Start(0).ok());
    dead_port = probe.port();
    probe.Stop();
  }

  std::vector<ShardEndpoint> endpoints = {
      ShardEndpoint{"127.0.0.1", server.port()},
      ShardEndpoint{"127.0.0.1", dead_port}};
  auto facade = ShardedServer::Connect(endpoints, index_options.num_pivots);
  ASSERT_FALSE(facade.ok());
  const std::string expected =
      "127.0.0.1:" + std::to_string(dead_port);
  EXPECT_NE(facade.status().message().find(expected), std::string::npos)
      << "Status must name the failing endpoint, got: "
      << facade.status().ToString();

  // The surviving server was shut down orderly and still accepts work.
  auto transport = net::TcpTransport::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(transport.ok());
  EXPECT_TRUE((*transport)->Call(EncodePingRequest()).ok());
  server.Stop();
}

TEST(ShardedServerTest, ReplicaSetsStayIdenticalAndReportTopology) {
  // 2 shards x 2 replicas: writes fan out to both replicas of a shard,
  // so the replica handlers must hold byte-identical indexes, reads
  // keep matching the oracle, and the topology snapshot reports every
  // replica up.
  const size_t kShards = 2, kReplicas = 2;
  mindex::MIndexOptions index_options;
  index_options.num_pivots = 8;
  index_options.bucket_capacity = 40;
  index_options.max_level = 4;

  std::vector<std::unique_ptr<EncryptedMIndexServer>> handlers;
  std::vector<std::unique_ptr<net::TcpServer>> servers;
  std::vector<std::vector<ShardEndpoint>> replica_sets(kShards);
  for (size_t s = 0; s < kShards; ++s) {
    for (size_t r = 0; r < kReplicas; ++r) {
      auto handler = EncryptedMIndexServer::Create(index_options);
      ASSERT_TRUE(handler.ok());
      handlers.push_back(std::move(*handler));
      servers.push_back(
          std::make_unique<net::TcpServer>(handlers.back().get()));
      ASSERT_TRUE(servers.back()->Start(0).ok());
      replica_sets[s].push_back(
          ShardEndpoint{"127.0.0.1", servers.back()->port()});
    }
  }

  auto facade =
      ShardedServer::Connect(replica_sets, index_options.num_pivots);
  ASSERT_TRUE(facade.ok()) << facade.status().ToString();
  EXPECT_EQ((*facade)->num_shards(), kShards);

  data::MixtureOptions mixture;
  mixture.num_objects = 300;
  mixture.dimension = 6;
  mixture.num_clusters = 4;
  mixture.seed = 621;
  metric::Dataset dataset("replicas", data::MakeGaussianMixture(mixture),
                          std::make_shared<metric::L2Distance>());
  auto pivots = mindex::PivotSet::SelectRandom(dataset.objects(), 8, 622);
  ASSERT_TRUE(pivots.ok());
  auto key = SecretKey::Create(std::move(pivots).value(), Bytes(16, 0x54));
  ASSERT_TRUE(key.ok());

  net::LoopbackTransport transport(facade->get());
  EncryptionClient client(*key, dataset.distance(), &transport);
  ASSERT_TRUE(
      client.InsertBulk(dataset.objects(), InsertStrategy::kPrecise, 60)
          .ok());
  EXPECT_EQ((*facade)->TotalObjects(), dataset.size());

  // Delete a slice through the facade, then verify each shard's two
  // replica handlers hold identical object counts (every write reached
  // both).
  std::vector<VectorObject> doomed(dataset.objects().begin(),
                                   dataset.objects().begin() + 40);
  ASSERT_TRUE(client.DeleteBatch(doomed, 40).ok());
  for (size_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(handlers[s * kReplicas]->index().size(),
              handlers[s * kReplicas + 1]->index().size())
        << "replicas of shard " << s << " diverged";
  }

  // Reads still match the oracle with replica routing in the path.
  Rng rng(623);
  metric::Dataset live("live",
                       std::vector<VectorObject>(
                           dataset.objects().begin() + 40,
                           dataset.objects().end()),
                       dataset.distance());
  for (int q = 0; q < 5; ++q) {
    const VectorObject& query =
        live.objects()[rng.NextBounded(live.size())];
    const double radius = rng.NextUniform(1.0, 3.0);
    const auto exact = metric::LinearRangeSearch(live, query, radius);
    auto answer = client.RangeSearch(query, radius);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    ASSERT_EQ(answer->size(), exact.size());
    for (size_t i = 0; i < exact.size(); ++i) {
      EXPECT_EQ((*answer)[i].id, exact[i].id);
    }
  }

  // Topology introspection: every replica up, and the aggregated stats
  // carry the health fields over the wire.
  auto topology = (*facade)->TopologySnapshot();
  ASSERT_EQ(topology.size(), kShards);
  for (const auto& shard : topology) {
    ASSERT_EQ(shard.replicas.size(), kReplicas);
    EXPECT_EQ(shard.health(), ShardHealth::kUp);
  }
  auto stats = client.GetServerStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->shards_total, kShards);
  EXPECT_EQ(stats->shards_up, kShards);
  EXPECT_EQ(stats->shards_down, 0u);

  facade->reset();
  for (auto& server : servers) server->Stop();
}

}  // namespace
}  // namespace secure
}  // namespace simcloud
