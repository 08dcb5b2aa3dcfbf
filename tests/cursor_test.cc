// Server-side cursor battery (kRangeSearchCursor / kCursorNext /
// kCursorClose): the anchor invariant is BYTE identity — the
// concatenation of all cursor pages with the open page's stats must
// encode exactly like the one-shot answer (a range batch of one),
// across storage engines (memory / disk), deployment shapes (single
// node / 3-shard facade), and page sizes including 1. Around the anchor: TTL expiry is
// an explicit error (never a silent empty page), max_open_cursors
// rejection, idempotent close, eager disconnect reaping (asserted via
// stats), and snapshot-at-open semantics under concurrent churn.
//
// CI runs this in both channel policies (SIMCLOUD_CHANNEL_POLICY=secure
// seals every page in AEAD records).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "metric/distance.h"
#include "mindex/pivot_set.h"
#include "net/tcp.h"
#include "net/transport.h"
#include "secure/client.h"
#include "secure/protocol.h"
#include "secure/server.h"
#include "secure/sharded_server.h"

namespace simcloud {
namespace secure {
namespace {

using metric::VectorObject;

constexpr size_t kNumPivots = 8;
constexpr size_t kDim = 6;
/// Covers the whole synthetic mixture: every object is a candidate, so
/// cursor totals are large and deterministic.
constexpr double kWideRadius = 1e6;

net::ChannelPolicy PolicyFromEnv() {
  const char* env = std::getenv("SIMCLOUD_CHANNEL_POLICY");
  return env != nullptr && std::string(env) == "secure"
             ? net::ChannelPolicy::kSecure
             : net::ChannelPolicy::kPlaintext;
}

net::SecureChannelOptions CursorChannelOptions() {
  net::SecureChannelOptions options;
  options.psk = Bytes(32, 0x5A);
  options.rekey_after_records = 64;  // cross epochs mid-pagination
  return options;
}

std::vector<VectorObject> MakeObjects(size_t count, uint64_t seed) {
  data::MixtureOptions options;
  options.num_objects = count;
  options.dimension = kDim;
  options.num_clusters = 4;
  options.seed = seed;
  return data::MakeGaussianMixture(options);
}

/// A handler (single node or sharded facade), the key that loaded it,
/// and a loopback client for in-process protocol-level tests.
struct World {
  std::shared_ptr<metric::L2Distance> metric;
  std::unique_ptr<SecretKey> key;
  std::unique_ptr<net::RequestHandler> handler;
  EncryptedMIndexServer* single = nullptr;   // white-box, 1-shard only
  ShardedServer* sharded = nullptr;          // white-box, multi-shard only
  std::unique_ptr<net::LoopbackTransport> transport;
  std::unique_ptr<EncryptionClient> client;
  std::vector<VectorObject> objects;

  /// Pivot distances as the client would send them (no transform here).
  std::vector<float> QueryDistances(const VectorObject& query) const {
    return key->pivots().ComputeDistances(query, *metric);
  }
};

World MakeWorld(size_t num_shards, bool disk, size_t num_objects,
                const CursorConfig& cursor_config = CursorConfig{},
                uint64_t seed = 4242) {
  World world;
  world.metric = std::make_shared<metric::L2Distance>();
  world.objects = MakeObjects(num_objects, seed);
  auto pivots =
      mindex::PivotSet::SelectRandom(world.objects, kNumPivots, seed + 1);
  EXPECT_TRUE(pivots.ok());
  auto key = SecretKey::Create(std::move(pivots).value(), Bytes(16, 0x42));
  EXPECT_TRUE(key.ok());
  world.key = std::make_unique<SecretKey>(std::move(*key));

  mindex::MIndexOptions options;
  options.num_pivots = kNumPivots;
  options.bucket_capacity = 25;
  options.max_level = 4;
  if (disk) {
    options.disk_path = testing::TempDir() + "/simcloud_cursor_" +
                        std::to_string(seed) + "_" +
                        std::to_string(num_shards) + ".bin";
    std::remove(options.disk_path.c_str());
    for (size_t s = 0; s < num_shards; ++s) {  // sharded per-shard files
      std::remove((options.disk_path + "." + std::to_string(s)).c_str());
    }
  }
  if (num_shards <= 1) {
    auto server = EncryptedMIndexServer::Create(options, cursor_config);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    world.single = server->get();
    world.handler = std::move(*server);
  } else {
    auto server = ShardedServer::Create(options, num_shards, cursor_config);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    world.sharded = server->get();
    world.handler = std::move(*server);
  }
  world.transport =
      std::make_unique<net::LoopbackTransport>(world.handler.get());
  world.client = std::make_unique<EncryptionClient>(
      *world.key, world.metric, world.transport.get());
  EXPECT_TRUE(
      world.client->InsertBulk(world.objects, InsertStrategy::kPrecise, 128)
          .ok());
  return world;
}

/// Drains a cursor protocol-level: concatenates every page's candidates
/// and returns the open page's stats. Asserts pages respect page_size
/// and that exhaustion is signalled by cursor id 0, not an error.
struct DrainResult {
  mindex::CandidateList candidates;
  mindex::SearchStats open_stats;
  uint64_t total = 0;
  size_t pages = 0;
};

DrainResult DrainCursor(net::RequestHandler* handler,
                        const std::vector<float>& query_distances,
                        double radius, uint64_t page_size) {
  DrainResult drained;
  auto open = handler->Handle(EncodeRangeSearchCursorRequest(
      query_distances, radius, page_size, 0));
  EXPECT_TRUE(open.ok()) << open.status().ToString();
  auto page = DecodeCursorPage(*open);
  EXPECT_TRUE(page.ok()) << page.status().ToString();
  drained.open_stats = page->stats;
  drained.total = page->total;
  uint64_t cursor_id = page->cursor_id;
  for (;;) {
    ++drained.pages;
    EXPECT_LE(page->candidates.size(), page_size);
    for (auto& candidate : page->candidates) {
      drained.candidates.push_back(std::move(candidate));
    }
    if (cursor_id == 0) break;
    auto next = handler->Handle(EncodeCursorNextRequest(cursor_id));
    EXPECT_TRUE(next.ok()) << next.status().ToString();
    page = DecodeCursorPage(*next);
    EXPECT_TRUE(page.ok()) << page.status().ToString();
    EXPECT_EQ(page->total, drained.total);
    cursor_id = page->cursor_id;
  }
  return drained;
}

/// The one-shot answer to R(q, radius): a range batch of one.
CandidateResponse OneShotRange(net::RequestHandler* handler,
                               const std::vector<float>& query_distances,
                               double radius) {
  auto bytes = handler->Handle(EncodeRangeSearchBatchRequest(
      {mindex::RangeQuery{query_distances, radius}}));
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  if (!bytes.ok()) return {};
  auto decoded = DecodeBatchCandidateResponse(*bytes);
  EXPECT_TRUE(decoded.ok() && decoded->query_count() == 1);
  if (!decoded.ok() || decoded->query_count() != 1) return {};
  return decoded->Materialize(0);
}

/// One answer in a single canonical encoding (the cursor page's
/// candidate block), so two answers compare byte for byte: every id,
/// score, payload byte and stat.
Bytes Canonical(const mindex::CandidateList& candidates,
                const mindex::SearchStats& stats) {
  CursorPage page;
  page.stats = stats;
  page.candidates = candidates;
  return EncodeCursorPage(page);
}

/// The tentpole invariant, checked at the byte level.
void ExpectPagedMatchesOneShot(World* world, uint64_t page_size) {
  const VectorObject& query = world->objects[world->objects.size() / 2];
  const std::vector<float> query_distances = world->QueryDistances(query);
  const CandidateResponse one_shot =
      OneShotRange(world->handler.get(), query_distances, kWideRadius);
  ASSERT_EQ(one_shot.candidates.size(), world->objects.size())
      << "the wide radius must admit every object";

  DrainResult drained =
      DrainCursor(world->handler.get(), query_distances, kWideRadius,
                  page_size);
  EXPECT_EQ(drained.total, one_shot.candidates.size());
  EXPECT_EQ(Canonical(drained.candidates, drained.open_stats),
            Canonical(one_shot.candidates, one_shot.stats))
      << "paged concatenation diverges from one-shot at page size "
      << page_size;
}

// ------------------------------------------------- byte identity matrix

TEST(CursorTest, PagedMatchesOneShotSingleShardMemory) {
  World world = MakeWorld(/*num_shards=*/1, /*disk=*/false, 200);
  for (uint64_t page_size : {1u, 7u, 64u, 100000u}) {
    ExpectPagedMatchesOneShot(&world, page_size);
  }
  // Nothing leaks: every drained cursor released its server state.
  EXPECT_EQ(world.single->cursors().counters().open, 0u);
}

TEST(CursorTest, PagedMatchesOneShotSingleShardDisk) {
  World world = MakeWorld(/*num_shards=*/1, /*disk=*/true, 200, {}, 4243);
  for (uint64_t page_size : {1u, 7u, 64u, 100000u}) {
    ExpectPagedMatchesOneShot(&world, page_size);
  }
}

TEST(CursorTest, PagedMatchesOneShotThreeShardsMemory) {
  World world = MakeWorld(/*num_shards=*/3, /*disk=*/false, 200, {}, 4244);
  for (uint64_t page_size : {1u, 7u, 64u, 100000u}) {
    ExpectPagedMatchesOneShot(&world, page_size);
  }
  EXPECT_EQ(world.sharded->cursors().counters().open, 0u);
  for (size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(world.sharded->shard(s).cursors().counters().open, 0u)
        << "shard " << s << " leaked a cursor leg";
  }
}

TEST(CursorTest, PagedMatchesOneShotThreeShardsDisk) {
  World world = MakeWorld(/*num_shards=*/3, /*disk=*/true, 200, {}, 4245);
  for (uint64_t page_size : {1u, 7u, 64u, 100000u}) {
    ExpectPagedMatchesOneShot(&world, page_size);
  }
}

// ----------------------------------------------------- client stream API

TEST(CursorTest, ClientCursorStreamMatchesRangeSearch) {
  for (size_t num_shards : {size_t{1}, size_t{3}}) {
    World world = MakeWorld(num_shards, /*disk=*/false, 150, {},
                            4250 + num_shards);
    const VectorObject& query = world.objects[17];
    const double radius = 30.0;
    auto one_shot = world.client->RangeSearch(query, radius);
    ASSERT_TRUE(one_shot.ok()) << one_shot.status().ToString();

    auto stream = world.client->OpenRangeCursor(query, radius, 16);
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();
    metric::NeighborList merged;
    while (!(*stream)->exhausted()) {
      auto page = (*stream)->Next();
      ASSERT_TRUE(page.ok()) << page.status().ToString();
      merged.insert(merged.end(), page->begin(), page->end());
    }
    std::sort(merged.begin(), merged.end());
    ASSERT_EQ(merged.size(), one_shot->size());
    for (size_t i = 0; i < merged.size(); ++i) {
      EXPECT_EQ(merged[i].id, (*one_shot)[i].id);
      EXPECT_EQ(merged[i].distance, (*one_shot)[i].distance);
    }
    // Drained streams need no close, but close must still be clean.
    EXPECT_TRUE((*stream)->Close().ok());
  }
}

// ------------------------------------------------------ lifecycle limits

TEST(CursorTest, ExpiredCursorIsAnExplicitErrorNeverAnEmptyPage) {
  CursorConfig config;
  config.ttl_ms = 50;
  World world = MakeWorld(/*num_shards=*/1, /*disk=*/false, 120, config);
  const std::vector<float> qd = world.QueryDistances(world.objects[0]);
  auto open =
      world.handler->Handle(EncodeRangeSearchCursorRequest(qd, kWideRadius,
                                                           /*page_size=*/8,
                                                           0));
  ASSERT_TRUE(open.ok());
  auto page = DecodeCursorPage(*open);
  ASSERT_TRUE(page.ok());
  ASSERT_NE(page->cursor_id, 0u);

  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  auto next = world.handler->Handle(EncodeCursorNextRequest(page->cursor_id));
  ASSERT_FALSE(next.ok()) << "expiry must surface, not an empty page";
  EXPECT_EQ(next.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(next.status().message().find("cursor expired"), std::string::npos)
      << next.status().ToString();
  EXPECT_GE(world.single->cursors().counters().expired_total, 1u);
  EXPECT_EQ(world.single->cursors().counters().open, 0u);
}

TEST(CursorTest, MaxOpenCursorsRejectsTheOverflowOpen) {
  CursorConfig config;
  config.max_open_cursors = 2;
  World world = MakeWorld(/*num_shards=*/1, /*disk=*/false, 120, config);
  const std::vector<float> qd = world.QueryDistances(world.objects[0]);
  const Bytes open_request =
      EncodeRangeSearchCursorRequest(qd, kWideRadius, /*page_size=*/4, 0);

  std::vector<uint64_t> ids;
  for (int i = 0; i < 2; ++i) {
    auto open = world.handler->Handle(open_request);
    ASSERT_TRUE(open.ok());
    auto page = DecodeCursorPage(*open);
    ASSERT_TRUE(page.ok());
    ASSERT_NE(page->cursor_id, 0u);
    ids.push_back(page->cursor_id);
  }
  auto overflow = world.handler->Handle(open_request);
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(overflow.status().message().find("too many open cursors"),
            std::string::npos);
  // Closing one frees a slot: the next open succeeds again.
  auto close = world.handler->Handle(EncodeCursorCloseRequest(ids[0]));
  ASSERT_TRUE(close.ok());
  auto reopened = world.handler->Handle(open_request);
  EXPECT_TRUE(reopened.ok()) << reopened.status().ToString();
}

TEST(CursorTest, CloseIsIdempotentAndNextAfterCloseIsUnknown) {
  World world = MakeWorld(/*num_shards=*/1, /*disk=*/false, 120);
  const std::vector<float> qd = world.QueryDistances(world.objects[0]);
  auto open = world.handler->Handle(
      EncodeRangeSearchCursorRequest(qd, kWideRadius, 4, 0));
  ASSERT_TRUE(open.ok());
  auto page = DecodeCursorPage(*open);
  ASSERT_TRUE(page.ok());
  ASSERT_NE(page->cursor_id, 0u);

  auto first = world.handler->Handle(EncodeCursorCloseRequest(page->cursor_id));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(DecodeInsertResponse(*first).value(), 1u);
  auto second =
      world.handler->Handle(EncodeCursorCloseRequest(page->cursor_id));
  ASSERT_TRUE(second.ok()) << "double close must stay an ack, not an error";
  EXPECT_EQ(DecodeInsertResponse(*second).value(), 0u);

  auto next = world.handler->Handle(EncodeCursorNextRequest(page->cursor_id));
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kNotFound);
  EXPECT_NE(next.status().message().find("unknown cursor"),
            std::string::npos);
}

TEST(CursorTest, ZeroPageSizeIsRejected) {
  World world = MakeWorld(/*num_shards=*/1, /*disk=*/false, 50);
  const std::vector<float> qd = world.QueryDistances(world.objects[0]);
  auto open = world.handler->Handle(
      EncodeRangeSearchCursorRequest(qd, kWideRadius, 0, 0));
  ASSERT_FALSE(open.ok());
  EXPECT_EQ(open.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------- disconnect reaping

/// TCP fixture shared by the disconnect tests: the handler behind a live
/// TcpServer under the CI channel policy.
struct TcpWorld {
  World world;
  std::unique_ptr<net::TcpServer> server;
  net::ChannelPolicy policy = net::ChannelPolicy::kPlaintext;

  Result<std::unique_ptr<net::TcpTransport>> Connect() const {
    return net::TcpTransport::Connect("127.0.0.1", server->port(), policy,
                                      CursorChannelOptions());
  }
};

TcpWorld StartTcp(size_t num_shards, const CursorConfig& config,
                  uint64_t seed) {
  TcpWorld tcp;
  tcp.world = MakeWorld(num_shards, /*disk=*/false, 150, config, seed);
  tcp.policy = PolicyFromEnv();
  net::TcpServerOptions server_options;
  server_options.channel_policy = tcp.policy;
  if (tcp.policy == net::ChannelPolicy::kSecure) {
    server_options.secure_channel = CursorChannelOptions();
  }
  tcp.server = std::make_unique<net::TcpServer>(tcp.world.handler.get(),
                                                server_options);
  EXPECT_TRUE(tcp.server->Start(0).ok());
  return tcp;
}

/// Polls `predicate` for up to ~5 s (the disconnect reap is asynchronous:
/// the server notices the dropped connection on its event loop).
template <typename Predicate>
bool Eventually(Predicate predicate) {
  for (int i = 0; i < 500; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return predicate();
}

TEST(CursorTest, ConnectionDropReapsSingleServerCursors) {
  TcpWorld tcp = StartTcp(/*num_shards=*/1, CursorConfig{}, 4260);
  {
    auto transport = tcp.Connect();
    ASSERT_TRUE(transport.ok());
    EncryptionClient client(*tcp.world.key, tcp.world.metric,
                            transport->get());
    auto stream =
        client.OpenRangeCursor(tcp.world.objects[3], kWideRadius, 8);
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();
    ASSERT_NE((*stream)->cursor_id(), 0u);
    EXPECT_EQ(tcp.world.single->cursors().counters().open, 1u);
    // The client vanishes without closing: abort the connection first so
    // the stream destructor's best-effort close cannot reach the server —
    // only the disconnect reaper may release the cursor.
    (*transport)->Abort(Status::NetworkError("client vanished"));
  }
  EXPECT_TRUE(Eventually([&] {
    return tcp.world.single->cursors().counters().open == 0;
  })) << "dropped connection did not reap its cursor";
  EXPECT_GE(tcp.world.single->cursors().counters().reaped_total, 1u);
  tcp.server->Stop();
}

TEST(CursorTest, ConnectionDropReapsCompositeCursorsAndShardLegs) {
  TcpWorld tcp = StartTcp(/*num_shards=*/3, CursorConfig{}, 4261);
  ShardedServer* facade = tcp.world.sharded;
  {
    auto transport = tcp.Connect();
    ASSERT_TRUE(transport.ok());
    EncryptionClient client(*tcp.world.key, tcp.world.metric,
                            transport->get());
    auto stream =
        client.OpenRangeCursor(tcp.world.objects[3], kWideRadius, 8);
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();
    ASSERT_NE((*stream)->cursor_id(), 0u);
    EXPECT_EQ(facade->cursors().counters().open, 1u);
    (*transport)->Abort(Status::NetworkError("client vanished"));
  }
  EXPECT_TRUE(Eventually([&] {
    if (facade->cursors().counters().open != 0) return false;
    for (size_t s = 0; s < 3; ++s) {
      if (facade->shard(s).cursors().counters().open != 0) return false;
    }
    return true;
  })) << "dropped connection did not reap the composite cursor or its legs";
  EXPECT_GE(facade->cursors().counters().reaped_total, 1u);
  tcp.server->Stop();
}

TEST(CursorTest, StatsAggregateCursorCountersAcrossShards) {
  TcpWorld tcp = StartTcp(/*num_shards=*/3, CursorConfig{}, 4262);
  auto transport = tcp.Connect();
  ASSERT_TRUE(transport.ok());
  EncryptionClient client(*tcp.world.key, tcp.world.metric, transport->get());
  auto stream = client.OpenRangeCursor(tcp.world.objects[5], kWideRadius, 8);
  ASSERT_TRUE(stream.ok());
  ASSERT_NE((*stream)->cursor_id(), 0u);
  auto stats = client.GetServerStats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // One composite cursor on the facade + one leg per shard.
  EXPECT_EQ(stats->cursors_open, 4u);
  EXPECT_GE(stats->cursors_opened_total, 4u);
  EXPECT_TRUE((*stream)->Close().ok());
  auto after = client.GetServerStats();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->cursors_open, 0u);
  tcp.server->Stop();
}

// ------------------------------------------------------ mid-cursor churn

TEST(CursorTest, ChurnDuringPaginationStaysOnTheOpenSnapshot) {
  World world = MakeWorld(/*num_shards=*/1, /*disk=*/false, 300, {}, 4270);
  const VectorObject& query = world.objects[0];
  const std::vector<float> qd = world.QueryDistances(query);

  // The at-open oracle: every candidate id the snapshot can ever yield.
  const CandidateResponse oracle =
      OneShotRange(world.handler.get(), qd, kWideRadius);
  ASSERT_FALSE(oracle.candidates.empty());
  std::set<metric::ObjectId> snapshot_ids;
  for (const auto& candidate : oracle.candidates) {
    snapshot_ids.insert(candidate.id);
  }

  auto open = world.handler->Handle(
      EncodeRangeSearchCursorRequest(qd, kWideRadius, 16, 0));
  ASSERT_TRUE(open.ok());
  auto page = DecodeCursorPage(*open);
  ASSERT_TRUE(page.ok());
  uint64_t cursor_id = page->cursor_id;
  ASSERT_NE(cursor_id, 0u);

  // Churn between pages: delete indexed objects and insert fresh ones.
  // The cursor pins the at-open candidate snapshot with bounded
  // staleness — deleted candidates MAY vanish from later pages, inserts
  // NEVER appear, nothing crashes, no id is delivered twice.
  const std::vector<VectorObject> fresh = MakeObjects(60, 999999);
  std::vector<VectorObject> shifted;
  shifted.reserve(fresh.size());
  for (const VectorObject& object : fresh) {
    shifted.emplace_back(object.id() + 1000000, object.values());
  }
  std::set<metric::ObjectId> seen;
  for (const auto& candidate : page->candidates) {
    EXPECT_TRUE(seen.insert(candidate.id).second);
  }
  size_t churn_step = 0;
  while (cursor_id != 0) {
    if (churn_step < 10) {
      ASSERT_TRUE(
          world.client->Delete(world.objects[100 + churn_step * 5]).ok());
      ASSERT_TRUE(world.client
                      ->InsertBulk({shifted[churn_step]},
                                   InsertStrategy::kPrecise)
                      .ok());
      ++churn_step;
    }
    auto next = world.handler->Handle(EncodeCursorNextRequest(cursor_id));
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    page = DecodeCursorPage(*next);
    ASSERT_TRUE(page.ok());
    cursor_id = page->cursor_id;
    for (const auto& candidate : page->candidates) {
      EXPECT_TRUE(seen.insert(candidate.id).second)
          << "candidate " << candidate.id << " delivered twice";
      EXPECT_TRUE(snapshot_ids.count(candidate.id))
          << "candidate " << candidate.id
          << " was not in the at-open snapshot";
    }
  }
  // Bounded staleness: everything but the concurrently-deleted ids
  // arrived (deleted ones may or may not, depending on page timing).
  for (metric::ObjectId id : snapshot_ids) {
    bool deleted = false;
    for (size_t d = 0; d < churn_step; ++d) {
      if (world.objects[100 + d * 5].id() == id) {
        deleted = true;
        break;
      }
    }
    if (!deleted) {
      EXPECT_TRUE(seen.count(id)) << "live candidate " << id << " skipped";
    }
  }
}

TEST(CursorTest, CompletedCompactionInvalidatesTheCursorExplicitly) {
  World world = MakeWorld(/*num_shards=*/1, /*disk=*/false, 200, {}, 4271);
  const std::vector<float> qd = world.QueryDistances(world.objects[0]);
  auto open = world.handler->Handle(
      EncodeRangeSearchCursorRequest(qd, kWideRadius, 8, 0));
  ASSERT_TRUE(open.ok());
  auto page = DecodeCursorPage(*open);
  ASSERT_TRUE(page.ok());
  ASSERT_NE(page->cursor_id, 0u);

  // Make garbage, then force a full compaction pass: payload handles are
  // remapped, so the snapshot's handles can no longer be trusted.
  for (size_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(world.client->Delete(world.objects[50 + i]).ok());
  }
  auto report = world.client->Compact(/*force=*/true);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->compacted);

  auto next = world.handler->Handle(EncodeCursorNextRequest(page->cursor_id));
  ASSERT_FALSE(next.ok())
      << "a remapping compaction must invalidate, never serve stale bytes";
  EXPECT_EQ(next.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(next.status().message().find("cursor invalidated"),
            std::string::npos)
      << next.status().ToString();
  EXPECT_EQ(world.single->cursors().counters().open, 0u);
}

}  // namespace
}  // namespace secure
}  // namespace simcloud
