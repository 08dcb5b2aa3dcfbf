// Observability subsystem tests: histogram bucket grid and quantile
// math against a sorted-sample oracle, exact counting under concurrent
// writers (the TSan sweep runs this), the append-only snapshot codec,
// merge semantics, the slow-query log's exact threshold boundary, and
// kGetMetrics end to end — both the in-process exactness property
// (a ShardedServer facade's merge equals the sum of per-shard scrapes)
// and a 3-shard secure TCP cluster scraped while churn runs.
//
// The registry is process-global, so every test uses test-local metric
// names and restores any toggles (enabled flag, slow-query threshold,
// sink) it flips.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "data/synthetic.h"
#include "net/tcp.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "secure/client.h"
#include "secure/protocol.h"
#include "secure/server.h"
#include "secure/sharded_server.h"

namespace simcloud {
namespace {

using metric::VectorObject;

/// Field-wise deep equality; histogram buckets must match pair-for-pair.
void ExpectSnapshotsEqual(const obs::MetricsSnapshot& want,
                          const obs::MetricsSnapshot& got) {
  EXPECT_EQ(want.counters, got.counters);
  EXPECT_EQ(want.gauges, got.gauges);
  ASSERT_EQ(want.histograms.size(), got.histograms.size());
  for (size_t i = 0; i < want.histograms.size(); ++i) {
    EXPECT_EQ(want.histograms[i].name, got.histograms[i].name);
    EXPECT_EQ(want.histograms[i].count, got.histograms[i].count);
    EXPECT_EQ(want.histograms[i].sum, got.histograms[i].sum);
    EXPECT_EQ(want.histograms[i].buckets, got.histograms[i].buckets);
  }
}

/// Restores the slow-query threshold and sink on scope exit so a failed
/// assertion cannot leak armed tracing into later tests.
struct SlowQueryGuard {
  int64_t saved_threshold = obs::SlowQueryThresholdMs();
  ~SlowQueryGuard() {
    obs::SetSlowQueryThresholdMs(saved_threshold);
    obs::SetSlowQuerySinkForTest(nullptr);
  }
};

// ---------------------------------------------------------------------------
// Bucket grid
// ---------------------------------------------------------------------------

TEST(HistogramBuckets, GridIsContiguousExhaustiveAndTight) {
  // The first four buckets hold the exact values 0..3.
  for (uint64_t v = 0; v < 4; ++v) {
    EXPECT_EQ(obs::BucketIndex(v), v);
    EXPECT_EQ(obs::BucketLowerBound(v), v);
    EXPECT_EQ(obs::BucketUpperBound(v), v + 1);
  }
  for (size_t b = 0; b < obs::kHistogramBucketCount; ++b) {
    const uint64_t lower = obs::BucketLowerBound(b);
    const uint64_t upper = obs::BucketUpperBound(b);
    // Each bucket owns its inclusive lower bound ...
    EXPECT_EQ(obs::BucketIndex(lower), b) << "bucket " << b;
    if (b + 1 < obs::kHistogramBucketCount) {
      // ... is non-empty, ends exactly where the next begins, and owns
      // the value just below its exclusive upper bound.
      ASSERT_GT(upper, lower) << "bucket " << b;
      EXPECT_EQ(obs::BucketLowerBound(b + 1), upper) << "bucket " << b;
      EXPECT_EQ(obs::BucketIndex(upper - 1), b) << "bucket " << b;
    } else {
      EXPECT_EQ(upper, UINT64_MAX);
    }
    // Sub-bucketing keeps relative width <= 25% everywhere above the
    // exact range (this is what bounds the quantile readout error).
    if (b >= 4 && b + 1 < obs::kHistogramBucketCount) {
      EXPECT_LE(static_cast<double>(upper - lower),
                0.25 * static_cast<double>(lower) + 1e-9)
          << "bucket " << b;
    }
  }
  // The grid is a total order over uint64: random probes land in the
  // bucket whose [lower, upper) range contains them.
  Rng rng(4242);
  for (int i = 0; i < 4000; ++i) {
    const uint64_t v = rng.NextU64() >> rng.NextBounded(64);
    const size_t b = obs::BucketIndex(v);
    ASSERT_LT(b, obs::kHistogramBucketCount);
    EXPECT_GE(v, obs::BucketLowerBound(b));
    if (b + 1 < obs::kHistogramBucketCount) {
      EXPECT_LT(v, obs::BucketUpperBound(b));
    }
  }
  EXPECT_EQ(obs::BucketIndex(UINT64_MAX), obs::kHistogramBucketCount - 1);
}

// ---------------------------------------------------------------------------
// Quantiles vs a sorted-sample oracle
// ---------------------------------------------------------------------------

TEST(HistogramQuantiles, TracksSortedOracleWithinBucketResolution) {
  obs::Histogram* histogram =
      obs::Registry::Default().GetHistogram("test_quantile_oracle_nanos");
  ASSERT_TRUE(obs::MetricsEnabled());

  // Log-uniform samples spanning ~12 decades, the shape of a latency
  // distribution with a heavy tail.
  Rng rng(77);
  std::vector<uint64_t> values;
  values.reserve(20000);
  uint64_t sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t v =
        static_cast<uint64_t>(std::pow(2.0, rng.NextUniform(0.0, 40.0)));
    values.push_back(v);
    sum += v;
    histogram->Record(v);
  }
  std::sort(values.begin(), values.end());

  const obs::MetricsSnapshot snapshot = obs::Registry::Default().Snapshot();
  const obs::HistogramSnapshot* h =
      snapshot.histogram("test_quantile_oracle_nanos");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, values.size());
  EXPECT_EQ(h->sum, sum);

  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    const size_t rank = std::min(
        values.size() - 1, static_cast<size_t>(q * values.size()));
    const double oracle = static_cast<double>(values[rank]);
    const double estimate = h->Quantile(q);
    // The estimate interpolates inside a bucket of <= 25% relative
    // width, so it must stay within that resolution of the true sample
    // quantile (small absolute slack for the exact low buckets).
    EXPECT_LE(estimate, oracle * 1.30 + 2.0) << "q=" << q;
    EXPECT_GE(estimate, oracle * 0.75 - 2.0) << "q=" << q;
  }
  // Degenerate inputs.
  obs::HistogramSnapshot empty;
  EXPECT_EQ(empty.Quantile(0.5), 0.0);
  EXPECT_EQ(empty.Mean(), 0.0);
}

// ---------------------------------------------------------------------------
// Snapshot codec: round trip, append-only, corruption
// ---------------------------------------------------------------------------

TEST(MetricsCodec, RoundTripIsAppendOnlyAndRejectsCorruption) {
  obs::MetricsSnapshot snapshot;
  snapshot.counters = {{"a_total", 7},
                       {"b_total{op=\"ping\"}", 912345678901ull}};
  snapshot.gauges = {{"depth", -5}, {"queue_bytes", 1 << 20}};
  obs::HistogramSnapshot histogram;
  histogram.name = "lat_nanos{op=\"range_search\"}";
  histogram.buckets = {{0, 2}, {17, 5}, {251, 1}};
  histogram.count = 8;  // must equal the bucket total for round-trip
  histogram.sum = 123456;
  snapshot.histograms.push_back(histogram);

  const Bytes encoded = obs::EncodeMetricsSnapshot(snapshot);
  auto decoded = obs::DecodeMetricsSnapshot(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectSnapshotsEqual(snapshot, *decoded);

  // Append-only envelope: a future revision appending an unknown block
  // must not break this decoder.
  Bytes extended = encoded;
  for (uint8_t junk : {0xde, 0xad, 0xbe, 0xef, 0x00}) {
    extended.push_back(junk);
  }
  auto decoded_extended = obs::DecodeMetricsSnapshot(extended);
  ASSERT_TRUE(decoded_extended.ok());
  ExpectSnapshotsEqual(snapshot, *decoded_extended);

  // A bucket index beyond the grid is corruption, not UB.
  {
    BinaryWriter writer;
    writer.WriteVarint(0);  // counters
    writer.WriteVarint(0);  // gauges
    writer.WriteVarint(1);  // histograms
    writer.WriteString("h");
    writer.WriteVarint(0);  // sum
    writer.WriteVarint(1);  // buckets
    writer.WriteVarint(obs::kHistogramBucketCount);  // first invalid index
    writer.WriteVarint(1);
    auto bad = obs::DecodeMetricsSnapshot(writer.TakeBuffer());
    EXPECT_FALSE(bad.ok());
  }
  // Non-ascending bucket indices are corruption too (the merge and the
  // Prometheus writer both rely on the ordering).
  {
    BinaryWriter writer;
    writer.WriteVarint(0);
    writer.WriteVarint(0);
    writer.WriteVarint(1);
    writer.WriteString("h");
    writer.WriteVarint(0);
    writer.WriteVarint(2);
    writer.WriteVarint(9);
    writer.WriteVarint(1);
    writer.WriteVarint(9);  // duplicate index
    writer.WriteVarint(1);
    auto bad = obs::DecodeMetricsSnapshot(writer.TakeBuffer());
    EXPECT_FALSE(bad.ok());
  }
  // Truncation anywhere inside the known blocks is an error, never a
  // partial snapshot.
  for (size_t cut = 1; cut < encoded.size(); ++cut) {
    auto truncated = obs::DecodeMetricsSnapshot(
        Bytes(encoded.begin(), encoded.begin() + cut));
    EXPECT_FALSE(truncated.ok()) << "cut at " << cut;
  }
}

// ---------------------------------------------------------------------------
// Merge semantics
// ---------------------------------------------------------------------------

TEST(MetricsMerge, CountersGaugesAndHistogramsSumElementWise) {
  obs::MetricsSnapshot a;
  a.counters = {{"x_total", 5}, {"y_total", 2}};
  a.gauges = {{"g", 4}};
  obs::HistogramSnapshot ha;
  ha.name = "h_nanos";
  ha.buckets = {{3, 1}, {10, 2}};
  ha.count = 3;
  ha.sum = 100;
  a.histograms.push_back(ha);

  obs::MetricsSnapshot b;
  b.counters = {{"y_total", 10}, {"z_total", 1}};
  b.gauges = {{"g", -1}, {"g2", 7}};
  obs::HistogramSnapshot hb;
  hb.name = "h_nanos";
  hb.buckets = {{10, 5}, {40, 1}};
  hb.count = 6;
  hb.sum = 900;
  b.histograms.push_back(hb);
  obs::HistogramSnapshot only_b;
  only_b.name = "only_b_nanos";
  only_b.buckets = {{0, 1}};
  only_b.count = 1;
  only_b.sum = 0;
  b.histograms.push_back(only_b);

  a.Merge(b);

  obs::MetricsSnapshot want;
  want.counters = {{"x_total", 5}, {"y_total", 12}, {"z_total", 1}};
  want.gauges = {{"g", 3}, {"g2", 7}};
  obs::HistogramSnapshot hw;
  hw.name = "h_nanos";
  hw.buckets = {{3, 1}, {10, 7}, {40, 1}};
  hw.count = 9;
  hw.sum = 1000;
  want.histograms.push_back(hw);
  want.histograms.push_back(only_b);
  ExpectSnapshotsEqual(want, a);
}

// ---------------------------------------------------------------------------
// Concurrency: sharded cells count exactly (TSan sweep target)
// ---------------------------------------------------------------------------

TEST(MetricsConcurrency, ConcurrentWritersLoseNoIncrements) {
  obs::Counter* counter =
      obs::Registry::Default().GetCounter("test_concurrent_total");
  obs::Histogram* histogram =
      obs::Registry::Default().GetHistogram("test_concurrent_nanos");
  constexpr int kThreads = 8;
  constexpr uint64_t kOpsPerThread = 150000;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t i = 0; i < kOpsPerThread; ++i) {
        counter->Add(1);
        if (i % 16 == 0) histogram->Record(t * 1000 + i % 97);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(counter->Value(), kThreads * kOpsPerThread);
  const obs::MetricsSnapshot snapshot = obs::Registry::Default().Snapshot();
  const obs::HistogramSnapshot* h =
      snapshot.histogram("test_concurrent_nanos");
  ASSERT_NE(h, nullptr);
  // ceil(kOpsPerThread / 16) records per thread.
  EXPECT_EQ(h->count, kThreads * ((kOpsPerThread + 15) / 16));
  const uint64_t* c = snapshot.counter("test_concurrent_total");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(*c, kThreads * kOpsPerThread);
}

// ---------------------------------------------------------------------------
// Kill switch
// ---------------------------------------------------------------------------

TEST(MetricsToggle, DisabledRegistryIsInert) {
  SlowQueryGuard guard;
  obs::SetSlowQueryThresholdMs(-1);
  const bool was_enabled = obs::MetricsEnabled();
  obs::Counter* counter =
      obs::Registry::Default().GetCounter("test_toggle_total");
  obs::Histogram* histogram =
      obs::Registry::Default().GetHistogram("test_toggle_nanos");

  obs::SetMetricsEnabled(false);
  counter->Add(5);
  histogram->Record(1234);
  EXPECT_EQ(counter->Value(), 0u);
  // With metrics off and no slow-query threshold armed, the per-request
  // clock work is skipped entirely.
  EXPECT_FALSE(obs::TracingActive());

  obs::SetMetricsEnabled(true);
  counter->Add(2);
  EXPECT_EQ(counter->Value(), 2u);
  EXPECT_TRUE(obs::TracingActive());
  const obs::MetricsSnapshot snapshot = obs::Registry::Default().Snapshot();
  const obs::HistogramSnapshot* h = snapshot.histogram("test_toggle_nanos");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 0u);
  obs::SetMetricsEnabled(was_enabled);
}

// ---------------------------------------------------------------------------
// Slow-query log: exact boundary + structured line
// ---------------------------------------------------------------------------

TEST(SlowQuery, FiresExactlyAtTheThreshold) {
  SlowQueryGuard guard;
  obs::SetSlowQueryThresholdMs(5);
  EXPECT_FALSE(obs::ShouldLogSlowQuery(4999999));
  EXPECT_TRUE(obs::ShouldLogSlowQuery(5000000));  // exact threshold fires
  EXPECT_TRUE(obs::ShouldLogSlowQuery(5000001));
  obs::SetSlowQueryThresholdMs(0);
  EXPECT_TRUE(obs::ShouldLogSlowQuery(0));
  obs::SetSlowQueryThresholdMs(-1);
  EXPECT_FALSE(obs::ShouldLogSlowQuery(UINT64_MAX));  // disabled

  obs::TraceSpan span;
  span.set_opcode(10);  // ping
  span.set_shard(2);
  span.set_batch_size(8);
  span.AddDistanceComputations(41);
  span.AddStageNanos(obs::Stage::kQueueWait, 1500);
  span.AddStageNanos(obs::Stage::kIndexEval, 250000);
  const std::string line = obs::FormatSlowQueryLine(span, 7500000);
  EXPECT_NE(line.find("slow_query op=ping"), std::string::npos) << line;
  EXPECT_NE(line.find("total_ms=7.500"), std::string::npos) << line;
  EXPECT_NE(line.find("shard=2"), std::string::npos) << line;
  EXPECT_NE(line.find("batch=8"), std::string::npos) << line;
  EXPECT_NE(line.find("dist_comps=41"), std::string::npos) << line;
  EXPECT_NE(line.find("queue_us=1.5"), std::string::npos) << line;
  EXPECT_NE(line.find("index_us=250.0"), std::string::npos) << line;
}

// ---------------------------------------------------------------------------
// Sharded kGetMetrics: merge == sum of per-shard scrapes (exactness)
// ---------------------------------------------------------------------------

TEST(GetMetricsSharded, FacadeMergeEqualsSumOfPerShardScrapes) {
  constexpr size_t kShards = 3;
  mindex::MIndexOptions options;
  options.num_pivots = 4;
  options.bucket_capacity = 25;
  options.max_level = 3;
  auto facade = secure::ShardedServer::Create(options, kShards);
  ASSERT_TRUE(facade.ok()) << facade.status().ToString();

  // Make sure the scrape has content.
  obs::Registry::Default().GetCounter("test_sharded_total")->Add(11);
  obs::Registry::Default().GetHistogram("test_sharded_nanos")->Record(777);

  // Freeze the registry for the comparison window: every record call is
  // gated on the enabled flag, so no straggler thread can move a cell
  // between the reference snapshot and the shard snapshots.
  const bool was_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(false);

  // In-process shards all answer the one process-global registry, and
  // neither the facade fan-out nor the shard handlers record anything on
  // the in-process kGetMetrics path — so "scrape each shard, then merge"
  // is N identical snapshots summed, and the facade's answer must equal
  // it EXACTLY (counters, gauges, and histogram buckets pair-for-pair).
  const obs::MetricsSnapshot one = obs::Registry::Default().Snapshot();
  obs::MetricsSnapshot expected;
  for (size_t s = 0; s < kShards; ++s) expected.Merge(one);

  auto response = (*facade)->Handle(secure::EncodeGetMetricsRequest());
  obs::SetMetricsEnabled(was_enabled);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  auto merged = secure::DecodeMetricsResponse(*response);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ExpectSnapshotsEqual(expected, *merged);

  const uint64_t* tripled = merged->counter("test_sharded_total");
  ASSERT_NE(tripled, nullptr);
  EXPECT_GE(*tripled, kShards * 11u);
}

// ---------------------------------------------------------------------------
// Slow-query log end to end: threshold 0 logs a real TCP request
// ---------------------------------------------------------------------------

TEST(SlowQuery, ThresholdZeroEmitsStructuredLineForTcpPing) {
  SlowQueryGuard guard;
  std::mutex mutex;
  std::vector<std::string> lines;
  obs::SetSlowQuerySinkForTest([&](const std::string& line) {
    std::lock_guard<std::mutex> lock(mutex);
    lines.push_back(line);
  });
  obs::SetSlowQueryThresholdMs(0);  // every request is "slow"

  mindex::MIndexOptions options;
  options.num_pivots = 4;
  auto handler = secure::EncryptedMIndexServer::Create(options);
  ASSERT_TRUE(handler.ok());
  net::TcpServer server(handler->get());
  ASSERT_TRUE(server.Start(0).ok());

  auto transport = net::TcpTransport::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(transport.ok()) << transport.status().ToString();
  auto response = (*transport)->Call(secure::EncodePingRequest());
  ASSERT_TRUE(response.ok()) << response.status().ToString();

  // The worker emits the line when it finishes the span; the response
  // can race ahead of the sink call, so poll briefly.
  bool found = false;
  for (int i = 0; i < 200 && !found; ++i) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      for (const std::string& line : lines) {
        if (line.find("slow_query op=ping") != std::string::npos) {
          found = true;
          EXPECT_NE(line.find("total_ms="), std::string::npos) << line;
          EXPECT_NE(line.find("seal_us="), std::string::npos) << line;
        }
      }
    }
    if (!found) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(found) << "no slow_query line for the ping arrived";
  server.Stop();
}

// ---------------------------------------------------------------------------
// kGetMetrics end to end: 3-shard secure TCP cluster under churn
// ---------------------------------------------------------------------------

TEST(GetMetricsCluster, ClientScrapesFacadeOverSecureTcp) {
  // EncryptionClient::GetMetrics is a synchronous Call: over a secure
  // TcpTransport to a facade (itself on secure shard connections) it
  // must return the decodable merged snapshot.
  constexpr size_t kShards = 2;
  data::MixtureOptions data_options;
  data_options.num_objects = 60;
  data_options.dimension = 4;
  data_options.num_clusters = 3;
  data_options.seed = 421;
  const std::vector<VectorObject> objects =
      data::MakeGaussianMixture(data_options);
  auto metric = std::make_shared<metric::L2Distance>();
  auto pivots = mindex::PivotSet::SelectRandom(objects, 4, 422);
  ASSERT_TRUE(pivots.ok());
  auto key = secure::SecretKey::Create(std::move(*pivots), Bytes(16, 0x73));
  ASSERT_TRUE(key.ok());
  mindex::MIndexOptions index_options;
  index_options.num_pivots = 4;
  index_options.max_level = 3;

  net::SecureChannelOptions secure_options;
  secure_options.psk = Bytes(32, 0x78);
  net::TcpServerOptions server_options;
  server_options.worker_threads = 2;
  server_options.channel_policy = net::ChannelPolicy::kSecure;
  server_options.secure_channel = secure_options;

  std::vector<std::unique_ptr<secure::EncryptedMIndexServer>> handlers;
  std::vector<std::unique_ptr<net::TcpServer>> servers;
  std::vector<secure::ShardEndpoint> endpoints;
  for (size_t s = 0; s < kShards; ++s) {
    auto handler = secure::EncryptedMIndexServer::Create(index_options);
    ASSERT_TRUE(handler.ok()) << handler.status().ToString();
    handlers.push_back(std::move(*handler));
    servers.push_back(std::make_unique<net::TcpServer>(handlers.back().get(),
                                                       server_options));
    ASSERT_TRUE(servers.back()->Start(0).ok());
    endpoints.push_back(
        secure::ShardEndpoint{"127.0.0.1", servers.back()->port()});
  }
  auto facade = secure::ShardedServer::Connect(
      endpoints, index_options.num_pivots, net::ChannelPolicy::kSecure,
      secure_options);
  ASSERT_TRUE(facade.ok()) << facade.status().ToString();
  net::TcpServer facade_server(facade->get(), server_options);
  ASSERT_TRUE(facade_server.Start(0).ok());

  auto transport = net::TcpTransport::Connect(
      "127.0.0.1", facade_server.port(), net::ChannelPolicy::kSecure,
      secure_options);
  ASSERT_TRUE(transport.ok()) << transport.status().ToString();
  secure::EncryptionClient client(*key, metric, transport->get());
  ASSERT_TRUE(
      client.InsertBulk(objects, secure::InsertStrategy::kPrecise, 30).ok());
  ASSERT_TRUE(client.RangeSearch(objects[5], 1.0).ok());

  auto scrape = client.GetMetrics();
  ASSERT_TRUE(scrape.ok()) << scrape.status().ToString();
  const uint64_t* searches =
      scrape->counter("simcloud_requests_total{op=\"range_search_batch\"}");
  ASSERT_NE(searches, nullptr);
  EXPECT_GE(*searches, kShards);  // the search fanned out to every shard
  EXPECT_EQ(scrape->counter("simcloud_requests_total{op=\"range_search\"}"),
            nullptr);

  facade_server.Stop();
  facade->reset();
  for (auto& server : servers) server->Stop();
}

TEST(GetMetricsCluster, SecureShardedScrapeEndToEndUnderChurn) {
  constexpr size_t kShards = 3;
  constexpr size_t kDim = 8;
  constexpr double kRadius = 2.5;

  // Stable region for queries, far-away churn region for deletes
  // (pipeline_test.cc's layout).
  data::MixtureOptions stable_options;
  stable_options.num_objects = 200;
  stable_options.dimension = kDim;
  stable_options.num_clusters = 5;
  stable_options.seed = 411;
  const std::vector<VectorObject> stable =
      data::MakeGaussianMixture(stable_options);
  data::MixtureOptions churn_options;
  churn_options.num_objects = 150;
  churn_options.dimension = kDim;
  churn_options.num_clusters = 3;
  churn_options.seed = 412;
  std::vector<VectorObject> churn;
  for (const VectorObject& object : data::MakeGaussianMixture(churn_options)) {
    std::vector<float> values = object.values();
    for (float& v : values) v += 500.0f;
    churn.emplace_back(object.id() + 1000000, std::move(values));
  }
  std::vector<VectorObject> all = stable;
  all.insert(all.end(), churn.begin(), churn.end());

  auto metric = std::make_shared<metric::L2Distance>();
  auto pivots = mindex::PivotSet::SelectRandom(all, 8, 413);
  ASSERT_TRUE(pivots.ok());
  auto key = secure::SecretKey::Create(std::move(*pivots), Bytes(16, 0x72));
  ASSERT_TRUE(key.ok());

  mindex::MIndexOptions index_options;
  index_options.num_pivots = 8;
  index_options.bucket_capacity = 25;
  index_options.max_level = 4;
  index_options.cache_bytes = 256 * 1024;

  net::SecureChannelOptions secure_options;
  secure_options.psk = Bytes(32, 0x77);
  net::TcpServerOptions server_options;
  server_options.worker_threads = 2;
  server_options.channel_policy = net::ChannelPolicy::kSecure;
  server_options.secure_channel = secure_options;

  std::vector<std::unique_ptr<secure::EncryptedMIndexServer>> handlers;
  std::vector<std::unique_ptr<net::TcpServer>> servers;
  std::vector<std::vector<secure::ShardEndpoint>> replica_sets(kShards);
  for (size_t s = 0; s < kShards; ++s) {
    auto handler = secure::EncryptedMIndexServer::Create(index_options);
    ASSERT_TRUE(handler.ok()) << handler.status().ToString();
    handlers.push_back(std::move(*handler));
    servers.push_back(std::make_unique<net::TcpServer>(handlers.back().get(),
                                                       server_options));
    ASSERT_TRUE(servers.back()->Start(0).ok());
    replica_sets[s].push_back(
        secure::ShardEndpoint{"127.0.0.1", servers.back()->port()});
  }
  auto facade = secure::ShardedServer::Connect(
      replica_sets, index_options.num_pivots, net::ChannelPolicy::kSecure,
      secure_options);
  ASSERT_TRUE(facade.ok()) << facade.status().ToString();

  net::LoopbackTransport owner_transport(facade->get());
  secure::EncryptionClient owner(*key, metric, &owner_transport);
  ASSERT_TRUE(
      owner.InsertBulk(all, secure::InsertStrategy::kPrecise, 100).ok());

  // Facade-level counter sums are monotone across scrapes even while
  // churn runs (the merge is over live shard registries).
  auto sum_prefix = [](const obs::MetricsSnapshot& snapshot,
                       const std::string& prefix) {
    uint64_t total = 0;
    for (const auto& [name, value] : snapshot.counters) {
      if (name.rfind(prefix, 0) == 0) total += value;
    }
    return total;
  };

  std::atomic<bool> stop{false};
  std::atomic<int> worker_failures{0};
  std::thread querier([&] {
    net::LoopbackTransport transport(facade->get());
    secure::EncryptionClient client(*key, metric, &transport);
    Rng rng(414);
    while (!stop.load()) {
      const VectorObject& q = stable[rng.NextBounded(stable.size())];
      if (!client.RangeSearch(q, kRadius).ok()) worker_failures.fetch_add(1);
      if (!client.ApproxKnnBatch({q}, 5, 32).ok()) worker_failures.fetch_add(1);
    }
  });
  std::thread deleter([&] {
    net::LoopbackTransport transport(facade->get());
    secure::EncryptionClient client(*key, metric, &transport);
    for (size_t at = 0; at < churn.size() && !stop.load(); at += 25) {
      const size_t end = std::min(churn.size(), at + 25);
      std::vector<VectorObject> chunk(churn.begin() + at, churn.begin() + end);
      if (!client.DeleteBatch(chunk).ok()) worker_failures.fetch_add(1);
    }
  });

  // Scrape the facade repeatedly mid-churn: every scrape must decode and
  // the request totals must never move backwards.
  net::LoopbackTransport scrape_transport(facade->get());
  secure::EncryptionClient scraper(*key, metric, &scrape_transport);
  uint64_t last_requests = 0;
  for (int round = 0; round < 5; ++round) {
    auto scrape = scraper.GetMetrics();
    ASSERT_TRUE(scrape.ok()) << scrape.status().ToString();
    const uint64_t requests =
        sum_prefix(*scrape, "simcloud_requests_total");
    EXPECT_GE(requests, last_requests) << "round " << round;
    last_requests = requests;
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }

  deleter.join();
  stop.store(true);
  querier.join();
  EXPECT_EQ(worker_failures.load(), 0);

  // The deletes left dead bytes on every shard; a forced compaction must
  // run real passes and show up in the pass histogram.
  ASSERT_TRUE(owner.Compact(/*force=*/true).ok());

  auto final_scrape = scraper.GetMetrics();
  ASSERT_TRUE(final_scrape.ok()) << final_scrape.status().ToString();
  const obs::MetricsSnapshot& metrics = *final_scrape;

  // Per-opcode accounting reached the shard registries over secure TCP.
  const uint64_t* searches =
      metrics.counter("simcloud_requests_total{op=\"range_search_batch\"}");
  ASSERT_NE(searches, nullptr);
  EXPECT_GT(*searches, 0u);
  const uint64_t* scrapes =
      metrics.counter("simcloud_requests_total{op=\"get_metrics\"}");
  ASSERT_NE(scrapes, nullptr);
  EXPECT_GE(*scrapes, kShards);  // at least one fan-out of the final scrape
  EXPECT_GT(sum_prefix(metrics, "simcloud_net_bytes_in_total"), 0u);
  EXPECT_GT(sum_prefix(metrics, "simcloud_net_bytes_out_total"), 0u);

  // Distance accounting: query evaluation and pivot permutations.
  const uint64_t* distances =
      metrics.counter("simcloud_distance_computations_total");
  ASSERT_NE(distances, nullptr);
  EXPECT_GT(*distances, 0u);
  const uint64_t* pivot_distances =
      metrics.counter("simcloud_pivot_distance_computations_total");
  ASSERT_NE(pivot_distances, nullptr);
  EXPECT_GT(*pivot_distances, 0u);

  // Payload cache saw traffic (cache_bytes is set on every shard).
  const uint64_t hits =
      sum_prefix(metrics, "simcloud_payload_cache_hits_total");
  const uint64_t misses =
      sum_prefix(metrics, "simcloud_payload_cache_misses_total");
  EXPECT_GT(hits + misses, 0u);

  // The PSK handshake histograms carry one sample per secure connection:
  // the facade dialed each shard at least once, on both sides.
  const obs::HistogramSnapshot* server_handshakes = metrics.histogram(
      "simcloud_secure_handshake_nanos{side=\"server\"}");
  ASSERT_NE(server_handshakes, nullptr);
  EXPECT_GE(server_handshakes->count, kShards);
  const obs::HistogramSnapshot* client_handshakes = metrics.histogram(
      "simcloud_secure_handshake_nanos{side=\"client\"}");
  ASSERT_NE(client_handshakes, nullptr);
  EXPECT_GE(client_handshakes->count, kShards);

  // Latency histograms are well-formed: quantiles are monotone.
  const obs::HistogramSnapshot* latency = metrics.histogram(
      "simcloud_request_nanos{op=\"range_search_batch\"}");
  ASSERT_NE(latency, nullptr);
  EXPECT_GT(latency->count, 0u);
  EXPECT_LE(latency->Quantile(0.5), latency->Quantile(0.99));
  EXPECT_GT(latency->Mean(), 0.0);

  // The forced compaction after the delete churn recorded its passes.
  const obs::HistogramSnapshot* passes =
      metrics.histogram("simcloud_compaction_pass_nanos");
  ASSERT_NE(passes, nullptr);
  EXPECT_GE(passes->count, 1u);
  const uint64_t* moved =
      metrics.counter("simcloud_compaction_payloads_moved_total");
  ASSERT_NE(moved, nullptr);

  // The merged block re-encodes and re-decodes cleanly (what a facade of
  // facades, or tools/scrape_metrics.py --merge, would consume).
  auto reencoded =
      obs::DecodeMetricsSnapshot(obs::EncodeMetricsSnapshot(metrics));
  ASSERT_TRUE(reencoded.ok());
  ExpectSnapshotsEqual(metrics, *reencoded);

  facade->reset();
  for (auto& server : servers) server->Stop();
}

}  // namespace
}  // namespace simcloud
