// Batched query engine throughput at batch sizes {1, 8, 64} (a single
// query travels as a batch of one), on memory storage and on the
// CoPhIR-style disk configuration with and without the payload cache.
//
// The batched path saves per-request overhead at every layer — one
// protocol round trip, one shared-lock acquisition, one tree pass for
// range batches, one coalesced FetchMany (plus cache hits) instead of one
// storage read per candidate — so queries/sec should rise with batch
// size, most sharply on disk storage.
//
// Usage: bench_batch_throughput [--smoke]
//   --smoke  tiny collection / few queries, for CI.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/clock.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "mindex/permutation.h"
#include "secure/protocol.h"

namespace simcloud {
namespace bench {
namespace {

struct RunResult {
  double single_qps = 0;
  double batch8_qps = 0;
  double batch64_qps = 0;
};

/// `hot_pool` = 0 draws every query distinct (uniform sweep); > 0 draws
/// from a pool of that many popular queries (the skewed workload a
/// similarity cloud serves under heavy traffic — the same hot queries
/// arrive from many users and repeat inside a batch).
std::vector<metric::VectorObject> MakeQueries(const DatasetConfig& config,
                                              size_t count, size_t hot_pool) {
  std::vector<metric::VectorObject> queries;
  queries.reserve(count);
  const auto& objects = config.dataset.objects();
  Rng rng(1234);
  for (size_t i = 0; i < count; ++i) {
    const size_t pick = hot_pool == 0
                            ? (i * 131) % objects.size()
                            : (rng.NextBounded(hot_pool) * 131) %
                                  objects.size();
    queries.push_back(objects[pick]);
  }
  return queries;
}

/// Chunks the query set into pre-encoded batch requests of `batch_size`
/// queries (a batch of one each for batch_size 1) so the measured loop
/// below times raw Handle() calls only —
/// the server throughput the batch engine exists to raise (client
/// refinement runs on the many clients of the cloud, not on the server).
std::vector<Bytes> EncodeServerRequests(
    const std::vector<mindex::KnnQuery>& queries, size_t batch_size) {
  std::vector<Bytes> requests;
  size_t done = 0;
  while (done < queries.size()) {
    const size_t n = std::min(batch_size, queries.size() - done);
    requests.push_back(secure::EncodeApproxKnnBatchRequest(
        {queries.begin() + done, queries.begin() + done + n}));
    done += n;
  }
  return requests;
}

double MeasureServerQps(SecureStack& stack,
                        const std::vector<Bytes>& requests,
                        size_t num_queries) {
  Stopwatch watch;
  for (const Bytes& request : requests) {
    auto response = stack.server->Handle(request);
    if (!response.ok()) {
      std::fprintf(stderr, "server query failed: %s\n",
                   response.status().ToString().c_str());
      std::abort();
    }
  }
  const double seconds = watch.ElapsedNanos() / 1e9;
  return seconds > 0 ? static_cast<double>(num_queries) / seconds : 0;
}

double MeasureClientQps(SecureStack& stack,
                        const std::vector<metric::VectorObject>& queries,
                        size_t k, size_t cand_size, size_t batch_size) {
  Stopwatch watch;
  size_t done = 0;
  while (done < queries.size()) {
    const size_t n = std::min(batch_size, queries.size() - done);
    const std::vector<metric::VectorObject> batch(
        queries.begin() + done, queries.begin() + done + n);
    auto result = stack.client->ApproxKnnBatch(batch, k, cand_size);
    if (!result.ok()) std::abort();
    done += n;
  }
  const double seconds = watch.ElapsedNanos() / 1e9;
  return seconds > 0 ? static_cast<double>(queries.size()) / seconds : 0;
}

void Run(bool smoke) {
  const size_t num_objects = smoke ? 3000 : 20000;
  const size_t num_server_queries = smoke ? 128 : 512;
  const size_t num_client_queries = smoke ? 32 : 64;
  const size_t k = 30;
  const size_t cand_size = smoke ? 200 : 500;
  const size_t hot_pool = 16;

  struct NamedConfig {
    const char* label;
    mindex::StorageKind storage;
    uint64_t cache_bytes;
  };
  const NamedConfig configs[] = {
      {"memory", mindex::StorageKind::kMemory, 0},
      {"disk", mindex::StorageKind::kDisk, 0},
      {"disk+cache", mindex::StorageKind::kDisk, 64ull << 20},
  };
  struct Workload {
    const char* label;
    size_t hot_pool;  // 0 = uniform sweep of distinct queries
  };
  const Workload workloads[] = {{"uniform", 0}, {"hot", hot_pool}};

  TablePrinter server_table(
      "Server-side approximate 30-NN throughput (queries/sec, Handle only)",
      {"batch=1", "batch=8", "batch=64", "speedup@64"});
  TablePrinter client_table(
      "End-to-end approximate 30-NN throughput (queries/sec, with client "
      "decrypt+refine)",
      {"batch=1", "batch=64", "speedup@64"});

  for (const NamedConfig& named : configs) {
    DatasetConfig config = MakeCophirConfig(num_objects);
    config.index_options.storage_kind = named.storage;
    config.index_options.cache_bytes = named.cache_bytes;
    if (named.storage == mindex::StorageKind::kMemory) {
      config.index_options.disk_path.clear();
    } else {
      config.index_options.disk_path =
          "/tmp/simcloud_batch_bench_" + std::string(named.label) + ".bin";
    }
    SecureStack stack =
        BuildSecureStack(config, secure::InsertStrategy::kPrecise, nullptr);

    for (const Workload& workload : workloads) {
      const std::string row =
          std::string(named.label) + "/" + workload.label;
      const std::vector<metric::VectorObject> queries =
          MakeQueries(config, num_server_queries, workload.hot_pool);

      std::vector<mindex::KnnQuery> knn_queries;
      for (const metric::VectorObject& query : queries) {
        std::vector<float> distances = stack.key.pivots().ComputeDistances(
            query, *config.dataset.distance());
        mindex::QuerySignature signature;
        signature.pivot_distances = distances;
        signature.permutation = mindex::DistancesToPermutation(distances);
        knn_queries.push_back(
            mindex::KnnQuery{std::move(signature), cand_size});
      }
      const std::vector<Bytes> requests1 =
          EncodeServerRequests(knn_queries, 1);
      const std::vector<Bytes> requests8 =
          EncodeServerRequests(knn_queries, 8);
      const std::vector<Bytes> requests64 =
          EncodeServerRequests(knn_queries, 64);

      // Warm the payload cache and page cache once for all batch sizes.
      MeasureServerQps(stack, requests8, knn_queries.size());
      const double srv1 =
          MeasureServerQps(stack, requests1, knn_queries.size());
      const double srv8 =
          MeasureServerQps(stack, requests8, knn_queries.size());
      const double srv64 =
          MeasureServerQps(stack, requests64, knn_queries.size());
      server_table.AddRow(row, {srv1, srv8, srv64,
                                srv1 > 0 ? srv64 / srv1 : 0}, 1);

      const std::vector<metric::VectorObject> client_queries = MakeQueries(
          config, num_client_queries, workload.hot_pool);
      const double cli1 =
          MeasureClientQps(stack, client_queries, k, cand_size, 1);
      const double cli64 =
          MeasureClientQps(stack, client_queries, k, cand_size, 64);
      client_table.AddRow(row, {cli1, cli64, cli1 > 0 ? cli64 / cli1 : 0},
                          1);
    }
  }
  server_table.Print();
  client_table.Print();
}

}  // namespace
}  // namespace bench
}  // namespace simcloud

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  simcloud::bench::Run(smoke);
  return 0;
}
