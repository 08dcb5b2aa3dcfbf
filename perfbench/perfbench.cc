// End-to-end benchmark of the encrypted similarity cloud.
//
// One process plays all three parties of the Encrypted M-Index over the
// real stack: EncryptionClient -> TcpTransport (ChannelPolicy::kSecure)
// -> TcpServer -> ShardedServer facade over secure TCP shards, or
// straight to EncryptedMIndexServer. Every answer is checked against
// plaintext ground truth. The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Workloads, metrics and the choice of every constant are
// described in perfbench/README.md.
//
//   perfbench --workload knn_wide|churn_disk --seed N
//             --seconds S --trace 0|1 --tmp DIR --out DIR

#include <malloc.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "metric/ground_truth.h"
#include "mindex/permutation.h"
#include "mindex/pivot_set.h"
#include "net/tcp.h"
#include "obs/metrics.h"
#include "secure/client.h"
#include "secure/protocol.h"
#include "secure/server.h"
#include "secure/session.h"
#include "secure/sharded_server.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace simcloud {
namespace perfbench {
namespace {

using metric::Neighbor;
using metric::NeighborList;
using metric::VectorObject;

// ---------------------------------------------------------------------------
// Fixed workload constants (see README.md for how each was chosen).
// ---------------------------------------------------------------------------

/// Objects per InsertBulk / DeleteBatch call, in set-up and in churn.
constexpr size_t kBulk = 100;
/// Load threads and connections never exceed the core count of the
/// reference box.
constexpr size_t kLoaders = 4;
/// Set-up is repeated this many times per run; setup_s is the median of
/// the quietest third.
constexpr int kSetupRepeats = 3;

// knn_wide
constexpr size_t kKnnObjects = 20000;
constexpr size_t kKnnPool = 256;
constexpr size_t kKnnBatch = 8;
constexpr size_t kKnnK = 30;
constexpr size_t kKnnCand = 500;
constexpr size_t kKnnClients = 2;
/// Shards behind the facade.
constexpr size_t kKnnShards = 3;
/// Closed-loop batches per client before the window. The facade moves
/// ~13 MB per request, and the process's RSS climbs for the first few
/// dozen requests while the allocator's arenas grow to their working
/// size; without the warm-up, peak_rss_mb depended on how far a run got.
constexpr size_t kKnnWarmBatches = 24;

// churn_disk
constexpr size_t kChurnBase = 40000;
constexpr size_t kChurnVectors = 80000;
constexpr size_t kChurnPool = 64;
constexpr double kChurnZipfS = 1.0;
constexpr size_t kChurnK = 10;
constexpr size_t kChurnCand = 100;
constexpr size_t kChurnReaders = 3;
constexpr double kChurnReadRate = 80.0;  // queries / s
constexpr uint64_t kChurnCacheBytes = 8ull << 20;
constexpr double kChurnTrigger = 0.3;
/// The churn window is split into blocks of this length.
constexpr double kChurnBlockSeconds = 0.5;
/// Writer and reader run this long before an untraced window opens.
constexpr double kChurnWarmSeconds = 3.0;

/// Recorded requests replayed in-process after a traced run, at most.
constexpr size_t kMaxReplay = 1000;

/// Environment overrides that change what the library does; a run with
/// any of them set would not measure the defaults.
constexpr const char* kPinnedEnv[] = {
    "SIMCLOUD_IO_ENGINE",     "SIMCLOUD_QUERY_THREADS",
    "SIMCLOUD_FORCE_SCALAR_CRYPTO", "SIMCLOUD_METRICS",
    "SIMCLOUD_CHANNEL_POLICY", "SIMCLOUD_COPHIR_N",
    "SIMCLOUD_SLOW_QUERY_MS"};

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

[[noreturn]] void Fatal(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::fflush(stdout);
  std::_Exit(2);
}

void Require(const Status& status, const std::string& what) {
  if (!status.ok()) Fatal(what + ": " + status.ToString());
}

template <typename T>
T Take(Result<T> result, const std::string& what) {
  if (!result.ok()) Fatal(what + ": " + result.status().ToString());
  return std::move(result).value();
}

uint64_t NowNs() { return static_cast<uint64_t>(MonotonicNanos()); }

double Ms(uint64_t nanos) { return static_cast<double>(nanos) * 1e-6; }
double Us(uint64_t nanos) { return static_cast<double>(nanos) * 1e-3; }

/// Nearest-rank percentile, p in [0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(const std::vector<double>& values) {
  return Percentile(values, 0.5);
}

/// Percentile robust to the box's rare whole-process stalls and to short
/// bursts of hypervisor steal: the median, over consecutive blocks of
/// kTailBlock samples in send order, of each block's percentile p. One
/// plain percentile when there are fewer than two blocks.
constexpr size_t kTailBlock = 200;
double BlockPercentile(const std::vector<double>& in_order, double p) {
  if (in_order.size() < 2 * kTailBlock) return Percentile(in_order, p);
  std::vector<double> per_block;
  for (size_t first = 0; first + kTailBlock <= in_order.size();
       first += kTailBlock) {
    per_block.push_back(Percentile(
        std::vector<double>(in_order.begin() + first,
                            in_order.begin() + first + kTailBlock),
        p));
  }
  return Median(per_block);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// A "Vm...:" line of /proc/self/status in MB; 0 when it is missing.
double ProcStatusMb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::strtod(line.c_str() + field.size() + 1, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// Returns freed heap to the system and restarts the RSS high-water mark
/// from the current RSS, which it returns in MB. peak_rss_mb is the
/// high-water mark above this baseline, so it covers the stack and not the
/// benchmark's own inputs and ground truth.
double ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  if (!clear) std::printf("note: cannot reset VmHWM; the peak includes inputs\n");
  return ProcStatusMb("VmRSS");
}

/// Machine-wide CPU ticks from /proc/stat: time the vCPUs ran, and time
/// they were ready to run but the hypervisor ran something else (steal).
struct CpuTicks {
  uint64_t busy = 0, steal = 0;
};
CpuTicks ReadCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  uint64_t user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
           softirq = 0, steal = 0;
  stat >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >>
      steal;
  return CpuTicks{user + nice + system + irq + softirq, steal};
}

/// Share of the vCPU time wanted between two readings that was stolen.
double StealShare(const CpuTicks& before, const CpuTicks& after) {
  const uint64_t busy = after.busy - before.busy;
  const uint64_t steal = after.steal - before.steal;
  return busy + steal == 0 ? 0.0
                           : static_cast<double>(steal) /
                                 static_cast<double>(busy + steal);
}

void SleepUntil(uint64_t due_ns) {
  const uint64_t now = NowNs();
  if (due_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now));
  }
}

/// The hypervisor takes the vCPUs away, in bursts and for whole minutes,
/// and every wall-clock figure follows it. So the gated figures count
/// time as the vCPUs were granted it: a wall-clock span is scaled by one
/// minus the steal share of its interval, the share of the vCPU time
/// wanted that the hypervisor gave to other guests. Where a phase is
/// split into short blocks, each block gets the steal share of its own
/// interval, and the figures pool the quiet blocks: the third with the
/// least steal, and every block at or under kQuietFloor. The choice
/// looks only at the host, never at the figure: a slower program is
/// slower in the chosen blocks too. On a quiet host every block is
/// chosen and nothing is scaled.
constexpr double kQuietShare = 1.0 / 3;
constexpr double kQuietFloor = 0.02;

/// Indices, ascending, of the quiet blocks of `shares`: every block whose
/// steal share is at most that of the kQuietShare quantile or
/// kQuietFloor, whichever is larger. Ties are all kept, so the choice
/// never depends on a block's position.
std::vector<size_t> QuietBlocks(const std::vector<double>& shares) {
  if (shares.empty()) return {};
  std::vector<double> sorted = shares;
  std::sort(sorted.begin(), sorted.end());
  const size_t keep = std::max<size_t>(
      1, static_cast<size_t>(
             std::ceil(static_cast<double>(shares.size()) * kQuietShare)));
  const double limit = std::max(kQuietFloor, sorted[keep - 1]);
  std::vector<size_t> quiet;
  for (size_t i = 0; i < shares.size(); ++i) {
    if (shares[i] <= limit) quiet.push_back(i);
  }
  return quiet;
}

/// Reads the CPU ticks at every boundary of `blocks` blocks of `block_ns`
/// from `start`, on a thread of its own.
class StealTimeline {
 public:
  StealTimeline(uint64_t start, uint64_t block_ns, size_t blocks)
      : ticks_(blocks + 1), thread_([this, start, block_ns, blocks] {
          for (size_t b = 0; b <= blocks; ++b) {
            SleepUntil(start + b * block_ns);
            ticks_[b] = ReadCpuTicks();
          }
        }) {}
  ~StealTimeline() {
    if (thread_.joinable()) thread_.join();
  }

  /// Steal share of each block; waits for the last boundary.
  std::vector<double> Shares() {
    if (thread_.joinable()) thread_.join();
    std::vector<double> shares;
    for (size_t b = 0; b + 1 < ticks_.size(); ++b) {
      shares.push_back(StealShare(ticks_[b], ticks_[b + 1]));
    }
    return shares;
  }

 private:
  std::vector<CpuTicks> ticks_;
  std::thread thread_;
};

/// Completions and their latencies per block of a measured phase, and
/// each block's steal share once the phase has ended.
struct BlockSeries {
  double block_s = 0;
  std::vector<std::vector<double>> latency_ms;
  std::vector<double> steal;

  BlockSeries(double block_seconds, size_t blocks)
      : block_s(block_seconds), latency_ms(blocks) {}
  /// Completions per granted second over the quiet blocks.
  double QuietRate() const {
    size_t done = 0;
    double granted_s = 0;
    for (size_t b : QuietBlocks(steal)) {
      done += latency_ms[b].size();
      granted_s += block_s * (1 - steal[b]);
    }
    return static_cast<double>(done) / granted_s;
  }
  /// Median granted latency of the requests of the quiet blocks.
  double QuietP50() const {
    std::vector<double> pooled;
    for (size_t b : QuietBlocks(steal)) {
      for (double ms : latency_ms[b]) pooled.push_back(ms * (1 - steal[b]));
    }
    return Median(pooled);
  }
  /// "quiet 20 of 60 blocks of 0.5 s at steal <= 1.2% (max 41.0%)"
  std::string Describe() const {
    const std::vector<size_t> quiet = QuietBlocks(steal);
    double worst = 0, chosen = 0;
    for (double s : steal) worst = std::max(worst, s);
    for (size_t b : quiet) chosen = std::max(chosen, steal[b]);
    char text[128];
    std::snprintf(text, sizeof(text),
                  "quiet %zu of %zu blocks of %.1f s at steal <= %.1f%% "
                  "(max %.1f%%)",
                  quiet.size(), steal.size(), block_s, 100 * chosen,
                  100 * worst);
    return text;
  }
};

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

uint64_t FileBytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

/// Runs fn(i) for i in [0, n) on kLoaders threads.
void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kLoaders; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t; i < n; i += kLoaders) fn(i);
    });
  }
  for (auto& thread : threads) thread.join();
}

// ---------------------------------------------------------------------------
// Result reporting
// ---------------------------------------------------------------------------

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void Fail(const std::string& why) {
    if (correct) std::printf("CHECK FAILED: %s\n", why.c_str());
    correct = false;
  }
  void Print() const {
    std::printf("metrics:\n");
    for (const auto& [name, v] : metrics) {
      std::printf("  %-40s %14.6f %s\n", name.c_str(), v.first,
                  v.second.c_str());
    }
    std::printf("error_rate: %.6f (%llu failed of %llu attempted)\n",
                attempted == 0 ? 0.0 : double(failed) / double(attempted),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, v] : metrics) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.9g",
                    std::isfinite(v.first) ? v.first : 0.0);
      if (!first) json += ", ";
      first = false;
      json += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
              v.second + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }
};

// ---------------------------------------------------------------------------
// Spans of the traced run: recorded by this file around each layer call,
// kept in memory, written out at exit.
// ---------------------------------------------------------------------------

struct Span {
  const char* name;
  uint64_t start = 0;
  uint64_t end = 0;
  int64_t parent = -1;  ///< index into the same log, -1 for a root
  uint64_t request = 0;
};

class SpanLog {
 public:
  size_t Begin(const char* name, int64_t parent, uint64_t request) {
    spans_.push_back(Span{name, NowNs(), 0, parent, request});
    return spans_.size() - 1;
  }
  void End(size_t index) { spans_[index].end = NowNs(); }
  const std::vector<Span>& spans() const { return spans_; }
  void Append(const SpanLog& other) {
    const int64_t offset = static_cast<int64_t>(spans_.size());
    for (Span span : other.spans_) {
      if (span.parent >= 0) span.parent += offset;
      spans_.push_back(span);
    }
  }

 private:
  std::vector<Span> spans_;
};

/// Stage timings of one traced request (nanoseconds) plus its counts.
struct TracedRequest {
  uint64_t pivot = 0, encode = 0, rtt = 0, server = 0, decode = 0,
           decrypt = 0, refine = 0, total = 0;
  uint64_t queries = 0, decrypts = 0, decrypted_bytes = 0, refine_dists = 0,
           bytes = 0;
};

// ---------------------------------------------------------------------------
// Workloads and their inputs
// ---------------------------------------------------------------------------

enum class Kind { kKnnWide, kChurnDisk };

struct Inputs {
  Kind kind;
  uint64_t seed = 0;
  mindex::MIndexOptions options;
  size_t shards = 1;
  std::shared_ptr<metric::DistanceFunction> metric;
  /// knn_wide: the collection, object id == index.
  /// churn_disk: the vector pool; object id i carries vectors[i % size].
  std::vector<VectorObject> vectors;
  std::vector<VectorObject> queries;  ///< query pool
  /// knn_wide: exact top-k.
  std::vector<NeighborList> exact;
  /// churn_disk: rows[q][v] = d(queries[q], vectors[v]).
  std::vector<std::vector<double>> rows;
  std::vector<double> zipf_cdf;  ///< churn_disk query popularity

  size_t base_count() const {
    return kind == Kind::kChurnDisk ? kChurnBase : vectors.size();
  }
  VectorObject Object(uint64_t id) const {
    if (kind != Kind::kChurnDisk) return vectors[id];
    return VectorObject(id, vectors[id % vectors.size()].values());
  }
  std::vector<VectorObject> Objects(uint64_t first, size_t count) const {
    std::vector<VectorObject> out;
    out.reserve(count);
    for (uint64_t id = first; id < first + count; ++id) out.push_back(Object(id));
    return out;
  }
  size_t ZipfQuery(Rng& rng) const {
    const double u = rng.NextDouble();
    return static_cast<size_t>(
        std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), u) -
        zipf_cdf.begin()) % zipf_cdf.size();
  }
};

std::vector<VectorObject> WithIndexIds(std::vector<VectorObject> objects) {
  for (size_t i = 0; i < objects.size(); ++i) {
    objects[i] = VectorObject(i, std::move(objects[i].mutable_values()));
  }
  return objects;
}

Inputs MakeInputs(const std::string& workload, uint64_t seed) {
  Inputs in;
  in.seed = seed;
  // The collection, its query pool and the key are fixed per workload;
  // the seed drives the traffic (which pool queries are sent, and when).
  Rng rng(17);
  if (workload == "knn_wide") {
    in.kind = Kind::kKnnWide;
    metric::Dataset data = data::MakeCophirLike(kKnnObjects);
    in.metric = data.distance();
    in.queries = data.SampleQueries(kKnnPool, rng.NextU64());
    in.vectors = WithIndexIds(std::move(data.mutable_objects()));
    in.options.num_pivots = 100;
    in.options.bucket_capacity = 1000;
    in.options.storage_kind = mindex::StorageKind::kDisk;
    in.options.stored_prefix_length = 16;
    in.options.cache_bytes = 64ull << 20;  // holds all ~23 MB of payloads
    in.shards = kKnnShards;
    in.exact.resize(in.queries.size());
    ParallelFor(in.queries.size(), [&](size_t q) {
      in.exact[q] = metric::LinearKnnSearch(in.vectors, *in.metric,
                                            in.queries[q], kKnnK);
    });
  } else if (workload == "churn_disk") {
    in.kind = Kind::kChurnDisk;
    metric::Dataset data =
        data::MakeCophirLike(kChurnVectors + kChurnPool);
    in.metric = data.distance();
    std::vector<VectorObject> all = std::move(data.mutable_objects());
    rng.Shuffle(all);
    in.queries.assign(all.begin(), all.begin() + kChurnPool);
    in.vectors = WithIndexIds(std::vector<VectorObject>(
        std::make_move_iterator(all.begin() + kChurnPool),
        std::make_move_iterator(all.end())));
    in.options.num_pivots = 100;
    in.options.bucket_capacity = 1000;
    in.options.storage_kind = mindex::StorageKind::kDisk;
    in.options.stored_prefix_length = 16;
    in.options.cache_bytes = kChurnCacheBytes;
    in.options.compaction_trigger = kChurnTrigger;
    in.rows.assign(in.queries.size(), {});
    ParallelFor(in.queries.size(), [&](size_t q) {
      in.rows[q].resize(in.vectors.size());
      for (size_t v = 0; v < in.vectors.size(); ++v) {
        in.rows[q][v] = in.metric->Distance(in.queries[q], in.vectors[v]);
      }
    });
    double total = 0;
    for (size_t r = 0; r < kChurnPool; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kChurnZipfS);
      in.zipf_cdf.push_back(total);
    }
    for (double& c : in.zipf_cdf) c /= total;
  } else {
    Fatal("unknown workload '" + workload + "'");
  }
  return in;
}

secure::SecretKey MakeKey(const Inputs& in) {
  std::vector<VectorObject> base(in.vectors.begin(),
                                 in.vectors.begin() + in.base_count());
  mindex::PivotSet pivots = Take(
      mindex::PivotSet::SelectRandom(base, in.options.num_pivots, 7),
      "pivot selection");
  Rng rng(0xC0FFEEull);
  Bytes aes_key(16);
  for (auto& b : aes_key) b = static_cast<uint8_t>(rng.NextU64());
  return Take(secure::SecretKey::Create(std::move(pivots), std::move(aes_key)),
              "key");
}

// ---------------------------------------------------------------------------
// The served cluster: one secure TcpServer per shard, plus a facade
// TcpServer over ShardedServer::Connect when there are several shards.
// ---------------------------------------------------------------------------

class Cluster {
 public:
  Cluster(const Inputs& in, const secure::SecretKey& key,
          const std::string& dir) {
    net::TcpServerOptions options;
    options.channel_policy = net::ChannelPolicy::kSecure;
    options.secure_channel = secure::SecureSessionOptions(key);
    std::vector<secure::ShardEndpoint> endpoints;
    for (size_t s = 0; s < in.shards; ++s) {
      mindex::MIndexOptions shard_options = in.options;
      if (shard_options.storage_kind == mindex::StorageKind::kDisk) {
        shard_options.disk_path = dir + "/payloads" + std::to_string(s);
        disk_paths_.push_back(shard_options.disk_path);
      }
      shards_.push_back(Take(secure::EncryptedMIndexServer::Create(shard_options),
                             "server create"));
      listeners_.push_back(
          std::make_unique<net::TcpServer>(shards_.back().get(), options));
      Require(listeners_.back()->Start(0), "shard listen");
      endpoints.push_back(
          secure::ShardEndpoint{"127.0.0.1", listeners_.back()->port()});
    }
    if (in.shards > 1) {
      facade_ = Take(secure::ShardedServer::Connect(
                         endpoints, in.options.num_pivots,
                         net::ChannelPolicy::kSecure,
                         secure::SecureSessionOptions(key)),
                     "facade connect");
      facade_listener_ = std::make_unique<net::TcpServer>(facade_.get(), options);
      Require(facade_listener_->Start(0), "facade listen");
    }
  }
  ~Cluster() {
    if (facade_listener_) facade_listener_->Stop();
    facade_listener_.reset();
    facade_.reset();
    for (auto& listener : listeners_) listener->Stop();
    listeners_.clear();
    shards_.clear();
  }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Port the client talks to.
  uint16_t port() const {
    return facade_listener_ ? facade_listener_->port() : listeners_[0]->port();
  }
  uint16_t shard_port(size_t s) const { return listeners_[s]->port(); }
  /// The handler behind port().
  net::RequestHandler* front() const {
    return facade_ ? static_cast<net::RequestHandler*>(facade_.get())
                   : shards_[0].get();
  }
  size_t num_shards() const { return shards_.size(); }
  secure::EncryptedMIndexServer* shard(size_t s) const {
    return shards_[s].get();
  }
  const std::vector<std::string>& disk_paths() const { return disk_paths_; }

 private:
  std::vector<std::unique_ptr<secure::EncryptedMIndexServer>> shards_;
  std::vector<std::unique_ptr<net::TcpServer>> listeners_;
  std::unique_ptr<secure::ShardedServer> facade_;
  std::unique_ptr<net::TcpServer> facade_listener_;
  std::vector<std::string> disk_paths_;
};

std::unique_ptr<net::TcpTransport> Dial(uint16_t port,
                                        const secure::SecretKey& key) {
  return Take(net::TcpTransport::Connect("127.0.0.1", port,
                                         net::ChannelPolicy::kSecure,
                                         secure::SecureSessionOptions(key)),
              "connect");
}

/// One client connection: a transport plus the client that drives it.
struct Connection {
  std::unique_ptr<net::TcpTransport> transport;
  std::unique_ptr<secure::EncryptionClient> client;
};

Connection Open(uint16_t port, const secure::SecretKey& key,
                const Inputs& in) {
  Connection c;
  c.transport = Dial(port, key);
  c.client = std::make_unique<secure::EncryptionClient>(key, in.metric,
                                                         c.transport.get());
  return c;
}

struct Setup {
  std::unique_ptr<Cluster> cluster;
  double seconds = 0;
  uint64_t bulks = 0, failed_bulks = 0;
};

/// Server start, secure connect and bulk load of the base collection by
/// kLoaders threads, until the first query can be answered.
Setup SetUp(const Inputs& in, const secure::SecretKey& key,
            const std::string& dir) {
  std::filesystem::create_directories(dir);
  Setup setup;
  const uint64_t start = NowNs();
  setup.cluster = std::make_unique<Cluster>(in, key, dir);
  const size_t bulks = (in.base_count() + kBulk - 1) / kBulk;
  std::mutex mutex;
  std::vector<std::thread> loaders;
  for (size_t t = 0; t < kLoaders; ++t) {
    loaders.emplace_back([&, t] {
      Connection c = Open(setup.cluster->port(), key, in);
      for (size_t b = t; b < bulks; b += kLoaders) {
        const size_t first = b * kBulk;
        const auto objects =
            in.Objects(first, std::min(kBulk, in.base_count() - first));
        const Status status = c.client->InsertBulk(
            objects, secure::InsertStrategy::kPrecise, kBulk);
        std::lock_guard<std::mutex> lock(mutex);
        setup.bulks++;
        if (!status.ok()) {
          setup.failed_bulks++;
          std::fprintf(stderr, "bulk load: %s\n", status.ToString().c_str());
        }
      }
    });
  }
  for (auto& loader : loaders) loader.join();
  setup.seconds = static_cast<double>(NowNs() - start) * 1e-9;
  return setup;
}

// ---------------------------------------------------------------------------
// Registry scrape (kGetMetrics), diffed across a window
// ---------------------------------------------------------------------------

obs::MetricsSnapshot Scrape(net::TcpTransport* transport) {
  const uint64_t ticket =
      Take(transport->Submit(secure::EncodeGetMetricsRequest()), "scrape");
  return Take(secure::DecodeMetricsResponse(
                  Take(transport->Collect(ticket), "scrape")),
              "scrape decode");
}

/// Sum of every counter named `base` or `base{...}`.
uint64_t CounterSum(const obs::MetricsSnapshot& s, const std::string& base) {
  uint64_t total = 0;
  for (const auto& [name, value] : s.counters) {
    if (name == base || name.rfind(base + "{", 0) == 0) total += value;
  }
  return total;
}

/// Bucket-wise after - before of every histogram named `base` or
/// `base{...}`.
obs::HistogramSnapshot HistogramDelta(const obs::MetricsSnapshot& before,
                                      const obs::MetricsSnapshot& after,
                                      const std::string& base) {
  std::map<uint32_t, int64_t> buckets;
  int64_t sum = 0;
  auto fold = [&](const obs::MetricsSnapshot& s, int sign) {
    for (const auto& h : s.histograms) {
      if (h.name != base && h.name.rfind(base + "{", 0) != 0) continue;
      for (const auto& [index, count] : h.buckets) {
        buckets[index] += sign * static_cast<int64_t>(count);
      }
      sum += sign * static_cast<int64_t>(h.sum);
    }
  };
  fold(after, 1);
  fold(before, -1);
  obs::HistogramSnapshot delta;
  delta.name = base;
  delta.sum = static_cast<uint64_t>(std::max<int64_t>(0, sum));
  for (const auto& [index, count] : buckets) {
    if (count <= 0) continue;
    delta.buckets.push_back({index, static_cast<uint64_t>(count)});
    delta.count += static_cast<uint64_t>(count);
  }
  return delta;
}

/// Per-layer numbers read from the registry over the measured window.
void AddScrapeMetrics(const obs::MetricsSnapshot& before,
                      const obs::MetricsSnapshot& after, uint64_t queries,
                      Report* report) {
  const auto queue = HistogramDelta(before, after, "simcloud_request_queue_nanos");
  report->Add("net.queue_wait_p50_us", queue.Quantile(0.5) * 1e-3, "us");
  report->Add("net.queue_wait_p99_us", queue.Quantile(0.99) * 1e-3, "us");
  auto counter = [&](const std::string& name) {
    return static_cast<double>(CounterSum(after, name) -
                               CounterSum(before, name));
  };
  report->Add("net.read_pauses", counter("simcloud_net_read_pauses_total"),
              "count");
  report->Add("net.rekeys", counter("simcloud_secure_rekeys_total"), "count");
  const auto fetch = HistogramDelta(before, after, "simcloud_payload_fetch_nanos");
  report->Add("mindex.payload_fetch_p99_us", fetch.Quantile(0.99) * 1e-3,
              "us");
  const double hits = counter("simcloud_payload_cache_hits_total");
  const double misses = counter("simcloud_payload_cache_misses_total");
  report->Add("mindex.cache_hit_ratio",
              hits + misses == 0 ? 0 : hits / (hits + misses), "ratio");
  report->Add("mindex.cache_hits", hits, "count");
  report->Add("mindex.cache_misses", misses, "count");
  report->Add("mindex.distance_computations_per_query",
              queries == 0 ? 0
                           : counter("simcloud_pivot_distance_computations_total") /
                                 static_cast<double>(queries),
              "count");
  const auto pauses =
      HistogramDelta(before, after, "simcloud_compaction_pause_nanos");
  report->Add("mindex.compaction_passes", static_cast<double>(pauses.count),
              "count");
  report->Add("mindex.compaction_pause_p99_ms", pauses.Quantile(0.99) * 1e-6,
              "ms");
  report->Add("mindex.compaction_moved_payloads",
              counter("simcloud_compaction_payloads_moved_total"), "count");
}

// ---------------------------------------------------------------------------
// Answer checks
// ---------------------------------------------------------------------------

/// Sorted, exactly k entries, and every distance equals the plaintext
/// distance of its id.
bool CheckKnnAnswer(const Inputs& in, const VectorObject& query,
                    const NeighborList& answer, size_t k,
                    std::string* why) {
  if (answer.size() != k) {
    *why = "k-NN answer holds " + std::to_string(answer.size()) +
           " entries, want " + std::to_string(k);
    return false;
  }
  for (size_t i = 0; i < answer.size(); ++i) {
    if (i > 0 && answer[i] < answer[i - 1]) {
      *why = "k-NN answer not sorted";
      return false;
    }
    const double d = in.metric->Distance(query, in.Object(answer[i].id));
    if (d != answer[i].distance) {
      *why = "id " + std::to_string(answer[i].id) + " reported at distance " +
             std::to_string(answer[i].distance) + ", plaintext says " +
             std::to_string(d);
      return false;
    }
  }
  return true;
}

double Recall(const NeighborList& answer, const NeighborList& exact) {
  return metric::RecallPercent(answer, exact) / 100.0;
}

// ---------------------------------------------------------------------------
// Load generators
// ---------------------------------------------------------------------------

/// One query (or query batch) sent by a load generator.
struct Sample {
  uint64_t due = 0;   ///< scheduled send time (closed loop: send time)
  uint64_t sent = 0;
  uint64_t done = 0;
  std::vector<uint32_t> queries;  ///< pool indices
  bool ok = false;
  std::vector<NeighborList> answers;
  double LatencyMs() const { return Ms(done - due); }
  /// From the actual send: what a traced request's root span covers.
  double ServiceMs() const { return Ms(done - sent); }
  double LateMs() const { return Ms(sent - due); }
};

/// Sends one request on `submit_client` and returns its pending batch.
using SubmitFn = std::function<Result<secure::PendingQueryBatch>(
    secure::EncryptionClient*, const std::vector<uint32_t>&)>;
/// Collects it on `collect_client` (same transport, another thread).
using CollectFn = std::function<Result<std::vector<NeighborList>>(
    secure::EncryptionClient*, secure::PendingQueryBatch*)>;

/// Open loop: `schedule` (absolute due times, ascending) is spread
/// round-robin over the connections; per connection a sender thread
/// submits at the due time and a collector thread collects in order.
std::vector<Sample> RunOpenLoop(
    const std::vector<std::pair<uint64_t, uint32_t>>& schedule,
    std::vector<Connection>* conns, const secure::SecretKey& key,
    const Inputs& in, const SubmitFn& submit, const CollectFn& collect) {
  std::vector<Sample> samples(schedule.size());
  const size_t n = conns->size();
  std::vector<std::thread> threads;
  struct Queue {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<std::pair<size_t, std::optional<secure::PendingQueryBatch>>> items;
    bool closed = false;
  };
  std::vector<Queue> queues(n);
  for (size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      secure::EncryptionClient* client = (*conns)[c].client.get();
      for (size_t i = c; i < schedule.size(); i += n) {
        Sample& s = samples[i];
        s.due = schedule[i].first;
        s.queries = {schedule[i].second};
        SleepUntil(s.due);
        s.sent = NowNs();
        auto pending = submit(client, s.queries);
        std::lock_guard<std::mutex> lock(queues[c].mutex);
        if (pending.ok()) {
          queues[c].items.push_back({i, std::move(pending).value()});
        } else {
          queues[c].items.push_back({i, std::nullopt});
        }
        queues[c].cv.notify_one();
      }
      std::lock_guard<std::mutex> lock(queues[c].mutex);
      queues[c].closed = true;
      queues[c].cv.notify_one();
    });
    threads.emplace_back([&, c] {
      secure::EncryptionClient collector(key, in.metric,
                                         (*conns)[c].transport.get());
      while (true) {
        std::unique_lock<std::mutex> lock(queues[c].mutex);
        queues[c].cv.wait(lock, [&] {
          return queues[c].closed || !queues[c].items.empty();
        });
        if (queues[c].items.empty()) return;
        auto item = std::move(queues[c].items.front());
        queues[c].items.pop_front();
        lock.unlock();
        Sample& s = samples[item.first];
        if (item.second.has_value()) {
          auto answers = collect(&collector, &*item.second);
          if (answers.ok()) {
            s.ok = true;
            s.answers = std::move(answers).value();
          }
        }
        s.done = NowNs();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  return samples;
}

/// Poisson arrivals at `rate` per second over [start, start + seconds).
std::vector<std::pair<uint64_t, uint32_t>> PoissonSchedule(
    Rng& rng, double rate, double seconds, uint64_t start,
    const std::function<uint32_t()>& pick) {
  std::vector<std::pair<uint64_t, uint32_t>> schedule;
  double t = rng.NextExponential(rate);
  while (t < seconds) {
    schedule.push_back({start + static_cast<uint64_t>(t * 1e9), pick()});
    t += rng.NextExponential(rate);
  }
  return schedule;
}

// ---------------------------------------------------------------------------
// The traced client: each request driven stage by stage through public
// functions, one span per layer call.
// ---------------------------------------------------------------------------

Result<std::vector<NeighborList>> RunTraced(
    const Inputs& in, const secure::SecretKey& key,
    net::TcpTransport* transport, const std::vector<uint32_t>& pool_indices,
    SpanLog* log, uint64_t request_id, TracedRequest* t,
    Bytes* request_out) {
  const size_t root = log->Begin("request", -1, request_id);
  const int64_t parent = static_cast<int64_t>(root);
  std::vector<const VectorObject*> queries;
  for (uint32_t q : pool_indices) queries.push_back(&in.queries[q]);
  t->queries = queries.size();

  size_t span = log->Begin("metric.pivot", parent, request_id);
  std::vector<std::vector<float>> distances;
  for (const VectorObject* q : queries) {
    distances.push_back(key.pivots().ComputeDistances(*q, *in.metric));
  }
  log->End(span);

  span = log->Begin("secure.encode", parent, request_id);
  const size_t cand = in.kind == Kind::kKnnWide ? kKnnCand : kChurnCand;
  std::vector<mindex::KnnQuery> batch;
  for (auto& d : distances) {
    mindex::KnnQuery item;
    item.signature.permutation = mindex::DistancesToPermutation(d);
    item.cand_size = cand;
    batch.push_back(std::move(item));
  }
  Bytes request = secure::EncodeApproxKnnBatchRequest(batch);
  log->End(span);

  const net::TransportCosts before = transport->costs();
  span = log->Begin("net.rtt", parent, request_id);
  SIMCLOUD_ASSIGN_OR_RETURN(uint64_t ticket, transport->Submit(request));
  SIMCLOUD_ASSIGN_OR_RETURN(Bytes response, transport->Collect(ticket));
  log->End(span);
  const net::TransportCosts& after = transport->costs();
  t->server = static_cast<uint64_t>(after.server_nanos - before.server_nanos);
  t->bytes = after.TotalBytes() - before.TotalBytes();

  span = log->Begin("secure.decode", parent, request_id);
  SIMCLOUD_ASSIGN_OR_RETURN(secure::BatchCandidateResponse decoded,
                            secure::DecodeBatchCandidateResponse(response));
  log->End(span);
  if (decoded.query_count() != queries.size()) {
    return Status::Internal("response answers a different query count");
  }

  span = log->Begin("crypto.decrypt", parent, request_id);
  std::vector<VectorObject> objects;
  objects.reserve(decoded.batch.payloads.size());
  for (const Bytes& payload : decoded.batch.payloads) {
    SIMCLOUD_ASSIGN_OR_RETURN(VectorObject object, key.DecryptObject(payload));
    objects.push_back(std::move(object));
    t->decrypted_bytes += payload.size();
  }
  t->decrypts = objects.size();
  log->End(span);

  span = log->Begin("metric.refine", parent, request_id);
  std::vector<NeighborList> answers;
  for (size_t q = 0; q < queries.size(); ++q) {
    NeighborList refined;
    for (const auto& ref : decoded.batch.per_query[q]) {
      const VectorObject& object = objects[ref.payload_index];
      refined.push_back(
          Neighbor{object.id(), in.metric->Distance(*queries[q], object)});
    }
    t->refine_dists += refined.size();
    std::sort(refined.begin(), refined.end());
    const size_t k = in.kind == Kind::kKnnWide ? kKnnK : kChurnK;
    if (refined.size() > k) refined.resize(k);
    answers.push_back(std::move(refined));
  }
  log->End(span);
  log->End(root);

  const auto& s = log->spans();
  auto dur = [&](size_t i) { return s[i].end - s[i].start; };
  t->total = dur(root);
  t->pivot = dur(root + 1);
  t->encode = dur(root + 2);
  t->rtt = dur(root + 3);
  t->decode = dur(root + 4);
  t->decrypt = dur(root + 5);
  t->refine = dur(root + 6);
  if (request_out != nullptr) *request_out = std::move(request);
  return answers;
}

/// Same request through EncryptionClient (the reference the traced
/// pipeline must reproduce).
Result<std::vector<NeighborList>> RunReference(
    const Inputs& in, secure::EncryptionClient* client,
    const std::vector<uint32_t>& pool_indices) {
  std::vector<VectorObject> queries;
  for (uint32_t q : pool_indices) queries.push_back(in.queries[q]);
  const bool wide = in.kind == Kind::kKnnWide;
  return client->ApproxKnnBatch(queries, wide ? kKnnK : kChurnK,
                                wide ? kKnnCand : kChurnCand);
}

/// One thread sends `schedule` on `conn`, one request at a time: through
/// EncryptionClient when `log` is null, else stage by stage with spans
/// (appending each request's stage times to `traced` and its bytes to
/// `recorded`, up to kMaxReplay).
std::vector<Sample> RunPaced(
    const Inputs& in, const secure::SecretKey& key, Connection& conn,
    const std::vector<std::pair<uint64_t, uint32_t>>& schedule, SpanLog* log,
    std::vector<TracedRequest>* traced, std::vector<Bytes>* recorded) {
  std::vector<Sample> samples;
  uint64_t id = 0;
  for (const auto& [due, q] : schedule) {
    SleepUntil(due);
    Sample s;
    s.due = due;
    s.sent = NowNs();
    s.queries = {q};
    TracedRequest t;
    Bytes request;
    auto answers =
        log == nullptr
            ? RunReference(in, conn.client.get(), s.queries)
            : RunTraced(in, key, conn.transport.get(), s.queries, log, ++id,
                        &t, &request);
    s.done = NowNs();
    s.ok = answers.ok();
    if (s.ok) s.answers = std::move(answers).value();
    if (s.ok && log != nullptr) {
      traced->push_back(t);
      if (recorded->size() < kMaxReplay) recorded->push_back(std::move(request));
    }
    samples.push_back(std::move(s));
  }
  return samples;
}

/// Per-layer self-time table of the traced run, plus the stage metrics.
void ReportTrace(const std::vector<TracedRequest>& traced,
                 const SpanLog& log, double untraced_p50_ms,
                 Report* report) {
  auto column = [&](uint64_t TracedRequest::*field) {
    std::vector<double> v;
    for (const auto& t : traced) v.push_back(Us(t.*field));
    return v;
  };
  const double pivot = Median(column(&TracedRequest::pivot));
  const double encode = Median(column(&TracedRequest::encode));
  const double rtt = Median(column(&TracedRequest::rtt));
  const double decode = Median(column(&TracedRequest::decode));
  const double decrypt = Median(column(&TracedRequest::decrypt));
  const double refine = Median(column(&TracedRequest::refine));
  const double total = Median(column(&TracedRequest::total));
  std::vector<double> server, wire;
  double queries = 0, decrypts = 0, dbytes = 0, dnanos = 0, dists = 0,
         bytes = 0;
  for (const auto& t : traced) {
    server.push_back(Us(t.server));
    wire.push_back(Us(t.rtt - std::min(t.rtt, t.server)));
    queries += static_cast<double>(t.queries);
    decrypts += static_cast<double>(t.decrypts);
    dbytes += static_cast<double>(t.decrypted_bytes);
    dnanos += static_cast<double>(t.decrypt);
    dists += static_cast<double>(t.refine_dists);
    bytes += static_cast<double>(t.bytes);
  }
  report->Add("metric.pivot_us", pivot, "us");
  report->Add("secure.encode_us", encode, "us");
  report->Add("net.rtt_us", rtt, "us");
  report->Add("secure.server_us", Median(server), "us");
  report->Add("net.wire_us", Median(wire), "us");
  report->Add("secure.decode_us", decode, "us");
  report->Add("crypto.decrypt_us", decrypt, "us");
  report->Add("crypto.decrypt_mb_s",
              dnanos == 0 ? 0 : dbytes / 1e6 / (dnanos * 1e-9), "MB/s");
  report->Add("crypto.decrypts_per_query",
              queries == 0 ? 0 : decrypts / queries, "count");
  report->Add("metric.refine_us", refine, "us");
  report->Add("metric.refine_dists_per_query",
              queries == 0 ? 0 : dists / queries, "count");
  report->Add("net.bytes_per_query", queries == 0 ? 0 : bytes / queries,
              "bytes");
  const double stage_sum = pivot + encode + rtt + decode + decrypt + refine;
  report->Add("trace.e2e_p50_us", total, "us");
  report->Add("trace.stage_sum_ratio", total == 0 ? 0 : stage_sum / total,
              "ratio");
  report->Add("trace.overhead_ratio",
              untraced_p50_ms == 0 ? 0 : total * 1e-3 / untraced_p50_ms,
              "ratio");
  if (traced.empty()) {
    report->Fail("traced run completed no request");
  }

  // Self time per span name: duration minus the part children cover.
  std::map<std::string, std::vector<double>> rows;
  const auto& spans = log.spans();
  std::vector<uint64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ns[s.parent] += s.end - s.start;
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint64_t d = spans[i].end - spans[i].start;
    rows[spans[i].name].push_back(Us(d - std::min(d, child_ns[i])));
  }
  std::printf("traced waterfall (%zu requests; self time per request):\n",
              traced.size());
  std::printf("  %-16s %-8s %12s %12s %8s\n", "span", "layer", "p50_us",
              "mean_us", "share");
  double all = 0;
  for (const auto& [name, self_us] : rows) all += Mean(self_us);
  for (const auto& [name, self_us] : rows) {
    std::string layer = name.substr(0, name.find('.'));
    if (name == "request") layer = "(self)";
    std::printf("  %-16s %-8s %12.1f %12.1f %7.1f%%\n", name.c_str(),
                layer.c_str(), Median(self_us), Mean(self_us),
                all == 0 ? 0 : 100.0 * Mean(self_us) / all);
  }
  std::printf("  net.rtt splits into secure.server %.1f us + net.wire %.1f us "
              "(p50)\n",
              Median(server), Median(wire));
  std::printf("  stage p50 sum %.1f us vs end-to-end p50 %.1f us (%s 10%%); "
              "tracing overhead %.3fx over untraced p50 %.3f ms\n",
              stage_sum, total,
              std::fabs(stage_sum - total) <= 0.10 * total ? "within"
                                                            : "NOT within",
              untraced_p50_ms == 0 ? 0 : total * 1e-3 / untraced_p50_ms,
              untraced_p50_ms);
}

void WriteSpans(const SpanLog& log, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return;
  }
  const auto& spans = log.spans();
  const uint64_t origin = spans.empty() ? 0 : spans.front().start;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << (s.start - origin)
        << ", \"end_ns\": " << (s.end - origin) << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}\n";
  }
  std::printf("spans: %zu written to %s\n", spans.size(), path.c_str());
}

// ---------------------------------------------------------------------------
// Server replay (read-only workloads): the recorded request bytes replayed
// in-process against the handlers and the index.
// ---------------------------------------------------------------------------

void ReportReplay(const Cluster& cluster,
                  const std::vector<Bytes>& requests, Report* report) {
  std::vector<double> handle, search, fanout, skew;
  double candidates = 0, queries = 0;
  for (const Bytes& request : requests) {
    uint64_t t0 = NowNs();
    auto response = cluster.front()->Handle(request);
    handle.push_back(Us(NowNs() - t0));
    if (!response.ok()) {
      report->Fail("replayed request failed: " + response.status().ToString());
      return;
    }
    auto decoded = Take(secure::DecodeRequest(request), "replay decode");
    std::vector<double> shard_us;
    uint64_t search_ns = 0;
    for (size_t s = 0; s < cluster.num_shards(); ++s) {
      const secure::EncryptedMIndexServer* shard = cluster.shard(s);
      if (cluster.num_shards() > 1) {
        t0 = NowNs();
        auto direct = cluster.shard(s)->Handle(request);
        shard_us.push_back(Us(NowNs() - t0));
        if (!direct.ok()) report->Fail("replay on a shard failed");
      }
      std::vector<mindex::SearchStats> stats;
      t0 = NowNs();
      const bool ok = shard->index()
                           .ApproxKnnBatchCandidates(decoded.knn_queries, &stats)
                           .ok();
      search_ns += NowNs() - t0;
      if (!ok) report->Fail("replayed index search failed");
      for (const auto& st : stats) candidates += static_cast<double>(st.candidates);
    }
    queries += static_cast<double>(decoded.knn_queries.size());
    search.push_back(Us(search_ns));
    if (!shard_us.empty()) {
      const double slowest = *std::max_element(shard_us.begin(), shard_us.end());
      fanout.push_back(handle.back() - slowest);
      skew.push_back(slowest / std::max(1e-9, Median(shard_us)));
    }
  }
  report->Add("secure.handle_inproc_us", Median(handle), "us");
  report->Add("mindex.search_us", Median(search), "us");
  report->Add("mindex.candidates_per_query",
              queries == 0 ? 0 : candidates / queries, "count");
  report->Add("secure.sharded.fanout_us", Median(fanout), "us");
  report->Add("secure.sharded.shard_skew", Median(skew), "ratio");
  std::printf("replay: %zu requests in-process: handle p50 %.1f us, index "
              "search p50 %.1f us, fan-out p50 %.1f us\n",
              requests.size(), Median(handle), Median(search), Median(fanout));
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Run {
  const Inputs& in;
  const secure::SecretKey& key;
  Cluster& cluster;
  double seconds;
  bool trace;
  std::string out_dir;
  Report* report;
  std::vector<double> write_ms;  ///< churn_disk: every write bulk
  uint64_t attempted = 0, failed = 0;
};

/// Fills the payload cache: every pool query once, raw responses dropped.
void WarmCache(Run& run, net::TcpTransport* transport) {
  for (size_t first = 0; first < run.in.queries.size(); first += kKnnBatch) {
    std::vector<mindex::KnnQuery> batch;
    for (size_t q = first; q < std::min(first + kKnnBatch, run.in.queries.size());
         ++q) {
      mindex::KnnQuery item;
      item.signature.permutation = mindex::DistancesToPermutation(
          run.key.pivots().ComputeDistances(run.in.queries[q], *run.in.metric));
      item.cand_size = kKnnCand;
      batch.push_back(std::move(item));
    }
    const uint64_t ticket = Take(
        transport->Submit(secure::EncodeApproxKnnBatchRequest(batch)), "warm");
    Take(transport->Collect(ticket), "warm");
  }
}

/// kb per query of a set of transports over their current accounting.
double KbPerQuery(const std::vector<Connection>& conns, uint64_t queries) {
  uint64_t bytes = 0;
  for (const Connection& c : conns) bytes += c.transport->costs().TotalBytes();
  return queries == 0 ? 0 : static_cast<double>(bytes) / 1024.0 /
                                static_cast<double>(queries);
}

/// Draws `count` distinct pool indices uniformly.
std::vector<uint32_t> DistinctQueries(Rng& rng, size_t pool, size_t count) {
  std::vector<uint32_t> picked;
  while (picked.size() < count) {
    const auto q = static_cast<uint32_t>(rng.NextBounded(pool));
    if (std::find(picked.begin(), picked.end(), q) == picked.end()) {
      picked.push_back(q);
    }
  }
  return picked;
}

/// Checks a traced answer against EncryptionClient on a few requests.
void CheckTracedEqualsClient(Run& run, Connection& conn, Rng& rng,
                             size_t batch) {
  SpanLog scratch;
  for (int i = 0; i < 4; ++i) {
    const std::vector<uint32_t> picked =
        DistinctQueries(rng, run.in.queries.size(), batch);
    TracedRequest t;
    auto traced = RunTraced(run.in, run.key, conn.transport.get(), picked,
                            &scratch, 0, &t, nullptr);
    auto reference = RunReference(run.in, conn.client.get(), picked);
    if (!traced.ok() || !reference.ok() || *traced != *reference) {
      run.report->Fail("traced stage-by-stage answer differs from "
                       "EncryptionClient's answer");
      return;
    }
  }
}

void KnnWide(Run& run) {
  const Inputs& in = run.in;
  std::vector<Connection> conns;
  for (size_t c = 0; c < kKnnClients; ++c) {
    conns.push_back(Open(run.cluster.port(), run.key, in));
  }
  WarmCache(run, conns[0].transport.get());
  // Warm-up: the closed loop below, kKnnWarmBatches per client, unmeasured.
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns.size(); ++c) {
    threads.emplace_back([&, c] {
      Rng rng(in.seed * 53 + c);
      for (size_t i = 0; i < kKnnWarmBatches; ++i) {
        Take(RunReference(in, conns[c].client.get(),
                          DistinctQueries(rng, in.queries.size(), kKnnBatch)),
             "warm-up");
      }
    });
  }
  for (auto& t : threads) t.join();
  threads.clear();
  // The registry is process-global, so one shard's scrape already holds
  // the facade's and every shard's records (a facade scrape would sum the
  // same registry once per shard).
  auto scraper = Dial(run.cluster.shard_port(0), run.key);
  const obs::MetricsSnapshot before = Scrape(scraper.get());
  for (auto& c : conns) c.transport->ResetCosts();

  // Closed loop: each client sends its next batch when the last returns.
  std::vector<std::vector<Sample>> per_client(conns.size());
  const CpuTicks ticks0 = ReadCpuTicks();
  const double cpu0 = CpuSeconds();
  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(run.seconds * 1e9);
  for (size_t c = 0; c < conns.size(); ++c) {
    threads.emplace_back([&, c] {
      Rng rng(in.seed * 31 + c);
      while (NowNs() < deadline) {
        Sample s;
        s.queries = DistinctQueries(rng, in.queries.size(), kKnnBatch);
        s.due = s.sent = NowNs();
        auto answers = RunReference(in, conns[c].client.get(), s.queries);
        s.done = NowNs();
        s.ok = answers.ok();
        if (s.ok) s.answers = std::move(answers).value();
        per_client[c].push_back(std::move(s));
      }
    });
  }
  for (auto& t : threads) t.join();
  const double granted = 1 - StealShare(ticks0, ReadCpuTicks());
  uint64_t last = start;
  std::vector<Sample> samples;
  for (auto& v : per_client) {
    for (auto& s : v) {
      last = std::max(last, s.done);
      samples.push_back(std::move(s));
    }
  }
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.sent < b.sent; });
  const double elapsed = static_cast<double>(last - start) * 1e-9;
  const double cpu = CpuSeconds() - cpu0;
  const double kb = KbPerQuery(conns, samples.size() * kKnnBatch);
  const obs::MetricsSnapshot after = Scrape(scraper.get());

  // The index is static here, so a pool query always gets the same
  // answer: recall is averaged over the distinct pool queries answered,
  // not weighted by how often the draw repeated them.
  std::vector<double> latency;
  std::map<uint32_t, double> recall_of;
  uint64_t answered = 0;
  for (const Sample& s : samples) {
    run.attempted++;
    if (!s.ok) {
      run.failed++;
      continue;
    }
    latency.push_back(s.LatencyMs());
    for (size_t i = 0; i < s.queries.size(); ++i) {
      std::string why;
      if (!CheckKnnAnswer(in, in.queries[s.queries[i]], s.answers[i], kKnnK,
                          &why)) {
        run.report->Fail(why);
      }
      recall_of[s.queries[i]] = Recall(s.answers[i], in.exact[s.queries[i]]);
      answered++;
    }
  }
  double recall = 0;
  for (const auto& [q, r] : recall_of) recall += r / recall_of.size();
  const double p50 = BlockPercentile(latency, 0.5);
  std::printf("knn_wide: %zu batches of %zu (%llu queries) in %.3f s by %zu "
              "closed-loop clients; request p50 %.3f ms p99 %.3f ms; %.1f%% "
              "of the vCPU time granted\n",
              samples.size(), kKnnBatch,
              static_cast<unsigned long long>(answered), elapsed, conns.size(),
              p50, Percentile(latency, 0.99), 100 * granted);

  if (!run.trace) {
    run.report->Add("throughput",
                    static_cast<double>(answered) / (elapsed * granted), "1/s");
    run.report->Add("query_p50_ms", p50 * granted, "ms");
    run.report->Add("recall", recall, "ratio");
    run.report->Add("kb_per_query", kb, "KiB");
    return;
  }

  run.report->Add("query_p99_ms", Percentile(latency, 0.99), "ms");
  AddScrapeMetrics(before, after, answered, run.report);
  run.report->Add("process.cpu_ms_per_query",
                  answered == 0 ? 0 : cpu * 1e3 / answered, "ms");
  run.report->Add("loadgen.late_p99_ms", 0, "ms");

  // Traced run: the same closed loop, stage by stage.
  Rng check_rng(in.seed + 99);
  CheckTracedEqualsClient(run, conns[0], check_rng, kKnnBatch);
  std::vector<SpanLog> logs(conns.size());
  std::vector<std::vector<TracedRequest>> traced(conns.size());
  std::vector<std::vector<Bytes>> recorded(conns.size());
  const uint64_t trace_deadline =
      NowNs() + static_cast<uint64_t>(run.seconds * 0.5e9);
  threads.clear();
  for (size_t c = 0; c < conns.size(); ++c) {
    threads.emplace_back([&, c] {
      Rng rng(in.seed * 131 + c);
      uint64_t id = c << 32;
      while (NowNs() < trace_deadline) {
        const auto picked = DistinctQueries(rng, in.queries.size(), kKnnBatch);
        TracedRequest t;
        Bytes request;
        auto answers = RunTraced(in, run.key, conns[c].transport.get(), picked,
                                 &logs[c], ++id, &t, &request);
        if (!answers.ok()) {
          run.report->Fail("traced request failed");
          return;
        }
        traced[c].push_back(t);
        recorded[c].push_back(std::move(request));
      }
    });
  }
  for (auto& t : threads) t.join();
  SpanLog log;
  std::vector<TracedRequest> all;
  std::vector<Bytes> requests;
  for (size_t c = 0; c < conns.size(); ++c) {
    log.Append(logs[c]);
    all.insert(all.end(), traced[c].begin(), traced[c].end());
    requests.insert(requests.end(), recorded[c].begin(), recorded[c].end());
  }
  ReportTrace(all, log, p50, run.report);
  ReportReplay(run.cluster, requests, run.report);
  WriteSpans(log, run.out_dir + "/spans-knn_wide-" + std::to_string(in.seed) +
                      ".jsonl");
}

/// One writer bulk of churn_disk: ids [first, first + count).
struct WriteOp {
  bool insert = false;
  uint64_t first = 0;
  uint64_t count = 0;
  uint64_t sent = 0, acked = 0;
  bool ok = false;
};

void ChurnDisk(Run& run) {
  const Inputs& in = run.in;
  Connection writer = Open(run.cluster.port(), run.key, in);
  std::vector<Connection> readers;
  for (size_t c = 0; c < kChurnReaders; ++c) {
    readers.push_back(Open(run.cluster.port(), run.key, in));
  }
  Rng rng(in.seed * 11 + 5);
  auto pick = [&] { return static_cast<uint32_t>(in.ZipfQuery(rng)); };
  const SubmitFn submit = [&](secure::EncryptionClient* client,
                              const std::vector<uint32_t>& q) {
    return client->SubmitApproxKnnBatch({in.queries[q[0]]}, kChurnK,
                                        kChurnCand);
  };
  const CollectFn collect = [](secure::EncryptionClient* client,
                               secure::PendingQueryBatch* pending) {
    return client->CollectApproxKnnBatch(pending);
  };

  // The traced pipeline is checked against EncryptionClient while the
  // index is quiet, before the writer starts.
  if (run.trace) CheckTracedEqualsClient(run, readers[0], rng, 1);
  const obs::MetricsSnapshot before = Scrape(writer.transport.get());
  for (auto& c : readers) c.transport->ResetCosts();
  const uint64_t start = NowNs() + 2'000'000;
  // Untraced runs measure blocks from `measured_from`: the writer and the
  // reader run kChurnWarmSeconds first, so the cache holds the hot
  // queries' payloads and compaction has begun its cycle.
  const uint64_t measured_from =
      start + (run.trace ? 0 : static_cast<uint64_t>(kChurnWarmSeconds * 1e9));
  const uint64_t end =
      measured_from + static_cast<uint64_t>(run.seconds * 1e9);
  const size_t blocks = static_cast<size_t>(run.seconds / kChurnBlockSeconds);
  const uint64_t block_ns = static_cast<uint64_t>(kChurnBlockSeconds * 1e9);
  const uint64_t blocks_end = measured_from + blocks * block_ns;
  StealTimeline timeline(measured_from, block_ns, blocks);
  const double cpu0 = CpuSeconds();

  // Writer: closed loop of InsertBulk(next 100 ids) and DeleteBatch(oldest
  // 100 ids); every ~250 ms it samples the payload log's space use.
  std::vector<WriteOp> ops;
  std::vector<double> space;
  std::thread writer_thread([&] {
    uint64_t next_insert = in.base_count(), next_delete = 0;
    uint64_t next_sample = start;
    SleepUntil(start);
    while (NowNs() < end) {
      for (bool insert : {true, false}) {
        WriteOp op;
        op.insert = insert;
        op.first = insert ? next_insert : next_delete;
        op.count = kBulk;
        const auto objects = in.Objects(op.first, kBulk);
        op.sent = NowNs();
        const Status status =
            insert ? writer.client->InsertBulk(
                         objects, secure::InsertStrategy::kPrecise, kBulk)
                   : writer.client->DeleteBatch(objects, kBulk);
        op.acked = NowNs();
        op.ok = status.ok();
        if (!op.ok) std::fprintf(stderr, "write: %s\n", status.ToString().c_str());
        (insert ? next_insert : next_delete) += kBulk;
        ops.push_back(op);
      }
      if (NowNs() >= next_sample) {
        next_sample += 250'000'000;
        auto stats = writer.client->GetServerStats();
        uint64_t file = 0;
        for (const auto& path : run.cluster.disk_paths()) {
          file += FileBytes(path) + FileBytes(path + ".compact");
        }
        if (stats.ok() && stats->live_storage_bytes > 0) {
          space.push_back(static_cast<double>(file) /
                          static_cast<double>(stats->live_storage_bytes));
        }
      }
    }
  });

  std::vector<Sample> samples;
  SpanLog log;
  std::vector<TracedRequest> traced;
  double untraced_p50 = 0;
  /// samples[0, measured) come from the readers of the measured window.
  size_t measured = 0;
  std::vector<double> latency, late;
  if (!run.trace) {
    // One closed-loop reader: it sends the next read when the last one is
    // answered, so the reads' latency is their service time beside the
    // writer, with no queue of its own.
    SleepUntil(start);
    while (NowNs() < end) {
      Sample s;
      s.queries = {pick()};
      s.due = s.sent = NowNs();
      auto answers = RunReference(in, readers[0].client.get(), s.queries);
      s.done = NowNs();
      s.ok = answers.ok();
      if (s.ok) s.answers = std::move(answers).value();
      samples.push_back(std::move(s));
    }
    measured = samples.size();
  } else {
    // The writer runs throughout. Open-loop readers take the first half
    // of the window; then one paced reader at the same rate runs an
    // untraced twin (the overhead's base) and the traced run.
    samples = RunOpenLoop(
        PoissonSchedule(rng, kChurnReadRate, run.seconds * 0.5, start, pick),
        &readers, run.key, in, submit, collect);
    measured = samples.size();
    std::vector<Bytes> unused;
    for (bool tracing : {false, true}) {
      const auto schedule = PoissonSchedule(
          rng, kChurnReadRate, run.seconds * (tracing ? 0.3 : 0.2),
          NowNs() + 2'000'000, pick);
      for (Sample& s : RunPaced(in, run.key, readers[0], schedule,
                                tracing ? &log : nullptr, &traced,
                                &unused)) {
        if (!tracing && s.ok) latency.push_back(s.ServiceMs());
        samples.push_back(std::move(s));
      }
    }
    untraced_p50 = Median(latency);
  }
  writer_thread.join();
  const double cpu = CpuSeconds() - cpu0;
  const double kb = KbPerQuery(readers, samples.size());
  const obs::MetricsSnapshot after = Scrape(writer.transport.get());
  auto final_stats = writer.client->GetServerStats();

  // Id bookkeeping: inserts and deletes each advance one contiguous id
  // range, one bulk at a time, so the live set at any instant is an id
  // interval with at most one bulk in flight at either edge.
  std::vector<const WriteOp*> inserts, deletes;
  std::vector<double> write_ms;
  for (const WriteOp& op : ops) {
    (op.insert ? inserts : deletes).push_back(&op);
    run.attempted++;
    if (!op.ok) {
      run.failed++;
    } else {
      write_ms.push_back(Ms(op.acked - op.sent));
    }
  }
  run.write_ms = write_ms;
  auto edge = [](const std::vector<const WriteOp*>& v, uint64_t initial,
                 uint64_t t, bool by_ack) {
    uint64_t upto = initial;
    for (const WriteOp* op : v) {
      if ((by_ack ? op->acked : op->sent) > t) break;
      upto = op->first + op->count;
    }
    return upto;
  };
  // Recall is averaged per pool query first, then over the queries: a
  // draw-weighted mean would follow the few hottest Zipf queries.
  std::map<uint32_t, std::pair<double, uint64_t>> recall_of;
  latency.clear();
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    run.attempted++;
    if (i < measured) late.push_back(s.LateMs());
    if (!s.ok) {
      run.failed++;
      continue;
    }
    if (i < measured) latency.push_back(s.LatencyMs());
    const uint32_t q = s.queries[0];
    const NeighborList& answer = s.answers[0];
    std::string why;
    if (!CheckKnnAnswer(in, in.queries[q], answer, kChurnK, &why)) {
      run.report->Fail(why);
      continue;
    }
    // Certainly live while the query ran: [c_lo, c_hi). Possibly live:
    // [p_lo, p_hi). A returned id outside the possible set was deleted
    // (and acknowledged) before the query was sent, or never inserted.
    const uint64_t c_lo = edge(deletes, 0, s.done, false);
    const uint64_t c_hi = edge(inserts, in.base_count(), s.sent, true);
    const uint64_t p_lo = edge(deletes, 0, s.sent, true);
    const uint64_t p_hi = edge(inserts, in.base_count(), s.done, false);
    NeighborList truth;
    for (const Neighbor& n : answer) {
      if (n.id < p_lo || n.id >= p_hi) {
        run.report->Fail("k-NN answer holds id " + std::to_string(n.id) +
                         ", deleted or never inserted when the query was sent");
      }
      if (n.id < c_lo || n.id >= c_hi) truth.push_back(n);
    }
    const auto& row = in.rows[q];
    for (uint64_t id = c_lo; id < c_hi; ++id) {
      truth.push_back(Neighbor{id, row[id % row.size()]});
    }
    const size_t keep = std::min(kChurnK, truth.size());
    std::partial_sort(truth.begin(), truth.begin() + keep, truth.end());
    truth.resize(keep);
    recall_of[q].first += Recall(answer, truth);
    recall_of[q].second++;
  }
  double recall = 0;
  for (const auto& [q, sum_count] : recall_of) {
    recall += sum_count.first / sum_count.second / recall_of.size();
  }
  if (final_stats.ok()) {
    const uint64_t inserted = edge(inserts, in.base_count(), UINT64_MAX, true);
    const uint64_t deleted = edge(deletes, 0, UINT64_MAX, true);
    if (final_stats->object_count != inserted - deleted) {
      run.report->Fail("server holds " +
                       std::to_string(final_stats->object_count) +
                       " objects, inserted - deleted = " +
                       std::to_string(inserted - deleted));
    }
  } else {
    run.report->Fail("final kGetStats failed");
  }
  std::printf("churn_disk: %zu write bulks (%zu inserts, %zu deletes), write "
              "p50 %.3f ms p99 %.3f ms; %zu reads p50 %.3f ms p99 %.3f ms "
              "(sent late by %.3f ms at p99); space amplification mean %.3f "
              "over %zu samples\n",
              ops.size(), inserts.size(), deletes.size(), Median(write_ms),
              Percentile(write_ms, 0.99), samples.size(), Median(latency),
              Percentile(latency, 0.99), Percentile(late, 0.99), Mean(space),
              space.size());
  if (!run.trace) {
    // Writes by the block they were acknowledged in, reads by the block
    // they were sent in.
    BlockSeries writes(kChurnBlockSeconds, blocks);
    BlockSeries reads(kChurnBlockSeconds, blocks);
    writes.steal = reads.steal = timeline.Shares();
    for (const WriteOp& op : ops) {
      if (op.ok && op.acked >= measured_from && op.acked < blocks_end) {
        writes.latency_ms[(op.acked - measured_from) / block_ns].push_back(
            Ms(op.acked - op.sent));
      }
    }
    for (size_t i = 0; i < measured; ++i) {
      const Sample& s = samples[i];
      if (s.ok && s.due >= measured_from && s.due < blocks_end) {
        reads.latency_ms[(s.due - measured_from) / block_ns].push_back(
            s.LatencyMs());
      }
    }
    std::printf("churn_disk: quiet blocks, granted time: writer %.1f bulks/s, "
                "reads p50 %.3f ms; %s\n",
                writes.QuietRate(), reads.QuietP50(), writes.Describe().c_str());
    run.report->Add("throughput", writes.QuietRate(), "1/s");
    run.report->Add("query_p50_ms", reads.QuietP50(), "ms");
    run.report->Add("recall", recall, "ratio");
    run.report->Add("kb_per_query", kb, "KiB");
    run.report->Add("space_amp", Mean(space), "ratio");
    return;
  }
  run.report->Add("query_p99_ms", BlockPercentile(latency, 0.99), "ms");
  AddScrapeMetrics(before, after, samples.size(), run.report);
  run.report->Add("process.cpu_ms_per_query",
                  samples.empty() ? 0 : cpu * 1e3 / samples.size(), "ms");
  run.report->Add("loadgen.late_p99_ms", Percentile(late, 0.99), "ms");
  ReportTrace(traced, log, untraced_p50, run.report);
  // Not read-only: nothing to replay.
  run.report->Add("secure.handle_inproc_us", 0, "us");
  run.report->Add("mindex.search_us", 0, "us");
  run.report->Add("mindex.candidates_per_query", 0, "count");
  run.report->Add("secure.sharded.fanout_us", 0, "us");
  run.report->Add("secure.sharded.shard_skew", 0, "ratio");
  WriteSpans(log, run.out_dir + "/spans-churn_disk-" +
                          std::to_string(in.seed) + ".jsonl");
}

/// Space amplification of a read-only run: payload-log bytes over live
/// payload bytes once loaded.
double SpaceAmp(const Cluster& cluster) {
  uint64_t live = 0, stored = 0;
  for (size_t s = 0; s < cluster.num_shards(); ++s) {
    const mindex::IndexStats stats = cluster.shard(s)->index().Stats();
    live += stats.live_storage_bytes;
    stored += stats.storage_bytes;
  }
  uint64_t file = 0;
  for (const auto& path : cluster.disk_paths()) file += FileBytes(path);
  if (!cluster.disk_paths().empty()) stored = file;
  return live == 0 ? 0 : static_cast<double>(stored) / static_cast<double>(live);
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string tmp = ".bench_tmp";
  std::string out = ".bench_out";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--tmp") {
      args.tmp = value;
    } else if (flag == "--out") {
      args.out = value;
    } else {
      Fatal("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || args.seconds <= 0) {
    Fatal("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
          "[--tmp DIR] [--out DIR]");
  }
  return args;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  for (const char* name : kPinnedEnv) {
    if (std::getenv(name) != nullptr) {
      Fatal(std::string("refusing to run: ") + name +
            " is set and would change what is measured");
    }
  }
  std::printf("%s\n",
              obs::RuntimeBanner("perfbench",
                                 "workload=" + args.workload +
                                     ", seed=" + std::to_string(args.seed) +
                                     ", nproc=" +
                                     std::to_string(std::thread::hardware_concurrency()) +
                                     ", build=" PERFBENCH_BUILD_TYPE)
                  .c_str());
  std::filesystem::create_directories(args.tmp);
  std::filesystem::create_directories(args.out);

  uint64_t t0 = NowNs();
  const Inputs in = MakeInputs(args.workload, args.seed);
  const secure::SecretKey key = MakeKey(in);
  const double rss_base_mb = ResetPeakRss();
  const CpuTicks ticks0 = ReadCpuTicks();
  std::printf("inputs: %zu vectors, %zu pool queries, ground truth in %.2f s, "
              "RSS %.1f MB\n",
              in.vectors.size(), in.queries.size(),
              static_cast<double>(NowNs() - t0) * 1e-9, rss_base_mb);

  Report report;
  // Set-up, repeated; setup_s is the median granted time over the quiet
  // set-ups, and the last cluster is measured.
  std::vector<double> setup_s, setup_steal;
  Setup setup;
  for (int r = 0; r < kSetupRepeats; ++r) {
    // Tear the previous cluster down first, and hand its freed heap back,
    // so that peak_rss_mb counts one cluster, not the leftovers of all.
    setup = Setup{};
    malloc_trim(0);
    const CpuTicks before = ReadCpuTicks();
    setup = SetUp(in, key, args.tmp + "/setup" + std::to_string(r));
    setup_steal.push_back(StealShare(before, ReadCpuTicks()));
    setup_s.push_back(setup.seconds);
    report.attempted += setup.bulks;
    report.failed += setup.failed_bulks;
    std::printf("setup %d: %.3f s (%llu bulks of %zu), steal %.1f%%, RSS %.1f "
                "MB, high-water %.1f MB\n",
                r, setup.seconds, static_cast<unsigned long long>(setup.bulks),
                kBulk, 100 * setup_steal.back(), ProcStatusMb("VmRSS"),
                ProcStatusMb("VmHWM"));
  }
  std::vector<double> quiet_setup_s;
  for (size_t r : QuietBlocks(setup_steal)) {
    quiet_setup_s.push_back(setup_s[r] * (1 - setup_steal[r]));
  }

  Run run{in, key, *setup.cluster, args.seconds, args.trace, args.out,
          &report, {}, 0, 0};
  if (args.trace) {
    std::vector<double> handshake;
    for (int i = 0; i < 8; ++i) {
      const uint64_t start = NowNs();
      auto transport = Dial(setup.cluster->port(), key);
      handshake.push_back(Us(NowNs() - start));
    }
    std::vector<double> encrypt;
    for (size_t i = 0; i < 500; ++i) {
      const VectorObject object = in.Object(i % in.base_count());
      const uint64_t start = NowNs();
      Take(key.EncryptObject(object), "encrypt");
      encrypt.push_back(Us(NowNs() - start));
    }
    report.Add("net.handshake_us", Median(handshake), "us");
    report.Add("crypto.encrypt_us", Median(encrypt), "us");
  }
  switch (in.kind) {
    case Kind::kKnnWide:
      KnnWide(run);
      break;
    case Kind::kChurnDisk:
      ChurnDisk(run);
      break;
  }
  if (in.kind != Kind::kChurnDisk && !args.trace) {
    report.Add("space_amp", SpaceAmp(*setup.cluster), "ratio");
  }
  if (args.trace) {
    // Only churn_disk writes while it is measured.
    report.Add("write_p50_ms", BlockPercentile(run.write_ms, 0.5), "ms");
    report.Add("write_p99_ms", BlockPercentile(run.write_ms, 0.99), "ms");
  } else {
    report.Add("setup_s", Median(quiet_setup_s), "s");
    report.Add("peak_rss_mb", ProcStatusMb("VmHWM") - rss_base_mb, "MB");
  }
  report.attempted += run.attempted;
  report.failed += run.failed;
  // Wall-clock figures of a run whose vCPUs were often stolen are not
  // comparable with those of a quiet run; the share says which it was.
  const CpuTicks ticks1 = ReadCpuTicks();
  const uint64_t busy = ticks1.busy - ticks0.busy;
  const uint64_t steal = ticks1.steal - ticks0.steal;
  std::printf("host: steal %.1f%% of the vCPU time this run wanted (%llu of "
              "%llu ticks)\n",
              busy + steal == 0 ? 0.0 : 100.0 * steal / (busy + steal),
              static_cast<unsigned long long>(steal),
              static_cast<unsigned long long>(busy + steal));
  setup = Setup{};
  std::filesystem::remove_all(args.tmp);
  report.Print();
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace simcloud

int main(int argc, char** argv) {
  return simcloud::perfbench::Main(argc, argv);
}
