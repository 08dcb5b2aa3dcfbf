// Churn workload: disk-size amplification, query throughput, and the
// background-compaction pause gate under a delete-heavy stream.
//
// Two CoPhIR-style disk servers ingest the IDENTICAL wire requests (each
// object is encrypted once, so both logs hold the same ciphertext bytes);
// the churn phase then deletes 60% of the objects in kDeleteBatch rounds
// while timing kApproxKnnBatch rounds between deletions. One server
// compacts automatically (compaction_trigger = 0.3; the passes run on the
// server's background thread, concurrent with these very queries), the
// other never compacts — its append-only log keeps every dead byte, which
// is exactly the unbounded space amplification the compactor exists to
// fix.
//
// Printed per server: final log bytes, live bytes, amplification
// (log / live), worst amplification seen during the churn, and
// queries/sec measured DURING the churn. A third phase then probes the
// pause directly: the (still 60%-dead) append-only server answers timed
// query batches with no pass running, and again WHILE a forced full pass
// rewrites its log concurrently. The run aborts unless
//   * the compacting log ends at <= 1.5x the live payload bytes,
//   * every post-churn query response is byte-identical between the two
//     servers (compaction must never change an answer),
//   * p99 query latency DURING the background pass stays within 2x the
//     no-compaction baseline, and
//   * the pass held the writer lock (begin + swap/remap slices) for at
//     most 250 ms total — the stall budget that used to be the whole
//     rewrite,
// so this harness doubles as the acceptance gate for the compactor.
//
// Usage: bench_churn [--smoke]
//   --smoke  tiny collection / few rounds, for CI.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/clock.h"
#include "common/rng.h"
#include "mindex/permutation.h"
#include "mindex/pivot_selection.h"
#include "secure/protocol.h"
#include "secure/secret_key.h"
#include "secure/server.h"

namespace simcloud {
namespace bench {
namespace {

struct ChurnServer {
  const char* label;
  std::string disk_path;
  std::unique_ptr<secure::EncryptedMIndexServer> server;
  uint64_t queries_timed = 0;
  int64_t query_nanos = 0;

  double QpsDuringChurn() const {
    return query_nanos > 0
               ? static_cast<double>(queries_timed) / (query_nanos / 1e9)
               : 0;
  }
};

Bytes MustHandle(ChurnServer& churn, const Bytes& request,
                 const char* what) {
  auto response = churn.server->Handle(request);
  if (!response.ok()) {
    std::fprintf(stderr, "[%s] %s failed: %s\n", churn.label, what,
                 response.status().ToString().c_str());
    std::abort();
  }
  return std::move(response).value();
}

mindex::IndexStats StatsOf(ChurnServer& churn) {
  auto stats =
      secure::DecodeStatsResponse(MustHandle(churn,
                                             secure::EncodeGetStatsRequest(),
                                             "stats"));
  if (!stats.ok()) std::abort();
  return *stats;
}

void Run(bool smoke) {
  const size_t num_objects = smoke ? 2500 : 20000;
  const size_t delete_rounds = smoke ? 5 : 20;
  const size_t queries_per_round = smoke ? 32 : 64;
  const size_t cand_size = smoke ? 100 : 300;
  // Delete 60% of the collection — past the >= 50% the acceptance
  // criterion asks for.
  const size_t num_deletes = (num_objects * 3) / 5;
  const size_t deletes_per_round = num_deletes / delete_rounds;
  const size_t bulk_size = 1000;

  DatasetConfig config = MakeCophirConfig(num_objects);
  mindex::PivotSelectionOptions pivot_options;
  pivot_options.strategy = config.pivot_strategy;
  pivot_options.count = config.index_options.num_pivots;
  pivot_options.seed = config.pivot_seed;
  auto pivots = mindex::SelectPivots(config.dataset.objects(),
                                     *config.dataset.distance(),
                                     pivot_options);
  if (!pivots.ok()) std::abort();
  auto key = secure::SecretKey::Create(std::move(*pivots), Bytes(16, 0x5C));
  if (!key.ok()) std::abort();

  // Encrypt every object ONCE and precompute its routing metadata, so the
  // two servers receive byte-identical insert requests and store
  // byte-identical ciphertexts — the precondition for comparing their
  // query responses byte for byte.
  std::vector<secure::InsertItem> items;
  std::vector<mindex::Permutation> permutations;
  items.reserve(num_objects);
  permutations.reserve(num_objects);
  for (const metric::VectorObject& object : config.dataset.objects()) {
    std::vector<float> distances =
        key->pivots().ComputeDistances(object, *config.dataset.distance());
    permutations.push_back(mindex::DistancesToPermutation(distances));
    secure::InsertItem item;
    item.id = object.id();
    item.pivot_distances = std::move(distances);
    auto ciphertext = key->EncryptObject(object);
    if (!ciphertext.ok()) std::abort();
    item.payload = std::move(*ciphertext);
    items.push_back(std::move(item));
  }
  std::vector<Bytes> insert_requests;
  for (size_t offset = 0; offset < items.size(); offset += bulk_size) {
    const size_t n = std::min(bulk_size, items.size() - offset);
    insert_requests.push_back(secure::EncodeInsertBatchRequest(
        {items.begin() + offset, items.begin() + offset + n}));
  }

  auto make_server = [&](const char* label, double trigger) {
    ChurnServer churn;
    churn.label = label;
    churn.disk_path =
        "/tmp/simcloud_bench_churn_" + std::string(label) + ".bin";
    mindex::MIndexOptions options = config.index_options;
    options.disk_path = churn.disk_path;
    options.cache_bytes = 8ull << 20;
    options.compaction_trigger = trigger;
    auto server = secure::EncryptedMIndexServer::Create(options);
    if (!server.ok()) {
      std::fprintf(stderr, "server create failed: %s\n",
                   server.status().ToString().c_str());
      std::abort();
    }
    churn.server = std::move(*server);
    for (const Bytes& request : insert_requests) {
      MustHandle(churn, request, "insert");
    }
    return churn;
  };
  ChurnServer compacting = make_server("compacting", 0.3);
  ChurnServer append_only = make_server("append_only", 0.0);
  const uint64_t log_after_build = StatsOf(append_only).storage_bytes;

  // Pre-build the churn stream: shuffled delete batches and hot-ish
  // query batches (queries drawn from the full collection — deleted
  // objects remain perfectly valid query centers).
  Rng rng(4242);
  std::vector<size_t> order(num_objects);
  for (size_t i = 0; i < num_objects; ++i) order[i] = i;
  rng.Shuffle(order);

  auto make_query_request = [&](uint64_t seed, size_t count) {
    Rng query_rng(seed);
    std::vector<mindex::KnnQuery> queries;
    queries.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      const size_t pick = query_rng.NextBounded(num_objects);
      mindex::KnnQuery query;
      query.signature.pivot_distances = items[pick].pivot_distances;
      query.signature.permutation = permutations[pick];
      query.cand_size = cand_size;
      queries.push_back(std::move(query));
    }
    return secure::EncodeApproxKnnBatchRequest(queries);
  };

  // Churn: alternate delete batches and timed query batches.
  size_t next_victim = 0;
  double worst_amplification = 1.0;
  for (size_t round = 0; round < delete_rounds; ++round) {
    std::vector<secure::DeleteItem> victims;
    victims.reserve(deletes_per_round);
    for (size_t i = 0; i < deletes_per_round; ++i) {
      const size_t pick = order[next_victim++];
      victims.push_back(
          secure::DeleteItem{items[pick].id, permutations[pick]});
    }
    const Bytes delete_request = secure::EncodeDeleteBatchRequest(victims);
    MustHandle(compacting, delete_request, "delete batch");
    MustHandle(append_only, delete_request, "delete batch");

    const Bytes query_request =
        make_query_request(9000 + round, queries_per_round);
    for (ChurnServer* churn : {&compacting, &append_only}) {
      Stopwatch watch;
      MustHandle(*churn, query_request, "query batch");
      churn->query_nanos += watch.ElapsedNanos();
      churn->queries_timed += queries_per_round;
    }

    const mindex::IndexStats stats = StatsOf(compacting);
    if (stats.live_storage_bytes > 0) {
      worst_amplification = std::max(
          worst_amplification,
          static_cast<double>(stats.storage_bytes) /
              static_cast<double>(stats.live_storage_bytes));
    }
  }

  // Quiesce: compaction now runs on the server's background thread, so
  // an unforced pass (gated on the trigger, and serialized with any pass
  // still in flight) drains the backlog before the final accounting.
  MustHandle(compacting, secure::EncodeCompactRequest(/*force=*/false),
             "drain");

  // Verification: after the churn, batched and single query responses
  // must be byte-identical between the two servers.
  bool identical = true;
  {
    const Bytes request = make_query_request(777, queries_per_round);
    identical = MustHandle(compacting, request, "verify batch") ==
                MustHandle(append_only, request, "verify batch");
  }
  Rng verify_rng(778);
  for (size_t i = 0; i < 8 && identical; ++i) {
    const size_t pick = verify_rng.NextBounded(num_objects);
    mindex::QuerySignature signature;
    signature.pivot_distances = items[pick].pivot_distances;
    signature.permutation = permutations[pick];
    const Bytes request = secure::EncodeApproxKnnBatchRequest(
        {mindex::KnnQuery{signature, cand_size}});
    identical = MustHandle(compacting, request, "verify single") ==
                MustHandle(append_only, request, "verify single");
  }

  const mindex::IndexStats final_compacting = StatsOf(compacting);
  const mindex::IndexStats final_append = StatsOf(append_only);
  auto amplification = [](const mindex::IndexStats& stats) {
    return stats.live_storage_bytes > 0
               ? static_cast<double>(stats.storage_bytes) /
                     static_cast<double>(stats.live_storage_bytes)
               : 1.0;
  };
  const double amp_compacting = amplification(final_compacting);
  const double amp_append = amplification(final_append);

  TablePrinter table(
      "Delete-heavy churn (" + std::to_string(num_objects) + " objects, " +
          std::to_string(num_deletes) +
          " deletes): disk amplification and 30-NN batch throughput during "
          "churn",
      {"log MiB", "live MiB", "amplification", "worst amp", "qps"});
  table.AddRow("compacting (trigger 0.3)",
               {final_compacting.storage_bytes / 1048576.0,
                final_compacting.live_storage_bytes / 1048576.0,
                amp_compacting, worst_amplification,
                compacting.QpsDuringChurn()});
  table.AddRow("append-only (no compaction)",
               {final_append.storage_bytes / 1048576.0,
                final_append.live_storage_bytes / 1048576.0, amp_append,
                amp_append, append_only.QpsDuringChurn()});
  table.Print();
  std::printf("log after build: %.1f MiB; responses byte-identical: %s\n",
              log_after_build / 1048576.0, identical ? "yes" : "NO");

  // Acceptance gate.
  if (amp_compacting > 1.5) {
    std::fprintf(stderr,
                 "FAIL: compacting log is %.2fx the live bytes (> 1.5x)\n",
                 amp_compacting);
    std::exit(1);
  }
  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: compaction changed a query response (responses "
                 "differ from the uncompacted reference)\n");
    std::exit(1);
  }

  // ---- Phase 3: the background-pause gate. The append-only server still
  // carries the full 60%-dead log, so a forced pass has the maximum
  // amount of rewriting to do. Measure p99 latency of identical query
  // batches with the pass idle, then with the pass running concurrently:
  // the rewrite shares the index lock with searches, so the only
  // tolerated cost is interleaving — not a rewrite-length stall.
  // 32-query batches keep one request's service time well above a
  // scheduler quantum, so the ratio measures lock behaviour rather than
  // single-core timeslicing noise.
  const size_t probe_batches = smoke ? 60 : 150;
  const size_t probe_batch_size = 32;
  std::vector<Bytes> probe_requests;
  probe_requests.reserve(probe_batches);
  for (size_t i = 0; i < probe_batches; ++i) {
    probe_requests.push_back(
        make_query_request(31000 + i, probe_batch_size));
  }
  auto percentile = [](std::vector<int64_t> nanos, double p) {
    std::sort(nanos.begin(), nanos.end());
    return nanos.empty()
               ? int64_t{0}
               : nanos[static_cast<size_t>((nanos.size() - 1) * p)];
  };
  std::vector<int64_t> baseline_nanos;
  baseline_nanos.reserve(probe_batches);
  for (const Bytes& request : probe_requests) {
    Stopwatch watch;
    MustHandle(append_only, request, "probe baseline");
    baseline_nanos.push_back(watch.ElapsedNanos());
  }

  std::atomic<bool> pass_done{false};
  mindex::CompactionReport probe_report;
  std::thread compact_thread([&] {
    auto decoded = secure::DecodeCompactResponse(MustHandle(
        append_only, secure::EncodeCompactRequest(/*force=*/true),
        "probe compact"));
    if (!decoded.ok()) std::abort();
    probe_report = *decoded;
    pass_done.store(true, std::memory_order_release);
  });
  std::vector<int64_t> during_nanos;
  during_nanos.reserve(probe_requests.size());
  size_t next_request = 0;
  // Sample while the pass runs; if it finishes very quickly, keep going
  // to a minimum sample count (those tail samples only make the gate
  // stricter for the pass, never easier for us).
  while (!pass_done.load(std::memory_order_acquire) ||
         during_nanos.size() < 32) {
    if (during_nanos.size() >= 4 * probe_requests.size()) break;
    const Bytes& request = probe_requests[next_request++ % probe_requests.size()];
    Stopwatch watch;
    MustHandle(append_only, request, "probe during");
    during_nanos.push_back(watch.ElapsedNanos());
  }
  compact_thread.join();

  const double p99_base = percentile(baseline_nanos, 0.99) / 1e6;
  const double p99_during = percentile(during_nanos, 0.99) / 1e6;
  const double pause_ms = probe_report.pause_nanos / 1e6;
  std::printf(
      "pause probe: %zu-query batches, p99 %.2f ms idle vs %.2f ms during "
      "a background pass (%.2fx); pass moved %llu payloads, writer-lock "
      "pause %.3f ms\n",
      probe_batch_size, p99_base, p99_during,
      p99_base > 0 ? p99_during / p99_base : 0.0,
      static_cast<unsigned long long>(probe_report.payloads_moved),
      pause_ms);

  if (!probe_report.compacted || probe_report.payloads_moved == 0) {
    std::fprintf(stderr, "FAIL: the pause-probe pass did not compact\n");
    std::exit(1);
  }
  if (p99_base > 0 && p99_during > 2.0 * p99_base) {
    std::fprintf(stderr,
                 "FAIL: p99 query latency during a background pass is "
                 "%.2f ms vs %.2f ms baseline (> 2x)\n",
                 p99_during, p99_base);
    std::exit(1);
  }
  if (probe_report.pause_nanos > 250 * 1000 * 1000ull) {
    std::fprintf(stderr,
                 "FAIL: the pass held the writer lock %.1f ms (> 250 ms "
                 "budget) — the stall is supposed to be swap+remap only\n",
                 pause_ms);
    std::exit(1);
  }

  std::remove(compacting.disk_path.c_str());
  std::remove(append_only.disk_path.c_str());
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
