// Cursor memory gate: a range query whose result set is ~1M candidates
// must stream through a server-side cursor in O(page) memory, while the
// one-shot path (a kRangeSearchBatch of one) pays O(result) — and the
// two must agree byte for byte. Three gates (the run aborts when
// violated):
//
//   * the paged drain returns AT LEAST the advertised 1M candidates;
//   * peak RSS growth of the paged drain stays a small fraction of the
//     one-shot growth (the cursor snapshots ranked (id, score, handle)
//     entries, never the payload bytes — pages materialize payloads
//     O(page) at a time);
//   * the concatenation of every page equals the one-shot answer
//     EXACTLY: every candidate's id, score and payload bytes, in order,
//     and the open page's stats equal the one-shot stats.
//
// The drain phases run in a deliberate order: VmHWM is monotonic, so
// the paged phase (small growth) runs FIRST against the post-build
// baseline, then the one-shot phase (large growth) on top of it. The
// byte-identity pass — which must itself hold the full concatenation —
// runs LAST, after both measurements are taken.
//
// Usage: bench_cursor [--smoke]
//   --smoke  1M objects instead of 2M, for CI.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "mindex/entry.h"
#include "secure/protocol.h"
#include "secure/server.h"

namespace simcloud {
namespace bench {
namespace {

constexpr size_t kNumPivots = 4;
constexpr size_t kPayloadBytes = 128;
constexpr uint64_t kPageSize = 1024;
constexpr double kWideRadius = 1e9;  // covers every object

/// Peak resident set of this process in kB (monotonic; Linux only).
size_t VmHwmKb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  size_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %zu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb;
}

std::vector<float> RandomDistances(Rng* rng) {
  std::vector<float> distances(kNumPivots);
  for (float& d : distances) {
    d = static_cast<float>(rng->NextBounded(100000)) / 1000.0f;
  }
  return distances;
}

/// Inserts `count` synthetic objects straight through the wire protocol
/// (precise pivot distances, fixed-size payloads), batched.
void BuildIndex(secure::EncryptedMIndexServer* handler, size_t count) {
  Rng rng(4242);
  constexpr size_t kBatch = 8192;
  std::vector<secure::InsertItem> batch;
  batch.reserve(kBatch);
  for (size_t next = 0; next < count; next += kBatch) {
    const size_t end = next + kBatch < count ? next + kBatch : count;
    batch.clear();
    for (size_t i = next; i < end; ++i) {
      secure::InsertItem item;
      item.id = static_cast<metric::ObjectId>(i + 1);
      item.pivot_distances = RandomDistances(&rng);
      item.payload.assign(kPayloadBytes, static_cast<uint8_t>(i * 37u));
      batch.push_back(std::move(item));
    }
    auto inserted = handler->Handle(secure::EncodeInsertBatchRequest(batch));
    if (!inserted.ok()) {
      std::fprintf(stderr, "insert batch failed: %s\n",
                   inserted.status().ToString().c_str());
      std::exit(1);
    }
  }
}

/// One full cursor drain. When `concat` is null the pages are counted
/// and DISCARDED (the O(page) measurement); otherwise every candidate
/// and the open page's stats are accumulated for the identity check.
struct DrainResult {
  uint64_t advertised_total = 0;
  size_t received = 0;
  mindex::SearchStats open_stats;
};

DrainResult DrainCursor(secure::EncryptedMIndexServer* handler,
                        const std::vector<float>& query,
                        mindex::CandidateList* concat) {
  DrainResult result;
  auto open = handler->Handle(secure::EncodeRangeSearchCursorRequest(
      query, kWideRadius, kPageSize, 0));
  if (!open.ok()) {
    std::fprintf(stderr, "cursor open failed: %s\n",
                 open.status().ToString().c_str());
    std::exit(1);
  }
  auto page = secure::DecodeCursorPage(*open);
  if (!page.ok()) std::exit(1);
  result.advertised_total = page->total;
  result.open_stats = page->stats;
  uint64_t cursor_id = page->cursor_id;
  while (true) {
    result.received += page->candidates.size();
    if (concat != nullptr) {
      for (auto& candidate : page->candidates) {
        concat->push_back(std::move(candidate));
      }
    }
    if (cursor_id == 0) break;
    auto next = handler->Handle(secure::EncodeCursorNextRequest(cursor_id));
    if (!next.ok()) {
      std::fprintf(stderr, "cursor next failed: %s\n",
                   next.status().ToString().c_str());
      std::exit(1);
    }
    page = secure::DecodeCursorPage(*next);
    if (!page.ok()) std::exit(1);
    cursor_id = page->cursor_id;
  }
  return result;
}

void Run(bool smoke) {
  const size_t num_objects = smoke ? 1'000'000 : 2'000'000;

  mindex::MIndexOptions options;
  options.num_pivots = kNumPivots;
  options.bucket_capacity = 64;
  options.max_level = 4;
  auto handler = secure::EncryptedMIndexServer::Create(options);
  if (!handler.ok()) std::exit(1);

  Stopwatch build;
  BuildIndex(handler->get(), num_objects);
  const double build_seconds = build.ElapsedSeconds();
  const size_t hwm_build = VmHwmKb();

  Rng query_rng(17);
  const std::vector<float> query = RandomDistances(&query_rng);

  // Phase 1 — paged drain, pages DISCARDED: the only growth is the
  // cursor's ranked snapshot plus one in-flight page.
  Stopwatch paged;
  DrainResult drained = DrainCursor(handler->get(), query, nullptr);
  const double paged_seconds = paged.ElapsedSeconds();
  const size_t hwm_paged = VmHwmKb();
  const size_t paged_delta_kb = hwm_paged - hwm_build;

  // Phase 2 — one-shot range search: the whole result set is
  // materialized (payloads included) and encoded in one response.
  Stopwatch oneshot;
  auto oneshot_bytes = handler->get()->Handle(
      secure::EncodeRangeSearchBatchRequest(
          {mindex::RangeQuery{query, kWideRadius}}));
  if (!oneshot_bytes.ok()) {
    std::fprintf(stderr, "one-shot range search failed: %s\n",
                 oneshot_bytes.status().ToString().c_str());
    std::exit(1);
  }
  const double oneshot_seconds = oneshot.ElapsedSeconds();
  const size_t hwm_oneshot = VmHwmKb();
  const size_t oneshot_delta_kb = hwm_oneshot - hwm_paged;

  // Phase 3 — identity: a second drain, this time keeping everything,
  // must equal phase 2's answer, read in place from its response bytes.
  mindex::CandidateList concat;
  DrainResult kept = DrainCursor(handler->get(), query, &concat);
  auto oneshot_view = secure::ParseBatchCandidateResponse(*oneshot_bytes);
  bool identical = oneshot_view.ok() && oneshot_view->per_query.size() == 1;
  if (identical) {
    const std::vector<mindex::BatchCandidateRef>& refs =
        oneshot_view->per_query[0];
    const mindex::SearchStats& expected = oneshot_view->stats[0];
    const mindex::SearchStats& got = kept.open_stats;
    identical = refs.size() == concat.size() &&
                got.cells_visited == expected.cells_visited &&
                got.cells_pruned == expected.cells_pruned &&
                got.entries_scanned == expected.entries_scanned &&
                got.entries_filtered == expected.entries_filtered &&
                got.candidates == expected.candidates &&
                kept.advertised_total == expected.candidates;
    for (size_t i = 0; identical && i < refs.size(); ++i) {
      const ByteView payload = oneshot_view->payloads[refs[i].payload_index];
      identical = concat[i].id == refs[i].id &&
                  concat[i].score == refs[i].score &&
                  concat[i].payload.size() == payload.size &&
                  std::memcmp(concat[i].payload.data(), payload.data,
                              payload.size) == 0;
    }
  }

  std::printf("bench_cursor: %zu objects built in %.1fs\n", num_objects,
              build_seconds);
  std::printf("paged drain: %zu candidates (%" PRIu64 " advertised) in "
              "%.2fs, +%zu kB peak RSS\n",
              drained.received, drained.advertised_total, paged_seconds,
              paged_delta_kb);
  std::printf("one-shot:    %zu response bytes in %.2fs, +%zu kB peak RSS\n",
              oneshot_bytes->size(), oneshot_seconds, oneshot_delta_kb);

  bool failed = false;
  if (drained.received < 1'000'000 ||
      drained.received != drained.advertised_total) {
    std::fprintf(stderr, "FAIL: paged drain returned %zu candidates "
                         "(advertised %" PRIu64 ", need >= 1M)\n",
                 drained.received, drained.advertised_total);
    failed = true;
  }
  // The cursor's growth must be a small fraction of the one-shot path's:
  // ranked (id, score, handle) entries only, vs every payload plus the
  // full encoded response held at once.
  if (paged_delta_kb * 3 >= oneshot_delta_kb) {
    std::fprintf(stderr, "FAIL: paged peak RSS +%zu kB is not O(page) "
                         "against the one-shot +%zu kB\n",
                 paged_delta_kb, oneshot_delta_kb);
    failed = true;
  }
  if (!identical) {
    std::fprintf(stderr, "FAIL: paged concatenation (%zu candidates) "
                         "diverges from the one-shot response (%zu bytes)\n",
                 concat.size(), oneshot_bytes->size());
    failed = true;
  }
  if (failed) std::exit(1);

  std::printf("bench_cursor OK (paged +%zu kB vs one-shot +%zu kB, "
              "%zu candidates byte-identical)\n",
              paged_delta_kb, oneshot_delta_kb, drained.received);
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
