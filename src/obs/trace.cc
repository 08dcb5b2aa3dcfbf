#include "obs/trace.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "common/log.h"
#include "obs/metrics.h"

namespace simcloud {
namespace obs {

namespace {

thread_local TraceSpan* t_current_span = nullptr;

}  // namespace

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kParse: return "parse";
    case Stage::kQueueWait: return "queue";
    case Stage::kIndexEval: return "index";
    case Stage::kPayloadFetch: return "fetch";
    case Stage::kSealSend: return "seal";
  }
  return "unknown";
}

const char* OpcodeLabel(uint8_t opcode) {
  // Mirrors secure::Op (2, 3 and 5 are retired and label as op2/op3/op5);
  // net/ cannot include the protocol header, so the table lives here.
  switch (opcode) {
    case 1: return "insert_batch";
    case 4: return "get_stats";
    case 6: return "range_search_batch";
    case 7: return "approx_knn_batch";
    case 8: return "delete_batch";
    case 9: return "compact";
    case 10: return "ping";
    case 11: return "watch";
    case 12: return "watch_cancel";
    case 13: return "range_search_cursor";
    case 14: return "cursor_next";
    case 15: return "cursor_close";
    case 16: return "get_metrics";
    default: break;
  }
  static constexpr const char* kUnknown[] = {
      "op0",   "op1",   "op2",   "op3",   "op4",   "op5",   "op6",   "op7",
      "op8",   "op9",   "op10",  "op11",  "op12",  "op13",  "op14",  "op15",
      "op16",  "op17",  "op18",  "op19",  "op20",  "op21",  "op22",  "op23",
      "op24",  "op25",  "op26",  "op27",  "op28",  "op29",  "op30",  "op31"};
  return opcode < 32 ? kUnknown[opcode] : "op_other";
}

TraceSpan* TraceSpan::Current() { return t_current_span; }

TraceSpan::Scope::Scope(TraceSpan* span) : previous_(t_current_span) {
  t_current_span = span;
}

TraceSpan::Scope::~Scope() { t_current_span = previous_; }

// ---------------------------------------------------------------------------
// Slow-query log
// ---------------------------------------------------------------------------

namespace {

int64_t InitialSlowQueryMs() {
  const char* env = std::getenv("SIMCLOUD_SLOW_QUERY_MS");
  if (env == nullptr || *env == '\0') return -1;
  char* end = nullptr;
  const long long ms = std::strtoll(env, &end, 10);
  if (end == env || *end != '\0' || ms < 0) {
    SIMCLOUD_LOG(kWarn) << "ignoring invalid SIMCLOUD_SLOW_QUERY_MS=\"" << env
                        << "\" (want a non-negative integer)";
    return -1;
  }
  return static_cast<int64_t>(ms);
}

std::atomic<int64_t>& SlowQueryMsCell() {
  static std::atomic<int64_t> cell{InitialSlowQueryMs()};
  return cell;
}

std::mutex g_sink_mutex;
std::function<void(const std::string&)> g_sink;  // guarded by g_sink_mutex

}  // namespace

int64_t SlowQueryThresholdMs() {
  return SlowQueryMsCell().load(std::memory_order_relaxed);
}

void SetSlowQueryThresholdMs(int64_t ms) {
  SlowQueryMsCell().store(ms, std::memory_order_relaxed);
}

bool ShouldLogSlowQuery(uint64_t total_nanos) {
  const int64_t threshold_ms = SlowQueryThresholdMs();
  if (threshold_ms < 0) return false;
  return total_nanos >= static_cast<uint64_t>(threshold_ms) * 1000000ull;
}

void SetSlowQuerySinkForTest(std::function<void(const std::string&)> sink) {
  std::lock_guard<std::mutex> lock(g_sink_mutex);
  g_sink = std::move(sink);
}

std::string FormatSlowQueryLine(const TraceSpan& span, uint64_t total_nanos) {
  char buf[384];
  std::snprintf(
      buf, sizeof(buf),
      "slow_query op=%s total_ms=%.3f shard=%d batch=%llu dist_comps=%llu "
      "parse_us=%.1f queue_us=%.1f index_us=%.1f fetch_us=%.1f seal_us=%.1f",
      OpcodeLabel(span.opcode()), double(total_nanos) / 1e6, span.shard(),
      static_cast<unsigned long long>(span.batch_size()),
      static_cast<unsigned long long>(span.distance_computations()),
      double(span.StageNanos(Stage::kParse)) / 1e3,
      double(span.StageNanos(Stage::kQueueWait)) / 1e3,
      double(span.StageNanos(Stage::kIndexEval)) / 1e3,
      double(span.StageNanos(Stage::kPayloadFetch)) / 1e3,
      double(span.StageNanos(Stage::kSealSend)) / 1e3);
  return std::string(buf);
}

void EmitSlowQuery(const TraceSpan& span, uint64_t total_nanos) {
  const std::string line = FormatSlowQueryLine(span, total_nanos);
  std::function<void(const std::string&)> sink;
  {
    std::lock_guard<std::mutex> lock(g_sink_mutex);
    sink = g_sink;
  }
  if (sink) {
    sink(line);
  } else {
    SIMCLOUD_LOG(kWarn) << line;
  }
}

bool TracingActive() {
  return MetricsEnabled() || SlowQueryThresholdMs() >= 0;
}

// ---------------------------------------------------------------------------
// Span completion
// ---------------------------------------------------------------------------

namespace {

/// Lazily-registered per-opcode cells; pointers are process-stable so a
/// lock-free CAS publish is safe (a lost race re-fetches the same cell
/// from the idempotent registry).
struct OpcodeCells {
  std::atomic<Counter*> requests{nullptr};
  std::atomic<Counter*> bytes_in{nullptr};
  std::atomic<Counter*> bytes_out{nullptr};
  std::atomic<Histogram*> latency{nullptr};
};

template <typename Cell, typename Factory>
Cell* LazyCell(std::atomic<Cell*>* slot, Factory&& make) {
  Cell* cell = slot->load(std::memory_order_acquire);
  if (cell == nullptr) {
    cell = make();
    slot->store(cell, std::memory_order_release);
  }
  return cell;
}

}  // namespace

void FinishRequestSpan(const TraceSpan& span, uint64_t total_nanos,
                       uint64_t bytes_in, uint64_t bytes_out) {
  if (MetricsEnabled()) {
    static std::array<OpcodeCells, 256> cells;
    OpcodeCells& slot = cells[span.opcode()];
    const std::string label = OpcodeLabel(span.opcode());
    Registry& registry = Registry::Default();
    LazyCell(&slot.requests, [&] {
      return registry.GetCounter("simcloud_requests_total{op=\"" + label +
                                 "\"}");
    })->Add(1);
    LazyCell(&slot.bytes_in, [&] {
      return registry.GetCounter("simcloud_net_bytes_in_total{op=\"" + label +
                                 "\"}");
    })->Add(bytes_in);
    LazyCell(&slot.bytes_out, [&] {
      return registry.GetCounter("simcloud_net_bytes_out_total{op=\"" + label +
                                 "\"}");
    })->Add(bytes_out);
    LazyCell(&slot.latency, [&] {
      return registry.GetHistogram("simcloud_request_nanos{op=\"" + label +
                                   "\"}");
    })->Record(total_nanos);

    static Histogram* const queue_wait =
        Registry::Default().GetHistogram("simcloud_request_queue_nanos");
    queue_wait->Record(span.StageNanos(Stage::kQueueWait));
  }
  if (ShouldLogSlowQuery(total_nanos)) {
    EmitSlowQuery(span, total_nanos);
  }
}

}  // namespace obs
}  // namespace simcloud
