// Per-request tracing: a TraceSpan times the life of one request through
// the stages parse -> queue wait -> index eval -> payload fetch ->
// seal/send, counts the distance computations it triggered, and on
// Finish() feeds the per-opcode histograms plus an env-gated slow-query
// log.
//
// Plumbing: the network worker owns the span and installs it as the
// thread's current span (TraceSpan::Scope) for the duration of the
// handler call, so deep layers (QueryEngine, PayloadCache, the distance
// bridge) attribute work to the request without threading a pointer
// through every signature. Batch fan-out worker threads see a null
// Current() and simply skip attribution — a documented undercount, never
// a data race.
//
// Cost when idle: TracingActive() is false unless metrics are on or
// SIMCLOUD_SLOW_QUERY_MS is set, and the worker skips every clock read
// when it is false — the overhead gate in ci.sh measures exactly this.

#ifndef SIMCLOUD_OBS_TRACE_H_
#define SIMCLOUD_OBS_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>

namespace simcloud {
namespace obs {

/// Monotonic clock read, the time base of every span stage.
inline uint64_t MonotonicNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Request lifecycle stages, in wire order.
enum class Stage : uint8_t {
  kParse = 0,         ///< opcode + body decode
  kQueueWait = 1,     ///< frames parsed -> worker picked the item up
  kIndexEval = 2,     ///< tree walk / candidate collection
  kPayloadFetch = 3,  ///< payload log reads (cache misses)
  kSealSend = 4,      ///< response encode + frame + (secure) seal
};
inline constexpr size_t kStageCount = 5;
const char* StageName(Stage stage);

/// Stable label of a wire opcode ("ping", "range_search_batch", ...); unknown
/// opcodes render as "op<N>". Lives here, not in secure/, because net/
/// must not depend on the protocol layer.
const char* OpcodeLabel(uint8_t opcode);

/// Timing + accounting record of one in-flight request.
class TraceSpan {
 public:
  TraceSpan() = default;

  void set_opcode(uint8_t opcode) { opcode_ = opcode; }
  void set_shard(int shard) { shard_ = shard; }
  void set_batch_size(uint64_t n) { batch_size_ = n; }

  uint8_t opcode() const { return opcode_; }
  int shard() const { return shard_; }
  uint64_t batch_size() const { return batch_size_; }

  void AddStageNanos(Stage stage, uint64_t nanos) {
    stage_nanos_[static_cast<size_t>(stage)] += nanos;
  }
  uint64_t StageNanos(Stage stage) const {
    return stage_nanos_[static_cast<size_t>(stage)];
  }

  void AddDistanceComputations(uint64_t n) { distance_computations_ += n; }
  uint64_t distance_computations() const { return distance_computations_; }

  /// The span active on this thread (null outside a request, and on
  /// batch fan-out pool threads).
  static TraceSpan* Current();

  /// Installs `span` as the thread's current span for the scope's
  /// lifetime; restores the previous one on exit.
  class Scope {
   public:
    explicit Scope(TraceSpan* span);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    TraceSpan* previous_;
  };

 private:
  uint8_t opcode_ = 0;
  int shard_ = -1;
  uint64_t batch_size_ = 0;
  uint64_t distance_computations_ = 0;
  std::array<uint64_t, kStageCount> stage_nanos_{};
};

/// RAII stage timer: accumulates its lifetime into `stage` of the
/// thread's current span. No-op (and no clock read) when no span is
/// active.
class StageTimer {
 public:
  explicit StageTimer(Stage stage)
      : span_(TraceSpan::Current()),
        stage_(stage),
        start_(span_ != nullptr ? MonotonicNanos() : 0) {}
  ~StageTimer() {
    if (span_ != nullptr) {
      span_->AddStageNanos(stage_, MonotonicNanos() - start_);
    }
  }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  TraceSpan* const span_;
  const Stage stage_;
  const uint64_t start_;
};

// ---------------------------------------------------------------------------
// Slow-query log
// ---------------------------------------------------------------------------

/// Threshold in milliseconds from SIMCLOUD_SLOW_QUERY_MS; negative means
/// disabled (unset or invalid env).
int64_t SlowQueryThresholdMs();
/// Runtime override (tests). Negative disables.
void SetSlowQueryThresholdMs(int64_t ms);

/// True when the slow-query log is enabled and `total_nanos` is at or
/// above the threshold (a request taking exactly the threshold fires).
bool ShouldLogSlowQuery(uint64_t total_nanos);

/// Replaces the slow-query line sink (default: SIMCLOUD_LOG at kWarn).
/// Pass nullptr to restore the default.
void SetSlowQuerySinkForTest(std::function<void(const std::string&)> sink);

/// Renders the structured slow-query line for `span`:
///   slow_query op=<label> total_ms=<t> shard=<s> batch=<n> dist_comps=<d>
///   parse_us=.. queue_us=.. index_us=.. fetch_us=.. seal_us=..
std::string FormatSlowQueryLine(const TraceSpan& span, uint64_t total_nanos);

/// Formats and emits the line through the current sink.
void EmitSlowQuery(const TraceSpan& span, uint64_t total_nanos);

/// True when any per-request clock work is worth doing: metrics enabled
/// or the slow-query log armed. The network worker consults this once
/// per request.
bool TracingActive();

/// Records the finished request into the registry: per-opcode count +
/// latency histogram, queue-wait histogram, bytes in/out, and the
/// slow-query check. `total_nanos` is the server-side handling time.
void FinishRequestSpan(const TraceSpan& span, uint64_t total_nanos,
                       uint64_t bytes_in, uint64_t bytes_out);

}  // namespace obs
}  // namespace simcloud

#endif  // SIMCLOUD_OBS_TRACE_H_
