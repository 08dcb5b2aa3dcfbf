// Wire protocol between the encryption client and the M-Index server.
//
// Every request starts with a one-byte opcode; bodies are BinaryWriter
// encodings of the structures below. The protocol deliberately carries
// only what the paper's Algorithms 1-4 exchange: routing metadata
// (permutations / pivot distances), opaque payloads, radii and candidate
// set sizes — never plaintext objects or pivots.

#ifndef SIMCLOUD_SECURE_PROTOCOL_H_
#define SIMCLOUD_SECURE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/serialize.h"
#include "common/status.h"
#include "mindex/entry.h"
#include "obs/metrics.h"

namespace simcloud {
namespace secure {

/// Maximum queries per batch request the server accepts; a larger batch
/// is rejected at decode time (bounds per-request server work).
inline constexpr uint64_t kMaxBatchQueries = 4096;

/// Opcodes of the encrypted M-Index service. Every operation has one
/// opcode: a single query or delete is a batch of one. Numbers 2, 3 and 5
/// (the retired single range, approximate k-NN and delete opcodes) are
/// never reused and decode as an unknown opcode.
enum class Op : uint8_t {
  kInsertBatch = 1,       ///< bulk insert of encrypted objects (Alg. 1)
  kGetStats = 4,          ///< index statistics
  kRangeSearchBatch = 6,  ///< precise range candidates (Alg. 3)
  kApproxKnnBatch = 7,    ///< pre-ranked approximate candidates (Alg. 4)
  kDeleteBatch = 8,       ///< delete by id + routing permutation
  kCompact = 9,           ///< admin: compact the payload log(s)
  kPing = 10,             ///< no-op health check / pure-RTT probe
  kWatch = 11,            ///< register a standing change-stream subscription
  kWatchCancel = 12,      ///< tear down a subscription by watch id
  kRangeSearchCursor = 13,  ///< open a paged range search: first page + id
  kCursorNext = 14,         ///< next page of an open cursor
  kCursorClose = 15,        ///< release a cursor's server-side state
  kGetMetrics = 16,         ///< admin: observability registry snapshot
};

/// One insert item: exactly the encrypted object `e` of Algorithm 1.
struct InsertItem {
  metric::ObjectId id = 0;
  std::vector<float> pivot_distances;  ///< precise strategy (may be empty)
  mindex::Permutation permutation;     ///< approx strategy (may be empty)
  Bytes payload;                       ///< AES ciphertext
};

/// One item of a batched delete: the id plus the routing permutation the
/// insert used, so a delete leaks nothing the insert did not.
struct DeleteItem {
  metric::ObjectId id = 0;
  mindex::Permutation permutation;
};

/// Standing predicate of a kWatch subscription. kAll streams every
/// mutation. kRange streams inserts whose pivot-filtering lower bound
/// (max_i |q_i - o_i| over the insert's pivot distances) is <= radius —
/// the same conservative bound the range search prunes with, so the
/// stream never misses a true match; deletes are always delivered (the
/// server no longer holds the object, so it cannot evaluate the
/// predicate — the client drops ids it never matched). Like every query,
/// the filter carries only transformed pivot distances, never plaintext.
struct WatchFilter {
  enum class Kind : uint8_t { kAll = 0, kRange = 1 };
  Kind kind = Kind::kAll;
  std::vector<float> query_distances;  ///< kRange only
  double radius = 0;                   ///< kRange only (transformed)
};

/// One frame of a change stream, flowing server -> client as a push on
/// the watch's request id. The first byte tags the frame kind so the
/// registration acknowledgement and pushed events share one decoder —
/// the hub may legitimately enqueue an event push before the worker's
/// ack lands on the same id, and the client just stashes early events
/// until the ack arrives.
struct WatchFrame {
  enum class Kind : uint8_t {
    kAck = 0,     ///< registration accepted; watch_id + baseline token
    kInsert = 1,  ///< object inserted: object_id + payload + token
    kDelete = 2,  ///< object deleted: object_id + token
    kLost = 3,    ///< replay ring overflowed; stream is dead, see message
  };
  Kind kind = Kind::kAck;
  uint64_t watch_id = 0;  ///< kAck: the handle kWatchCancel takes
  /// Resume token: one per-shard sequence number per shard, in shard
  /// order (size 1 on a single server, shard count on a facade). The
  /// token on an event resumes the stream immediately after that event;
  /// the ack's token is the stream's starting point.
  std::vector<uint64_t> token;
  metric::ObjectId object_id = 0;  ///< kInsert / kDelete
  Bytes payload;                   ///< kInsert: the opaque ciphertext
  std::string message;             ///< kLost: human-readable reason
};

/// Serialized requests.
Bytes EncodeInsertBatchRequest(const std::vector<InsertItem>& items);
Bytes EncodeGetStatsRequest();
Bytes EncodeRangeSearchBatchRequest(
    const std::vector<mindex::RangeQuery>& queries);
Bytes EncodeApproxKnnBatchRequest(const std::vector<mindex::KnnQuery>& queries);
Bytes EncodeDeleteBatchRequest(const std::vector<DeleteItem>& items);
/// `force` compacts whenever any dead bytes exist; otherwise the server's
/// configured `compaction_trigger` decides.
Bytes EncodeCompactRequest(bool force);
/// Touches no index state; the empty response measures pure transport
/// cost (and, pipelined, transport overlap) in benches and tests.
Bytes EncodePingRequest();
/// Registers a change-stream subscription. An empty `resume_token` starts
/// the stream at the shard's current sequence (deliver the future only);
/// a non-empty token resumes after the given per-shard sequences and is
/// rejected with OutOfRange ("watch lost") when the replay ring no longer
/// covers them. Needs a transport that can push: an in-process call
/// gets a clean FailedPrecondition error.
Bytes EncodeWatchRequest(const WatchFilter& filter,
                         const std::vector<uint64_t>& resume_token);
/// Tears down the subscription `watch_id` (from the ack frame). After
/// the cancel response every frame for that id has already been sent —
/// responses and pushes share one FIFO per connection.
Bytes EncodeWatchCancelRequest(uint64_t watch_id);

/// Stream frames (the kWatch response body and every push on its id).
Bytes EncodeWatchFrame(const WatchFrame& frame);
Result<WatchFrame> DecodeWatchFrame(const Bytes& data);

/// Opens a server-side cursor over a precise range search: the server
/// runs the same collect + rank pass as kRangeSearchBatch, pins the
/// ranked snapshot, and answers with the first page plus a cursor id.
/// `start_offset` skips that many ranked candidates before the first
/// page — 0 for a fresh cursor; a sharded facade uses it to reopen a
/// shard leg on a surviving replica after failover.
Bytes EncodeRangeSearchCursorRequest(
    const std::vector<float>& query_distances, double radius,
    uint64_t page_size, uint64_t start_offset = 0);
/// Next page of cursor `cursor_id` (page size fixed at open). Errors:
/// NotFound "unknown cursor" (garbage/already-closed id),
/// FailedPrecondition "cursor expired" (TTL passed — never a silent empty
/// page) or "cursor invalidated" (a compaction pass remapped payload
/// handles since the open).
Bytes EncodeCursorNextRequest(uint64_t cursor_id);
/// Releases cursor state. Idempotent: closing an unknown/expired id
/// succeeds with 0, a live one with 1 (EncodeInsertResponse ack).
Bytes EncodeCursorCloseRequest(uint64_t cursor_id);

/// One page of an open cursor (the kRangeSearchCursor and kCursorNext
/// response body). `cursor_id` echoes the open cursor, or 0 when the
/// server kept NO state — the page that exhausts the result set (possibly
/// the first) releases the cursor eagerly, so a well-behaved client never
/// needs kCursorClose on a drained stream. `total` is the ranked
/// candidate count at open (what kRangeSearchBatch's stats.candidates
/// would report for the query). The open page carries the full
/// collection stats; later pages carry zeros except stats.candidates =
/// page size.
struct CursorPage {
  uint64_t cursor_id = 0;  ///< 0: exhausted, no server state remains
  uint64_t total = 0;      ///< ranked candidates pinned at open
  mindex::SearchStats stats;
  mindex::CandidateList candidates;

  bool exhausted() const { return cursor_id == 0; }
};
Bytes EncodeCursorPage(const CursorPage& page);
Result<CursorPage> DecodeCursorPage(const Bytes& data);

/// Decoded request (server side).
struct Request {
  Op op;
  std::vector<InsertItem> insert_items;           // kInsertBatch
  std::vector<mindex::RangeQuery> range_queries;  // kRangeSearchBatch
  std::vector<mindex::KnnQuery> knn_queries;      // kApproxKnnBatch
  std::vector<DeleteItem> delete_items;           // kDeleteBatch
  bool compact_force = false;                     // kCompact
  WatchFilter watch_filter;                       // kWatch
  std::vector<uint64_t> watch_resume_token;       // kWatch (empty = fresh)
  uint64_t watch_cancel_id = 0;                   // kWatchCancel
  std::vector<float> query_distances;  // kRangeSearchCursor
  double radius = 0;                   // kRangeSearchCursor
  uint64_t cursor_page_size = 0;       // kRangeSearchCursor
  uint64_t cursor_start_offset = 0;    // kRangeSearchCursor (failover reopen)
  uint64_t cursor_id = 0;              // kCursorNext / kCursorClose
};
Result<Request> DecodeRequest(const Bytes& data);

/// One query's candidate set with its search stats.
struct CandidateResponse {
  mindex::CandidateList candidates;
  mindex::SearchStats stats;
};

/// Batched candidate-set response (kRangeSearchBatch / kApproxKnnBatch).
/// Dictionary-encoded: the deduplicated payload bytes are shipped once,
/// followed by per-query blocks of (stats, ranked candidate references).
/// Overlapping or repeated queries therefore cost one payload transfer
/// per distinct ciphertext, not per candidate. Materialize(q) expands
/// query q into its ranked candidates and stats.
Bytes EncodeBatchCandidateResponse(const mindex::BatchCandidates& batch,
                                   const std::vector<mindex::SearchStats>& stats);
struct BatchCandidateResponse {
  mindex::BatchCandidates batch;
  std::vector<mindex::SearchStats> stats;

  size_t query_count() const { return batch.per_query.size(); }
  CandidateResponse Materialize(size_t q) const {
    return CandidateResponse{batch.MaterializeQuery(q), stats[q]};
  }
};
Result<BatchCandidateResponse> DecodeBatchCandidateResponse(const Bytes& data);

/// A batched candidate response parsed without copying its payloads:
/// each dictionary entry is a view into the parsed buffer, which must
/// outlive this struct; refs and stats are decoded. This is the one
/// parser of the batch format — DecodeBatchCandidateResponse copies the
/// views out, and the sharded facade merges shard responses straight
/// from them.
struct BatchCandidateView {
  std::vector<ByteView> payloads;
  std::vector<std::vector<mindex::BatchCandidateRef>> per_query;
  std::vector<mindex::SearchStats> stats;
};
/// Corruption on truncated input or a payload index past the dictionary.
Result<BatchCandidateView> ParseBatchCandidateResponse(const Bytes& data);

/// The one writer of the batch format: the dictionary `payloads` (views
/// into buffers the caller keeps alive), then per query its stats and
/// ranked refs. Each payload byte is copied once, into the result.
/// EncodeBatchCandidateResponse is this writer over owned payloads.
Bytes WriteBatchCandidateResponse(
    const std::vector<ByteView>& payloads,
    const std::vector<std::vector<mindex::BatchCandidateRef>>& per_query,
    const std::vector<mindex::SearchStats>& stats);

/// Insert acknowledgement.
Bytes EncodeInsertResponse(uint64_t inserted);
Result<uint64_t> DecodeInsertResponse(const Bytes& data);

/// Index statistics response.
Bytes EncodeStatsResponse(const mindex::IndexStats& stats);
Result<mindex::IndexStats> DecodeStatsResponse(const Bytes& data);

/// Compaction report response (kCompact). Sharded deployments aggregate
/// per-shard reports before encoding.
Bytes EncodeCompactResponse(const mindex::CompactionReport& report);
Result<mindex::CompactionReport> DecodeCompactResponse(const Bytes& data);

/// Observability scrape (kGetMetrics): an empty-bodied request — any
/// trailing bytes are rejected, so a misframed opcode-16 frame can never
/// leak a registry snapshot. The response is the append-only metrics
/// wire block of obs::EncodeMetricsSnapshot — a ShardedServer answers
/// with the bucket-correct merge of its shards' snapshots.
Bytes EncodeGetMetricsRequest();
Bytes EncodeMetricsResponse(const obs::MetricsSnapshot& snapshot);
Result<obs::MetricsSnapshot> DecodeMetricsResponse(const Bytes& data);

}  // namespace secure
}  // namespace simcloud

#endif  // SIMCLOUD_SECURE_PROTOCOL_H_
