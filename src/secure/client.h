// The encryption client — the authorized client of the similarity cloud
// (paper Section 4.2, Algorithms 1 and 2).
//
// The client holds the secret key (pivots + AES key). For inserts it
// computes object-pivot distances, encrypts objects, and ships only
// {distances | permutation, ciphertext}. For searches it sends only the
// query's pivot distances or permutation, receives a pre-ranked candidate
// set of ciphertexts, then decrypts and refines locally. The query object
// and the pivots never leave the client.
//
// Every operation feeds the cost accounting the paper's evaluation is
// built on: encryption/decryption time, distance-computation time, and
// client processing overhead (ClientCosts), plus the transport's
// server/communication split (net::TransportCosts).

#ifndef SIMCLOUD_SECURE_CLIENT_H_
#define SIMCLOUD_SECURE_CLIENT_H_

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "metric/dataset.h"
#include "metric/distance.h"
#include "metric/neighbor.h"
#include "net/transport.h"
#include "secure/protocol.h"
#include "secure/secret_key.h"

namespace simcloud {
namespace secure {

/// What routing metadata accompanies an encrypted object (Algorithm 1
/// lines 3-7).
enum class InsertStrategy {
  /// Store distances to all pivots: enables precise range/k-NN search and
  /// server-side pivot filtering.
  kPrecise,
  /// Store only the pivot permutation: smaller server footprint, supports
  /// the approximate strategy only.
  kPermutationOnly,
};

/// Client-side cost components (paper Tables 3, 5, 6, 9).
struct ClientCosts {
  int64_t encryption_nanos = 0;  ///< AES encryption of inserted objects
  int64_t decryption_nanos = 0;  ///< decrypt + deserialize candidates
  int64_t distance_nanos = 0;    ///< object-pivot + refine distances
  int64_t overhead_nanos = 0;    ///< serialization & bookkeeping
  uint64_t distance_computations = 0;
  uint64_t objects_encrypted = 0;
  uint64_t candidates_decrypted = 0;

  /// Total client computation time ("Client time" table rows).
  int64_t TotalNanos() const {
    return encryption_nanos + decryption_nanos + distance_nanos +
           overhead_nanos;
  }
  void Clear() { *this = ClientCosts{}; }
};

/// A pipelined query batch in flight: created by a Submit* call, resolved
/// by the matching Collect* call (exactly once). The struct snapshots the
/// plaintext queries so refinement can run when the response arrives.
struct PendingQueryBatch {
  uint64_t ticket = 0;
  bool live = false;  ///< true between Submit and Collect
  std::vector<metric::VectorObject> queries;
  double radius = 0;     ///< range batches
  size_t k = 0;          ///< k-NN batches
};

/// A pipelined delete batch in flight.
struct PendingDeleteBatch {
  uint64_t ticket = 0;
  bool live = false;
  size_t count = 0;  ///< objects the batch asked to delete
};

/// One decrypted change-stream event (EncryptionClient::Watch).
struct WatchEvent {
  enum class Kind {
    kInsert,  ///< `object` holds the decrypted inserted object
    kDelete,  ///< `id` names the removed object
    kLost,    ///< the server's replay ring overflowed: re-run the query
              ///< and re-register fresh; `message` says why
  };
  Kind kind = Kind::kInsert;
  metric::ObjectId id = 0;
  metric::VectorObject object;
  /// Token that resumes the stream right AFTER this event (pass to
  /// Watch/WatchAll on reconnect).
  std::vector<uint64_t> resume_token;
  std::string message;
};

class EncryptionClient;

/// A live change-stream subscription, created by EncryptionClient::Watch.
/// Frames arrive as server pushes on a parked pipelined request id;
/// Next() surfaces them decrypted and in stream order. Call from the
/// owning client's thread only (the client is not thread-safe).
///
/// Lifecycle: Cancel() tells the server to drop the subscription, drains
/// the frames that were already in flight, and closes the stream; the
/// destructor just closes the stream (a client that lost its connection
/// reconnects and re-registers with resume_token()).
class WatchStream {
 public:
  ~WatchStream();
  WatchStream(const WatchStream&) = delete;
  WatchStream& operator=(const WatchStream&) = delete;

  /// Blocks up to `timeout_ms` for the next event. DeadlineExceeded when
  /// nothing arrived (the stream stays live); NetworkError when the
  /// connection died (re-register with resume_token()). After a kLost
  /// event (or Cancel) the stream is finished and Next returns
  /// FailedPrecondition.
  Result<WatchEvent> Next(int timeout_ms);

  /// Cancels the subscription server-side and drains in-flight frames.
  /// The stream is finished afterwards; resume_token() stays valid.
  Status Cancel();

  /// Token resuming right after the last event Next() returned (the
  /// registration baseline before any event).
  const std::vector<uint64_t>& resume_token() const { return token_; }
  uint64_t watch_id() const { return watch_id_; }
  /// True once the stream is finished (kLost delivered or cancelled).
  bool finished() const { return finished_; }

 private:
  friend class EncryptionClient;
  WatchStream(EncryptionClient* client, net::PipelinedTransport* transport,
              uint64_t ticket, uint64_t watch_id,
              std::vector<uint64_t> token)
      : client_(client), transport_(transport), ticket_(ticket),
        watch_id_(watch_id), token_(std::move(token)) {}

  /// Converts a decoded frame into a client event (decrypts inserts).
  Result<WatchEvent> ToEvent(const WatchFrame& frame);

  EncryptionClient* client_;
  net::PipelinedTransport* transport_;
  uint64_t ticket_ = 0;
  uint64_t watch_id_ = 0;
  std::vector<uint64_t> token_;
  /// Pushes that arrived before the registration ack (the delivery
  /// thread can outrun the response) — drained by Next() first.
  std::deque<WatchFrame> early_;
  bool finished_ = false;
};

/// A paged range-query retrieval, created by
/// EncryptionClient::OpenRangeCursor. The server keeps the ranked
/// candidate snapshot; Next() pulls one page at a time, decrypts it, and
/// refines it with the true metric — client memory stays O(page) no
/// matter how many candidates the query admits. Call from the owning
/// client's thread only (the client is not thread-safe).
///
/// The concatenation of all pages' candidates is byte-identical to what
/// the one-shot RangeSearch would have fetched; each page is refined and
/// sorted locally, so the per-page NeighborLists are sorted within the
/// page, not globally.
///
/// Lifecycle: Close() releases the server-side cursor (idempotent; a
/// cursor that finished on its own needs no close — the server already
/// dropped it). The destructor closes best-effort. An expired or
/// invalidated cursor surfaces as an explicit error from Next(), never a
/// silent empty page.
class CursorStream {
 public:
  ~CursorStream();
  CursorStream(const CursorStream&) = delete;
  CursorStream& operator=(const CursorStream&) = delete;

  /// Fetches, decrypts, and refines the next page. Check exhausted()
  /// for the end of the stream — a non-final page may still refine to an
  /// empty list when none of its candidates pass the true-distance
  /// filter. Errors pass through from the server: "cursor expired"
  /// (TTL), "cursor invalidated" (compaction moved payloads), "unknown
  /// cursor".
  Result<metric::NeighborList> Next();

  /// Releases the server-side cursor state. Idempotent.
  Status Close();

  /// True when every page was delivered (Next() returns empty lists).
  bool exhausted() const { return !first_pending_ && cursor_id_ == 0; }
  /// Server-side cursor id; 0 once exhausted or closed.
  uint64_t cursor_id() const { return cursor_id_; }
  /// Ranked candidate total the server snapshotted at open (the number
  /// of CANDIDATES to be paged, before true-distance refinement).
  uint64_t total_candidates() const { return total_; }

 private:
  friend class EncryptionClient;
  CursorStream(EncryptionClient* client, net::PipelinedTransport* transport,
               metric::VectorObject query, double radius, CursorPage first)
      : client_(client), transport_(transport), query_({std::move(query)}),
        radius_(radius), cursor_id_(first.cursor_id), total_(first.total),
        first_page_(std::move(first)) {}

  EncryptionClient* client_;
  net::PipelinedTransport* transport_;
  /// The plaintext query for refinement, as a batch of one.
  std::vector<metric::VectorObject> query_;
  double radius_ = 0;           ///< plaintext radius for refinement
  uint64_t cursor_id_ = 0;
  uint64_t total_ = 0;
  /// The open response's page, returned by the first Next().
  CursorPage first_page_;
  bool first_pending_ = true;
  bool closed_ = false;
};

/// Authorized client of an Encrypted M-Index server.
class EncryptionClient {
 public:
  /// `metric` must be the distance the data owner chose for the data set;
  /// `transport` connects to an EncryptedMIndexServer and must outlive
  /// the client.
  EncryptionClient(SecretKey key,
                   std::shared_ptr<metric::DistanceFunction> metric,
                   net::Transport* transport)
      : key_(std::move(key)), metric_(std::move(metric)),
        transport_(transport) {}

  /// Inserts one object (Algorithm 1).
  Status Insert(const metric::VectorObject& object, InsertStrategy strategy);

  /// Inserts objects in bulks of `bulk_size` (the paper uses bulks of
  /// 1,000 in the construction experiments).
  Status InsertBulk(const std::vector<metric::VectorObject>& objects,
                    InsertStrategy strategy, size_t bulk_size = 1000);

  /// Deletes one object. The client recomputes the routing permutation
  /// from the object and its secret pivots, so the request carries no
  /// more information than the original insert did. NotFound if the
  /// object is not indexed. A DeleteBatch of one.
  Status Delete(const metric::VectorObject& object);

  /// Deletes objects in bulks of `bulk_size` (kDeleteBatch, the mirror of
  /// InsertBulk): each bulk travels in one request and the server removes
  /// it under one lock acquisition with one handle-free pass. NotFound if
  /// any object was not indexed (the indexed ones are still deleted).
  Status DeleteBatch(const std::vector<metric::VectorObject>& objects,
                     size_t bulk_size = 1000);

  /// Admin: compacts the server's payload log(s) (kCompact; per-shard in
  /// a sharded deployment). `force` compacts whenever dead bytes exist;
  /// otherwise the server's configured compaction_trigger decides.
  /// Returns the (shard-aggregated) compaction report.
  Result<mindex::CompactionReport> Compact(bool force = true);

  /// Precise range query R(q, r) (Algorithm 2, precise branch). Returns
  /// exactly the objects within `radius`, sorted by distance. A
  /// RangeSearchBatch of one.
  Result<metric::NeighborList> RangeSearch(const metric::VectorObject& query,
                                           double radius);

  /// Paged precise range query: like RangeSearch, but the server keeps
  /// the ranked candidate snapshot and the client pulls `page_size`
  /// candidates per Next() — an unbounded result set never materializes
  /// on either side. Requires a pipelined transport (cursors are
  /// connection-scoped server state). The returned stream borrows this
  /// client and its transport.
  Result<std::unique_ptr<CursorStream>> OpenRangeCursor(
      const metric::VectorObject& query, double radius, uint64_t page_size);

  /// Approximate k-NN (Algorithm 2, approximate branch): asks the server
  /// for `cand_size` pre-ranked candidates, decrypts and refines them.
  /// An ApproxKnnBatch of one.
  Result<metric::NeighborList> ApproxKnn(const metric::VectorObject& query,
                                         size_t k, size_t cand_size);

  /// Batched precise range search: all queries travel in ONE request
  /// (kRangeSearchBatch), the server evaluates them in one pass, and the
  /// client decrypts and refines every candidate set under a single
  /// cost-accounting pass. `results[i]` answers `queries[i]` and equals
  /// what RangeSearch(queries[i], radius) would return.
  Result<std::vector<metric::NeighborList>> RangeSearchBatch(
      const std::vector<metric::VectorObject>& queries, double radius);

  /// Batched approximate k-NN: one kApproxKnnBatch round trip for the
  /// whole query set; per-query answers equal ApproxKnn's.
  Result<std::vector<metric::NeighborList>> ApproxKnnBatch(
      const std::vector<metric::VectorObject>& queries, size_t k,
      size_t cand_size);

  // -------------------------------------------------------------------
  // Pipelined submit/collect API. Requires a net::PipelinedTransport
  // (TcpTransport or LoopbackTransport): several batches can be in
  // flight on ONE connection at once, overlapping client-side
  // refinement, the wire, and the server — ShardedServer uses the same
  // mechanism to overlap its per-shard fan-out. Each Submit must be
  // resolved by exactly one matching Collect; batches pipelined
  // together may execute in any order on the server, so do not pipeline
  // requests that depend on each other's effects. The client object is
  // not thread-safe: submit and collect from one thread (use one client
  // per thread for concurrency). Collect* returns exactly what the
  // synchronous call over the same index state would.
  // -------------------------------------------------------------------

  /// Pipelined RangeSearchBatch (`queries.size()` <= kMaxBatchQueries).
  /// `queries` is taken by value and moved into the pending batch: pass
  /// an rvalue for a zero-copy submit.
  Result<PendingQueryBatch> SubmitRangeSearchBatch(
      std::vector<metric::VectorObject> queries, double radius);
  Result<std::vector<metric::NeighborList>> CollectRangeSearchBatch(
      PendingQueryBatch* pending);

  /// Pipelined ApproxKnnBatch (`queries.size()` <= kMaxBatchQueries).
  Result<PendingQueryBatch> SubmitApproxKnnBatch(
      std::vector<metric::VectorObject> queries, size_t k,
      size_t cand_size);
  Result<std::vector<metric::NeighborList>> CollectApproxKnnBatch(
      PendingQueryBatch* pending);

  /// Pipelined delete of ONE bulk (`objects.size()` <= kMaxBatchQueries).
  Result<PendingDeleteBatch> SubmitDeleteBatch(
      const std::vector<metric::VectorObject>& objects);
  /// NotFound if some objects were not indexed (the rest are deleted),
  /// like DeleteBatch.
  Status CollectDeleteBatch(PendingDeleteBatch* pending);

  /// Round trip with no server-side work: health check / pure-RTT probe.
  Status Ping();
  Result<uint64_t> SubmitPing();
  Status CollectPing(uint64_t ticket);

  /// Approximate k-NN restricted to the single most promising Voronoi
  /// cell (the paper's Table 9 / Section 5.4 setup): the server returns
  /// that one whole cell as the candidate set.
  Result<metric::NeighborList> ApproxKnnSingleCell(
      const metric::VectorObject& query, size_t k);

  /// Approximate k-NN with early-stopping refinement — the optimization
  /// the paper sketches in Section 5.3: "S_C retrieved from the server is
  /// pre-ranked, therefore the client can choose to decrypt and compute
  /// distances only for candidates with the highest rank". The query is
  /// sent WITH pivot distances so the server pre-ranks candidates by
  /// their pivot-filtering lower bound on d(q, o); the client refines in
  /// rank order and stops decrypting once the next lower bound cannot
  /// beat the current k-th best distance. Returns exactly the same
  /// answer as ApproxKnn over the same candidate set (the stop rule is
  /// sound), with fewer decryptions. Requires precise-strategy inserts
  /// (stored pivot distances).
  Result<metric::NeighborList> ApproxKnnEarlyStop(
      const metric::VectorObject& query, size_t k, size_t cand_size);

  /// Precise k-NN: approximate k-NN determines rho_k, then a precise
  /// range query R(q, rho_k) guarantees the exact answer (Section 4.2).
  Result<metric::NeighborList> PreciseKnn(const metric::VectorObject& query,
                                          size_t k);

  /// Fetches index statistics from the server.
  Result<mindex::IndexStats> GetServerStats();

  /// Scrapes the server's metrics registry (per-opcode latency
  /// histograms, byte counters, cache/compaction/failover telemetry —
  /// see docs/observability.md). Against a ShardedServer the snapshot
  /// is the bucket-correct merge of every shard registry.
  Result<obs::MetricsSnapshot> GetMetrics();

  /// Registers a live change stream scoped to the range query R(query,
  /// radius): the server pushes every insert whose pivot-filtering lower
  /// bound admits it into the radius (a superset of the true matches,
  /// like range search candidates — refine client-side if exactness
  /// matters) and every delete. Requires a pipelined transport with
  /// server push (TCP). Pass a previous event's resume_token to resume
  /// after it — OutOfRange-flavoured "watch lost" when the server's
  /// replay ring no longer covers the token (re-run the query, register
  /// fresh). The returned stream borrows this client and its transport.
  Result<std::unique_ptr<WatchStream>> Watch(
      const metric::VectorObject& query, double radius,
      const std::vector<uint64_t>& resume_token = {});

  /// Unfiltered change stream: every insert and delete.
  Result<std::unique_ptr<WatchStream>> WatchAll(
      const std::vector<uint64_t>& resume_token = {});

  /// True when `status` carries the server's explicit watch-lost signal
  /// (matched by substring: remote error codes do not survive the wire).
  static bool IsWatchLost(const Status& status);

  const ClientCosts& costs() const { return costs_; }
  void ResetCosts() { costs_.Clear(); }
  const SecretKey& key() const { return key_; }

 private:
  /// WatchStream decrypts pushed payloads through DecryptCandidate so
  /// watch decryptions land in the same cost accounting as candidates.
  friend class WatchStream;
  /// CursorStream refines pages through RefineBatch under the same cost
  /// accounting as one-shot searches.
  friend class CursorStream;

  /// Runs `op`, charging its wall time to overhead_nanos less the time
  /// tracked elsewhere (distances, crypto) and the server time its round
  /// trips reported.
  template <typename Op>
  auto Accounted(Op&& op) -> decltype(op());
  /// Client time ClientCosts already attributes (distances, crypto).
  int64_t TrackedNanos() const {
    return costs_.distance_nanos + costs_.decryption_nanos +
           costs_.encryption_nanos;
  }

  /// Computes (and counts) distances from `object` to all pivots, applying
  /// the distribution-hiding transform when enabled.
  std::vector<float> ComputePivotDistances(const metric::VectorObject& object,
                                           bool apply_transform);

  /// The transport as a pipelined transport, or FailedPrecondition.
  Result<net::PipelinedTransport*> PipelinedOrFail() const;

  /// Shared Watch/WatchAll body: submits the registration, waits for the
  /// ack (stashing pushes that outran it), builds the stream.
  Result<std::unique_ptr<WatchStream>> OpenWatch(
      const WatchFilter& filter, const std::vector<uint64_t>& resume_token);

  /// Encodes a kRangeSearchBatch request (pivot distances under cost
  /// accounting; radius already transformed by the caller's contract).
  Result<Bytes> BuildRangeSearchBatchRequest(
      const std::vector<metric::VectorObject>& queries, double radius);
  /// Decodes + refines a kRangeSearchBatch response against `queries`.
  Result<std::vector<metric::NeighborList>> FinishRangeSearchBatch(
      const Bytes& response_bytes,
      const std::vector<metric::VectorObject>& queries, double radius);

  /// The approximate-search signature of `query`: the permutation of its
  /// transformed pivot distances, plus the distances themselves when
  /// `with_distances` (the server then ranks candidates by lower bound).
  mindex::QuerySignature KnnSignature(const metric::VectorObject& query,
                                      bool with_distances);

  /// Encodes a kApproxKnnBatch request.
  Result<Bytes> BuildApproxKnnBatchRequest(
      const std::vector<metric::VectorObject>& queries, size_t k,
      size_t cand_size);
  /// Decodes + refines a kApproxKnnBatch response against `queries`.
  Result<std::vector<metric::NeighborList>> FinishApproxKnnBatch(
      const Bytes& response_bytes,
      const std::vector<metric::VectorObject>& queries, size_t k);

  /// Decrypts one candidate payload under decryption-cost accounting.
  Result<metric::VectorObject> DecryptCandidate(const Bytes& payload);

  /// One true-metric evaluation under distance-cost accounting.
  double MeasuredDistance(const metric::VectorObject& query,
                          const metric::VectorObject& object);

  /// Batch refinement: decrypts each distinct payload of the batch
  /// dictionary ONCE (candidates shared between queries — overlapping or
  /// repeated hot queries — cost one decryption), then evaluates true
  /// distances per query. `results[i]` refines `queries[i]`.
  Result<std::vector<metric::NeighborList>> RefineBatch(
      const BatchCandidateResponse& response,
      const std::vector<metric::VectorObject>& queries);

  SecretKey key_;
  std::shared_ptr<metric::DistanceFunction> metric_;
  net::Transport* transport_;
  ClientCosts costs_;
};

}  // namespace secure
}  // namespace simcloud

#endif  // SIMCLOUD_SECURE_CLIENT_H_
