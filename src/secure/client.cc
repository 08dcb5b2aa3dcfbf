#include "secure/client.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "common/clock.h"
#include "mindex/permutation.h"

namespace simcloud {
namespace secure {

using metric::Neighbor;
using metric::NeighborList;
using metric::VectorObject;

namespace {
/// Truncates a sorted answer to its k nearest and gives back the room
/// the dropped candidates took: the list was sized for every candidate
/// (cand_size is often 10-50x k), and callers keep answers.
void KeepNearest(NeighborList* refined, size_t k) {
  if (refined->size() <= k) return;
  refined->resize(k);
  refined->shrink_to_fit();
}
}  // namespace

std::vector<float> EncryptionClient::ComputePivotDistances(
    const VectorObject& object, bool apply_transform) {
  Stopwatch watch;
  std::vector<float> distances =
      key_.pivots().ComputeDistances(object, *metric_);
  costs_.distance_nanos += watch.ElapsedNanos();
  costs_.distance_computations += key_.num_pivots();

  if (apply_transform && key_.has_transform()) {
    distances = key_.transform().ApplyAll(distances);
  }
  return distances;
}

Status EncryptionClient::Insert(const VectorObject& object,
                                InsertStrategy strategy) {
  return InsertBulk({object}, strategy, 1);
}

template <typename Op>
auto EncryptionClient::Accounted(Op&& op) -> decltype(op()) {
  Stopwatch watch;
  const int64_t tracked_before = TrackedNanos();
  const int64_t server_before = transport_->costs().server_nanos;
  auto result = op();
  const int64_t tracked = TrackedNanos() - tracked_before;
  const int64_t server = transport_->costs().server_nanos - server_before;
  costs_.overhead_nanos +=
      std::max<int64_t>(0, watch.ElapsedNanos() - tracked - server);
  return result;
}

Status EncryptionClient::InsertBulk(const std::vector<VectorObject>& objects,
                                    InsertStrategy strategy,
                                    size_t bulk_size) {
  if (bulk_size == 0) {
    return Status::InvalidArgument("bulk size must be > 0");
  }
  for (size_t offset = 0; offset < objects.size(); offset += bulk_size) {
    const size_t batch = std::min(bulk_size, objects.size() - offset);
    SIMCLOUD_RETURN_NOT_OK(Accounted([&]() -> Status {
      std::vector<InsertItem> items;
      items.reserve(batch);
      for (size_t i = 0; i < batch; ++i) {
        const VectorObject& object = objects[offset + i];
        InsertItem item;
        item.id = object.id();

        // Algorithm 1 lines 1-7: distances, then distances or permutation.
        std::vector<float> distances =
            ComputePivotDistances(object, /*apply_transform=*/true);
        if (strategy == InsertStrategy::kPrecise) {
          item.pivot_distances = std::move(distances);
        } else {
          // A strictly monotone transform preserves the permutation, so
          // the permutation is computed from the (possibly transformed)
          // values.
          item.permutation = mindex::DistancesToPermutation(distances);
        }

        // Algorithm 1 line 8: store encrypted data only.
        Stopwatch enc_watch;
        SIMCLOUD_ASSIGN_OR_RETURN(item.payload, key_.EncryptObject(object));
        costs_.encryption_nanos += enc_watch.ElapsedNanos();
        costs_.objects_encrypted++;

        items.push_back(std::move(item));
      }

      SIMCLOUD_ASSIGN_OR_RETURN(
          Bytes response_bytes,
          transport_->Call(EncodeInsertBatchRequest(items)));
      SIMCLOUD_ASSIGN_OR_RETURN(uint64_t inserted,
                                DecodeInsertResponse(response_bytes));
      if (inserted != batch) {
        return Status::Internal("server acknowledged " +
                                std::to_string(inserted) + " of " +
                                std::to_string(batch) + " inserts");
      }
      return Status::OK();
    }));
  }
  return Status::OK();
}

Status EncryptionClient::Delete(const metric::VectorObject& object) {
  return DeleteBatch({object}, 1);
}

Status EncryptionClient::DeleteBatch(
    const std::vector<VectorObject>& objects, size_t bulk_size) {
  if (bulk_size == 0) {
    return Status::InvalidArgument("bulk size must be > 0");
  }
  bulk_size = std::min<size_t>(bulk_size, kMaxBatchQueries);
  size_t missing = 0;
  size_t offset = 0;
  while (offset < objects.size()) {
    const size_t batch = std::min(bulk_size, objects.size() - offset);
    std::vector<DeleteItem> items;
    items.reserve(batch);
    for (size_t i = 0; i < batch; ++i) {
      // The routing permutation is derived exactly as the insert derived
      // it (both strategies route by the permutation of the transformed
      // distances), so the delete reaches the same cell.
      const VectorObject& object = objects[offset + i];
      std::vector<float> distances =
          ComputePivotDistances(object, /*apply_transform=*/true);
      items.push_back(DeleteItem{object.id(),
                                 mindex::DistancesToPermutation(distances)});
    }
    const Bytes request = EncodeDeleteBatchRequest(items);
    SIMCLOUD_ASSIGN_OR_RETURN(Bytes response, transport_->Call(request));
    SIMCLOUD_ASSIGN_OR_RETURN(uint64_t deleted,
                              DecodeInsertResponse(response));
    if (deleted > batch) {
      return Status::Internal("server acknowledged more deletes than sent");
    }
    missing += batch - deleted;
    offset += batch;
  }
  if (missing > 0) {
    return Status::NotFound(std::to_string(missing) + " of " +
                            std::to_string(objects.size()) +
                            " objects were not indexed");
  }
  return Status::OK();
}

Result<mindex::CompactionReport> EncryptionClient::Compact(bool force) {
  SIMCLOUD_ASSIGN_OR_RETURN(Bytes response,
                            transport_->Call(EncodeCompactRequest(force)));
  return DecodeCompactResponse(response);
}

Result<VectorObject> EncryptionClient::DecryptCandidate(
    const Bytes& payload) {
  Stopwatch watch;
  SIMCLOUD_ASSIGN_OR_RETURN(VectorObject object, key_.DecryptObject(payload));
  costs_.decryption_nanos += watch.ElapsedNanos();
  costs_.candidates_decrypted++;
  return object;
}

double EncryptionClient::MeasuredDistance(const VectorObject& query,
                                          const VectorObject& object) {
  Stopwatch watch;
  const double d = metric_->Distance(query, object);
  costs_.distance_nanos += watch.ElapsedNanos();
  costs_.distance_computations++;
  return d;
}

namespace {

/// The one answer of a batch of one.
Result<NeighborList> OnlyAnswer(Result<std::vector<NeighborList>> answers) {
  SIMCLOUD_RETURN_NOT_OK(answers.status());
  return std::move(answers->front());
}

/// Decodes a batched candidate response that must answer `query_count`
/// queries.
Result<BatchCandidateResponse> DecodeAnswers(const Bytes& response_bytes,
                                             size_t query_count) {
  SIMCLOUD_ASSIGN_OR_RETURN(BatchCandidateResponse response,
                            DecodeBatchCandidateResponse(response_bytes));
  if (response.query_count() != query_count) {
    return Status::Internal("server answered " +
                            std::to_string(response.query_count()) + " of " +
                            std::to_string(query_count) +
                            " batched queries");
  }
  return response;
}

}  // namespace

Result<NeighborList> EncryptionClient::RangeSearch(const VectorObject& query,
                                                   double radius) {
  return OnlyAnswer(RangeSearchBatch({query}, radius));
}

Result<NeighborList> EncryptionClient::ApproxKnn(const VectorObject& query,
                                                 size_t k, size_t cand_size) {
  return OnlyAnswer(ApproxKnnBatch({query}, k, cand_size));
}

Result<NeighborList> EncryptionClient::ApproxKnnSingleCell(
    const VectorObject& query, size_t k) {
  if (k == 0) return Status::InvalidArgument("k must be > 0");
  const std::vector<VectorObject> queries = {query};
  return OnlyAnswer(Accounted([&]() -> Result<std::vector<NeighborList>> {
    // The server returns the one most promising cell whole.
    mindex::KnnQuery item{KnnSignature(query, /*with_distances=*/false), 1};
    item.signature.whole_cells = true;
    SIMCLOUD_ASSIGN_OR_RETURN(
        Bytes response_bytes,
        transport_->Call(EncodeApproxKnnBatchRequest({item})));
    return FinishApproxKnnBatch(response_bytes, queries, k);
  }));
}

mindex::QuerySignature EncryptionClient::KnnSignature(
    const VectorObject& query, bool with_distances) {
  // Algorithm 2 lines 7-10 (approximate branch): permutation only,
  // unless the caller wants the server to rank by lower bound.
  std::vector<float> query_distances =
      ComputePivotDistances(query, /*apply_transform=*/true);
  mindex::QuerySignature signature;
  signature.permutation = mindex::DistancesToPermutation(query_distances);
  if (with_distances) signature.pivot_distances = std::move(query_distances);
  return signature;
}

Result<std::vector<NeighborList>> EncryptionClient::RefineBatch(
    const BatchCandidateResponse& response,
    const std::vector<VectorObject>& queries) {
  // Algorithm 2 lines 11-16: decrypt + refine with the true metric.
  std::vector<std::optional<VectorObject>> decoded(
      response.batch.payloads.size());
  std::vector<NeighborList> results;
  results.reserve(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    NeighborList refined;
    refined.reserve(response.batch.per_query[q].size());
    for (const mindex::BatchCandidateRef& ref : response.batch.per_query[q]) {
      if (!decoded[ref.payload_index].has_value()) {
        SIMCLOUD_ASSIGN_OR_RETURN(
            VectorObject object,
            DecryptCandidate(response.batch.payloads[ref.payload_index]));
        decoded[ref.payload_index] = std::move(object);
      }
      const VectorObject& object = *decoded[ref.payload_index];
      refined.push_back(
          Neighbor{object.id(), MeasuredDistance(queries[q], object)});
    }
    std::sort(refined.begin(), refined.end());
    results.push_back(std::move(refined));
  }
  return results;
}

Result<Bytes> EncryptionClient::BuildRangeSearchBatchRequest(
    const std::vector<VectorObject>& queries, double radius) {
  if (radius < 0) {
    return Status::InvalidArgument("radius must be >= 0");
  }
  if (queries.size() > kMaxBatchQueries) {
    return Status::InvalidArgument(
        "batch exceeds the " + std::to_string(kMaxBatchQueries) +
        "-query protocol limit; split it into smaller batches");
  }
  // Algorithm 2 lines 1-6 (precise branch): distances only, no query
  // object.
  const double sent_radius =
      key_.has_transform() ? key_.transform().Apply(radius) : radius;
  std::vector<mindex::RangeQuery> batch;
  batch.reserve(queries.size());
  for (const VectorObject& query : queries) {
    mindex::RangeQuery item;
    item.pivot_distances =
        ComputePivotDistances(query, /*apply_transform=*/true);
    item.radius = sent_radius;
    batch.push_back(std::move(item));
  }
  return EncodeRangeSearchBatchRequest(batch);
}

Result<std::vector<NeighborList>> EncryptionClient::FinishRangeSearchBatch(
    const Bytes& response_bytes, const std::vector<VectorObject>& queries,
    double radius) {
  SIMCLOUD_ASSIGN_OR_RETURN(BatchCandidateResponse response,
                            DecodeAnswers(response_bytes, queries.size()));
  SIMCLOUD_ASSIGN_OR_RETURN(std::vector<NeighborList> refined_lists,
                            RefineBatch(response, queries));
  std::vector<NeighborList> answers;
  answers.reserve(queries.size());
  for (NeighborList& refined : refined_lists) {
    NeighborList answer;
    for (const Neighbor& n : refined) {
      if (n.distance <= radius) answer.push_back(n);
    }
    answers.push_back(std::move(answer));
  }
  return answers;
}

Result<std::vector<NeighborList>> EncryptionClient::RangeSearchBatch(
    const std::vector<VectorObject>& queries, double radius) {
  return Accounted([&]() -> Result<std::vector<NeighborList>> {
    // Built (and thereby argument-validated) before the empty shortcut
    // so invalid arguments fail even for an empty batch.
    SIMCLOUD_ASSIGN_OR_RETURN(Bytes request,
                              BuildRangeSearchBatchRequest(queries, radius));
    if (queries.empty()) return std::vector<NeighborList>{};
    SIMCLOUD_ASSIGN_OR_RETURN(Bytes response_bytes,
                              transport_->Call(request));
    return FinishRangeSearchBatch(response_bytes, queries, radius);
  });
}

Result<Bytes> EncryptionClient::BuildApproxKnnBatchRequest(
    const std::vector<VectorObject>& queries, size_t k, size_t cand_size) {
  if (k == 0) return Status::InvalidArgument("k must be > 0");
  if (cand_size < k) {
    return Status::InvalidArgument("candidate set size must be >= k");
  }
  if (queries.size() > kMaxBatchQueries) {
    return Status::InvalidArgument(
        "batch exceeds the " + std::to_string(kMaxBatchQueries) +
        "-query protocol limit; split it into smaller batches");
  }
  std::vector<mindex::KnnQuery> batch;
  batch.reserve(queries.size());
  for (const VectorObject& query : queries) {
    batch.push_back(mindex::KnnQuery{
        KnnSignature(query, /*with_distances=*/false), cand_size});
  }
  return EncodeApproxKnnBatchRequest(batch);
}

Result<std::vector<NeighborList>> EncryptionClient::FinishApproxKnnBatch(
    const Bytes& response_bytes, const std::vector<VectorObject>& queries,
    size_t k) {
  SIMCLOUD_ASSIGN_OR_RETURN(BatchCandidateResponse response,
                            DecodeAnswers(response_bytes, queries.size()));
  SIMCLOUD_ASSIGN_OR_RETURN(std::vector<NeighborList> answers,
                            RefineBatch(response, queries));
  for (NeighborList& refined : answers) {
    KeepNearest(&refined, k);
  }
  return answers;
}

Result<std::vector<NeighborList>> EncryptionClient::ApproxKnnBatch(
    const std::vector<VectorObject>& queries, size_t k, size_t cand_size) {
  return Accounted([&]() -> Result<std::vector<NeighborList>> {
    SIMCLOUD_ASSIGN_OR_RETURN(
        Bytes request, BuildApproxKnnBatchRequest(queries, k, cand_size));
    if (queries.empty()) return std::vector<NeighborList>{};
    SIMCLOUD_ASSIGN_OR_RETURN(Bytes response_bytes,
                              transport_->Call(request));
    return FinishApproxKnnBatch(response_bytes, queries, k);
  });
}

Result<net::PipelinedTransport*> EncryptionClient::PipelinedOrFail() const {
  auto* pipelined = dynamic_cast<net::PipelinedTransport*>(transport_);
  if (pipelined == nullptr) {
    return Status::FailedPrecondition(
        "transport does not support pipelining (need TcpTransport or "
        "LoopbackTransport)");
  }
  return pipelined;
}

Result<PendingQueryBatch> EncryptionClient::SubmitRangeSearchBatch(
    std::vector<VectorObject> queries, double radius) {
  SIMCLOUD_ASSIGN_OR_RETURN(net::PipelinedTransport * pipelined,
                            PipelinedOrFail());
  SIMCLOUD_ASSIGN_OR_RETURN(Bytes request,
                            BuildRangeSearchBatchRequest(queries, radius));
  PendingQueryBatch pending;
  SIMCLOUD_ASSIGN_OR_RETURN(pending.ticket, pipelined->Submit(request));
  pending.live = true;
  pending.queries = std::move(queries);
  pending.radius = radius;
  return pending;
}

Result<std::vector<NeighborList>> EncryptionClient::CollectRangeSearchBatch(
    PendingQueryBatch* pending) {
  if (pending == nullptr || !pending->live) {
    return Status::InvalidArgument(
        "batch was never submitted or is already collected");
  }
  pending->live = false;
  SIMCLOUD_ASSIGN_OR_RETURN(net::PipelinedTransport * pipelined,
                            PipelinedOrFail());
  SIMCLOUD_ASSIGN_OR_RETURN(Bytes response_bytes,
                            pipelined->Collect(pending->ticket));
  return FinishRangeSearchBatch(response_bytes, pending->queries,
                                pending->radius);
}

Result<PendingQueryBatch> EncryptionClient::SubmitApproxKnnBatch(
    std::vector<VectorObject> queries, size_t k, size_t cand_size) {
  SIMCLOUD_ASSIGN_OR_RETURN(net::PipelinedTransport * pipelined,
                            PipelinedOrFail());
  SIMCLOUD_ASSIGN_OR_RETURN(
      Bytes request, BuildApproxKnnBatchRequest(queries, k, cand_size));
  PendingQueryBatch pending;
  SIMCLOUD_ASSIGN_OR_RETURN(pending.ticket, pipelined->Submit(request));
  pending.live = true;
  pending.queries = std::move(queries);
  pending.k = k;
  return pending;
}

Result<std::vector<NeighborList>> EncryptionClient::CollectApproxKnnBatch(
    PendingQueryBatch* pending) {
  if (pending == nullptr || !pending->live) {
    return Status::InvalidArgument(
        "batch was never submitted or is already collected");
  }
  pending->live = false;
  SIMCLOUD_ASSIGN_OR_RETURN(net::PipelinedTransport * pipelined,
                            PipelinedOrFail());
  SIMCLOUD_ASSIGN_OR_RETURN(Bytes response_bytes,
                            pipelined->Collect(pending->ticket));
  return FinishApproxKnnBatch(response_bytes, pending->queries, pending->k);
}

Result<PendingDeleteBatch> EncryptionClient::SubmitDeleteBatch(
    const std::vector<VectorObject>& objects) {
  SIMCLOUD_ASSIGN_OR_RETURN(net::PipelinedTransport * pipelined,
                            PipelinedOrFail());
  if (objects.size() > kMaxBatchQueries) {
    return Status::InvalidArgument(
        "batch exceeds the " + std::to_string(kMaxBatchQueries) +
        "-item protocol limit; split it into smaller batches");
  }
  std::vector<DeleteItem> items;
  items.reserve(objects.size());
  for (const VectorObject& object : objects) {
    std::vector<float> distances =
        ComputePivotDistances(object, /*apply_transform=*/true);
    items.push_back(
        DeleteItem{object.id(), mindex::DistancesToPermutation(distances)});
  }
  PendingDeleteBatch pending;
  SIMCLOUD_ASSIGN_OR_RETURN(pending.ticket,
                            pipelined->Submit(EncodeDeleteBatchRequest(items)));
  pending.live = true;
  pending.count = objects.size();
  return pending;
}

Status EncryptionClient::CollectDeleteBatch(PendingDeleteBatch* pending) {
  if (pending == nullptr || !pending->live) {
    return Status::InvalidArgument(
        "batch was never submitted or is already collected");
  }
  pending->live = false;
  SIMCLOUD_ASSIGN_OR_RETURN(net::PipelinedTransport * pipelined,
                            PipelinedOrFail());
  SIMCLOUD_ASSIGN_OR_RETURN(Bytes response,
                            pipelined->Collect(pending->ticket));
  SIMCLOUD_ASSIGN_OR_RETURN(uint64_t deleted, DecodeInsertResponse(response));
  if (deleted > pending->count) {
    return Status::Internal("server acknowledged more deletes than sent");
  }
  if (deleted < pending->count) {
    return Status::NotFound(std::to_string(pending->count - deleted) +
                            " of " + std::to_string(pending->count) +
                            " objects were not indexed");
  }
  return Status::OK();
}

Status EncryptionClient::Ping() {
  SIMCLOUD_ASSIGN_OR_RETURN(Bytes response,
                            transport_->Call(EncodePingRequest()));
  (void)response;  // empty by contract
  return Status::OK();
}

Result<uint64_t> EncryptionClient::SubmitPing() {
  SIMCLOUD_ASSIGN_OR_RETURN(net::PipelinedTransport * pipelined,
                            PipelinedOrFail());
  return pipelined->Submit(EncodePingRequest());
}

Status EncryptionClient::CollectPing(uint64_t ticket) {
  SIMCLOUD_ASSIGN_OR_RETURN(net::PipelinedTransport * pipelined,
                            PipelinedOrFail());
  SIMCLOUD_ASSIGN_OR_RETURN(Bytes response, pipelined->Collect(ticket));
  (void)response;
  return Status::OK();
}

Result<NeighborList> EncryptionClient::ApproxKnnEarlyStop(
    const VectorObject& query, size_t k, size_t cand_size) {
  if (k == 0) return Status::InvalidArgument("k must be > 0");
  if (cand_size < k) {
    return Status::InvalidArgument("candidate set size must be >= k");
  }
  return Accounted([&]() -> Result<NeighborList> {
    // Send the distances, not just the permutation: the server then ranks
    // candidates by their pivot-filtering lower bound on d(q, o) (in the
    // transformed space when a transform is enabled).
    const mindex::KnnQuery item{KnnSignature(query, /*with_distances=*/true),
                                cand_size};
    SIMCLOUD_ASSIGN_OR_RETURN(
        Bytes response_bytes,
        transport_->Call(EncodeApproxKnnBatchRequest({item})));
    SIMCLOUD_ASSIGN_OR_RETURN(BatchCandidateResponse response,
                              DecodeAnswers(response_bytes, 1));

    // Refine in rank order; stop when the next candidate's lower bound
    // already exceeds the k-th best true distance found so far. Scores
    // are lower bounds in the (possibly transformed) space, so the
    // comparison maps the current k-th distance through the transform
    // first.
    NeighborList best;  // kept sorted ascending, size <= k
    for (const mindex::BatchCandidateRef& ref : response.batch.per_query[0]) {
      if (best.size() == k) {
        const double kth = best.back().distance;
        const double kth_in_score_space =
            key_.has_transform() ? key_.transform().Apply(kth) : kth;
        if (ref.score > kth_in_score_space) break;  // sound stop
      }
      SIMCLOUD_ASSIGN_OR_RETURN(
          VectorObject object,
          DecryptCandidate(response.batch.payloads[ref.payload_index]));
      const Neighbor neighbor{object.id(), MeasuredDistance(query, object)};
      auto pos = std::lower_bound(best.begin(), best.end(), neighbor);
      if (best.size() < k) {
        best.insert(pos, neighbor);
      } else if (pos != best.end()) {
        best.insert(pos, neighbor);
        best.pop_back();
      }
    }
    return best;
  });
}

Result<NeighborList> EncryptionClient::PreciseKnn(const VectorObject& query,
                                                  size_t k) {
  if (k == 0) return Status::InvalidArgument("k must be > 0");

  // Phase 1: approximate k-NN to find an upper bound rho_k on the k-th
  // nearest neighbor distance.
  const size_t cand_size = std::max<size_t>(2 * k, 50);
  SIMCLOUD_ASSIGN_OR_RETURN(NeighborList approx,
                            ApproxKnn(query, k, cand_size));
  if (approx.size() < k) {
    // Collection may simply be smaller than k; a full range scan with an
    // infinite radius would be the fallback. Use the largest distance
    // observed, or fall back to a plain range over everything.
    if (approx.empty()) {
      return RangeSearch(query, std::numeric_limits<double>::max() / 4);
    }
  }
  const double rho_k = approx.back().distance;

  // Phase 2: precise range query with radius rho_k covers every true
  // k-nearest neighbor (their distances are <= true rho_k <= this rho_k).
  SIMCLOUD_ASSIGN_OR_RETURN(NeighborList in_range,
                            RangeSearch(query, rho_k));
  KeepNearest(&in_range, k);
  return in_range;
}

Result<mindex::IndexStats> EncryptionClient::GetServerStats() {
  SIMCLOUD_ASSIGN_OR_RETURN(Bytes response,
                            transport_->Call(EncodeGetStatsRequest()));
  return DecodeStatsResponse(response);
}

Result<obs::MetricsSnapshot> EncryptionClient::GetMetrics() {
  SIMCLOUD_ASSIGN_OR_RETURN(Bytes response,
                            transport_->Call(EncodeGetMetricsRequest()));
  return DecodeMetricsResponse(response);
}

namespace {

/// Registration handshake: how long to wait for the server's kAck.
constexpr int kWatchAckTimeoutMs = 5000;

}  // namespace

bool EncryptionClient::IsWatchLost(const Status& status) {
  return status.message().find("watch lost") != std::string::npos;
}

Result<std::unique_ptr<WatchStream>> EncryptionClient::OpenWatch(
    const WatchFilter& filter, const std::vector<uint64_t>& resume_token) {
  SIMCLOUD_ASSIGN_OR_RETURN(net::PipelinedTransport * pipelined,
                            PipelinedOrFail());
  SIMCLOUD_ASSIGN_OR_RETURN(
      uint64_t ticket,
      pipelined->SubmitStream(EncodeWatchRequest(filter, resume_token)));
  // The ack answers the registration, but the delivery thread may win
  // the race and push resumed events onto the id first — stash those for
  // the stream's Next().
  std::deque<WatchFrame> early;
  for (;;) {
    Result<Bytes> frame_bytes =
        pipelined->CollectStream(ticket, kWatchAckTimeoutMs);
    if (!frame_bytes.ok()) {
      pipelined->CloseStream(ticket);
      return frame_bytes.status();
    }
    Result<WatchFrame> frame = DecodeWatchFrame(*frame_bytes);
    if (!frame.ok()) {
      pipelined->CloseStream(ticket);
      return frame.status();
    }
    if (frame->kind == WatchFrame::Kind::kAck) {
      auto stream = std::unique_ptr<WatchStream>(new WatchStream(
          this, pipelined, ticket, frame->watch_id, frame->token));
      stream->early_ = std::move(early);
      return stream;
    }
    early.push_back(std::move(*frame));
  }
}

Result<std::unique_ptr<WatchStream>> EncryptionClient::Watch(
    const VectorObject& query, double radius,
    const std::vector<uint64_t>& resume_token) {
  if (radius < 0) {
    return Status::InvalidArgument("radius must be >= 0");
  }
  // Like RangeSearch, the wire carries only transformed pivot distances
  // and the transformed radius — the query object stays client-side.
  WatchFilter filter;
  filter.kind = WatchFilter::Kind::kRange;
  filter.query_distances = ComputePivotDistances(query,
                                                 /*apply_transform=*/true);
  filter.radius =
      key_.has_transform() ? key_.transform().Apply(radius) : radius;
  return OpenWatch(filter, resume_token);
}

Result<std::unique_ptr<WatchStream>> EncryptionClient::WatchAll(
    const std::vector<uint64_t>& resume_token) {
  return OpenWatch(WatchFilter{}, resume_token);
}

WatchStream::~WatchStream() { transport_->CloseStream(ticket_); }

Result<WatchEvent> WatchStream::ToEvent(const WatchFrame& frame) {
  WatchEvent event;
  event.resume_token = frame.token;
  switch (frame.kind) {
    case WatchFrame::Kind::kInsert: {
      event.kind = WatchEvent::Kind::kInsert;
      event.id = frame.object_id;
      SIMCLOUD_ASSIGN_OR_RETURN(metric::VectorObject object,
                                client_->DecryptCandidate(frame.payload));
      event.object = std::move(object);
      return event;
    }
    case WatchFrame::Kind::kDelete:
      event.kind = WatchEvent::Kind::kDelete;
      event.id = frame.object_id;
      return event;
    case WatchFrame::Kind::kLost:
      event.kind = WatchEvent::Kind::kLost;
      event.message = frame.message;
      return event;
    case WatchFrame::Kind::kAck:
      break;
  }
  return Status::Corruption("unexpected frame kind on a live watch");
}

Result<WatchEvent> WatchStream::Next(int timeout_ms) {
  if (finished_) {
    return Status::FailedPrecondition("watch stream is finished");
  }
  for (;;) {
    WatchFrame frame;
    if (!early_.empty()) {
      frame = std::move(early_.front());
      early_.pop_front();
    } else {
      Result<Bytes> frame_bytes =
          transport_->CollectStream(ticket_, timeout_ms);
      SIMCLOUD_RETURN_NOT_OK(frame_bytes.status());
      Result<WatchFrame> decoded = DecodeWatchFrame(*frame_bytes);
      SIMCLOUD_RETURN_NOT_OK(decoded.status());
      frame = std::move(*decoded);
    }
    if (frame.kind == WatchFrame::Kind::kAck) continue;  // late duplicate
    Result<WatchEvent> event = ToEvent(frame);
    if (event.ok()) {
      token_ = event->resume_token;
      if (event->kind == WatchEvent::Kind::kLost) finished_ = true;
    }
    return event;
  }
}

Status WatchStream::Cancel() {
  if (finished_) return Status::OK();
  finished_ = true;
  Status outcome = Status::OK();
  Result<uint64_t> cancel =
      transport_->Submit(EncodeWatchCancelRequest(watch_id_));
  if (cancel.ok()) {
    outcome = transport_->Collect(*cancel).status();
  } else {
    outcome = cancel.status();
  }
  // Wire FIFO: every push the server enqueued before answering the
  // cancel has been read by now — drain (and drop) them BEFORE closing
  // so no late frame poisons the id. resume_token() stays at the last
  // consumed event; resuming replays the dropped tail (at-least-once).
  for (;;) {
    Result<Bytes> drained = transport_->CollectStream(ticket_, 0);
    if (!drained.ok()) break;
  }
  transport_->CloseStream(ticket_);
  return outcome;
}

Result<std::unique_ptr<CursorStream>> EncryptionClient::OpenRangeCursor(
    const VectorObject& query, double radius, uint64_t page_size) {
  if (radius < 0) {
    return Status::InvalidArgument("radius must be >= 0");
  }
  if (page_size == 0) {
    return Status::InvalidArgument("cursor page size must be > 0");
  }
  SIMCLOUD_ASSIGN_OR_RETURN(net::PipelinedTransport * pipelined,
                            PipelinedOrFail());
  // The first page's decryption + refinement happens in the first
  // Next(); the open accounts only distances and serialization.
  return Accounted([&]() -> Result<std::unique_ptr<CursorStream>> {
    // Same privacy envelope as RangeSearch: distances only, transformed
    // radius, no query object on the wire.
    std::vector<float> query_distances =
        ComputePivotDistances(query, /*apply_transform=*/true);
    const double sent_radius =
        key_.has_transform() ? key_.transform().Apply(radius) : radius;
    SIMCLOUD_ASSIGN_OR_RETURN(
        Bytes response_bytes,
        transport_->Call(EncodeRangeSearchCursorRequest(
            query_distances, sent_radius, page_size, /*start_offset=*/0)));
    SIMCLOUD_ASSIGN_OR_RETURN(CursorPage first,
                              DecodeCursorPage(response_bytes));
    return std::unique_ptr<CursorStream>(new CursorStream(
        this, pipelined, query, radius, std::move(first)));
  });
}

CursorStream::~CursorStream() {
  // Best effort; a dead connection just leaves the cursor to the
  // server's TTL / disconnect reaper.
  Close().ok();
}

Result<NeighborList> CursorStream::Next() {
  if (closed_) {
    return Status::FailedPrecondition("cursor stream is closed");
  }
  if (exhausted()) return NeighborList{};
  return client_->Accounted([&]() -> Result<NeighborList> {
    CursorPage page;
    if (first_pending_) {
      page = std::move(first_page_);
      first_page_ = CursorPage{};
      first_pending_ = false;
    } else {
      SIMCLOUD_ASSIGN_OR_RETURN(
          Bytes response_bytes,
          transport_->Call(EncodeCursorNextRequest(cursor_id_)));
      SIMCLOUD_ASSIGN_OR_RETURN(page, DecodeCursorPage(response_bytes));
      cursor_id_ = page.cursor_id;
    }

    // The page as a batch of one (payloads moved, not copied), refined
    // like any search answer, then filtered to the real matches.
    BatchCandidateResponse batch;
    batch.batch.per_query.resize(1);
    for (mindex::Candidate& candidate : page.candidates) {
      batch.batch.per_query[0].push_back(mindex::BatchCandidateRef{
          candidate.id, candidate.score,
          static_cast<uint32_t>(batch.batch.payloads.size())});
      batch.batch.payloads.push_back(std::move(candidate.payload));
    }
    SIMCLOUD_ASSIGN_OR_RETURN(std::vector<NeighborList> refined,
                              client_->RefineBatch(batch, query_));
    NeighborList answer;
    for (const Neighbor& n : refined[0]) {
      if (n.distance <= radius_) answer.push_back(n);
    }
    return answer;
  });
}

Status CursorStream::Close() {
  if (closed_) return Status::OK();
  closed_ = true;
  if (cursor_id_ == 0) return Status::OK();  // server already dropped it
  const uint64_t id = cursor_id_;
  cursor_id_ = 0;
  return transport_->Call(EncodeCursorCloseRequest(id)).status();
}

}  // namespace secure
}  // namespace simcloud
