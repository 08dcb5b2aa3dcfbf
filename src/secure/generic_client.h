// Generic encryption client: the Encrypted M-Index for ANY metric-space
// object type.
//
// Paper Section 4 notes the technique "can be generalized
// straightforwardly to any other member of this class of metric indexes";
// symmetrically, the server side of OUR stack is already object-agnostic
// (it routes by permutations / float distances and stores opaque
// ciphertext), so generalizing the system to new object types requires
// generalizing only the CLIENT. This template does that: instantiate it
// with any object type + metric functor and the same untrusted
// EncryptedMIndexServer serves it unchanged — encrypted gene sequences
// under edit distance, encrypted vectors under Lp, etc.
//
// ObjectTraits contract (see metric::SequenceObject for a model):
//   Object        — default-constructible, movable;
//   object.id()   — metric::ObjectId;
//   object.Serialize(BinaryWriter*) / static Object::Deserialize(reader)
//                 — self-describing binary codec.
// Distance contract: `double operator()(const Object&, const Object&)`,
// a metric (the index's pruning correctness depends on the triangle
// inequality).

#ifndef SIMCLOUD_SECURE_GENERIC_CLIENT_H_
#define SIMCLOUD_SECURE_GENERIC_CLIENT_H_

#include <algorithm>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"
#include "crypto/cipher.h"
#include "metric/neighbor.h"
#include "mindex/permutation.h"
#include "net/transport.h"
#include "secure/protocol.h"

namespace simcloud {
namespace secure {

/// The authorized client of an Encrypted M-Index over an arbitrary object
/// type. Holds the secret (pivot objects + AES key) exactly as
/// EncryptionClient does for vectors.
template <typename Object, typename Distance>
class GenericEncryptionClient {
 public:
  /// `transport` must outlive the client and connect to an
  /// EncryptedMIndexServer whose options.num_pivots == pivots.size().
  GenericEncryptionClient(std::vector<Object> pivots, crypto::Cipher cipher,
                          Distance distance, net::Transport* transport)
      : pivots_(std::move(pivots)),
        cipher_(std::move(cipher)),
        distance_(std::move(distance)),
        transport_(transport) {}

  size_t num_pivots() const { return pivots_.size(); }

  /// Inserts objects in bulks (Algorithm 1, permutation-only strategy is
  /// `precise = false`).
  Status InsertBulk(const std::vector<Object>& objects, bool precise,
                    size_t bulk_size = 1000) {
    if (bulk_size == 0) {
      return Status::InvalidArgument("bulk size must be > 0");
    }
    size_t offset = 0;
    while (offset < objects.size()) {
      const size_t batch = std::min(bulk_size, objects.size() - offset);
      std::vector<InsertItem> items;
      items.reserve(batch);
      for (size_t i = 0; i < batch; ++i) {
        const Object& object = objects[offset + i];
        InsertItem item;
        item.id = object.id();
        std::vector<float> distances = PivotDistances(object);
        if (precise) {
          item.pivot_distances = std::move(distances);
        } else {
          item.permutation = mindex::DistancesToPermutation(distances);
        }
        SIMCLOUD_ASSIGN_OR_RETURN(item.payload, Encrypt(object));
        items.push_back(std::move(item));
      }
      SIMCLOUD_ASSIGN_OR_RETURN(
          Bytes response, transport_->Call(EncodeInsertBatchRequest(items)));
      SIMCLOUD_ASSIGN_OR_RETURN(uint64_t inserted,
                                DecodeInsertResponse(response));
      if (inserted != batch) {
        return Status::Internal("server acknowledged wrong batch size");
      }
      offset += batch;
    }
    return Status::OK();
  }

  /// Precise range query R(q, r): candidates from the server, refined
  /// with true distances client-side (Algorithm 2). Requires precise
  /// inserts. Returns (id, distance) pairs sorted by distance.
  Result<metric::NeighborList> RangeSearch(const Object& query,
                                           double radius) {
    if (radius < 0) {
      return Status::InvalidArgument("radius must be >= 0");
    }
    mindex::RangeQuery item;
    item.pivot_distances = PivotDistances(query);
    item.radius = radius;
    SIMCLOUD_ASSIGN_OR_RETURN(
        metric::NeighborList refined,
        CallAndRefine(query, EncodeRangeSearchBatchRequest({item})));
    metric::NeighborList answer;
    for (const metric::Neighbor& n : refined) {
      if (n.distance <= radius) answer.push_back(n);
    }
    return answer;
  }

  /// Approximate k-NN with a candidate budget (Algorithm 2, approximate
  /// branch; permutation-only request).
  Result<metric::NeighborList> ApproxKnn(const Object& query, size_t k,
                                         size_t cand_size) {
    if (k == 0 || cand_size < k) {
      return Status::InvalidArgument("need k >= 1 and cand_size >= k");
    }
    mindex::KnnQuery item;
    item.signature.permutation =
        mindex::DistancesToPermutation(PivotDistances(query));
    item.cand_size = cand_size;
    SIMCLOUD_ASSIGN_OR_RETURN(
        metric::NeighborList answer,
        CallAndRefine(query, EncodeApproxKnnBatchRequest({item})));
    if (answer.size() > k) answer.resize(k);
    return answer;
  }

 private:
  std::vector<float> PivotDistances(const Object& object) const {
    std::vector<float> distances(pivots_.size());
    for (size_t i = 0; i < pivots_.size(); ++i) {
      distances[i] = static_cast<float>(distance_(object, pivots_[i]));
    }
    return distances;
  }

  Result<Bytes> Encrypt(const Object& object) const {
    BinaryWriter writer;
    object.Serialize(&writer);
    return cipher_.Encrypt(writer.buffer());
  }

  Result<Object> Decrypt(const Bytes& ciphertext) const {
    SIMCLOUD_ASSIGN_OR_RETURN(Bytes plaintext, cipher_.Decrypt(ciphertext));
    BinaryReader reader(plaintext);
    return Object::Deserialize(&reader);
  }

  /// Sends a one-query batch request; returns its candidates decrypted,
  /// with their true distances to `query`, nearest first.
  Result<metric::NeighborList> CallAndRefine(const Object& query,
                                             const Bytes& request) {
    SIMCLOUD_ASSIGN_OR_RETURN(Bytes response, transport_->Call(request));
    SIMCLOUD_ASSIGN_OR_RETURN(BatchCandidateResponse candidates,
                              DecodeBatchCandidateResponse(response));
    if (candidates.query_count() != 1) {
      return Status::Internal("server answered " +
                              std::to_string(candidates.query_count()) +
                              " queries of a batch of one");
    }
    metric::NeighborList answer;
    answer.reserve(candidates.batch.per_query[0].size());
    for (const mindex::BatchCandidateRef& ref :
         candidates.batch.per_query[0]) {
      SIMCLOUD_ASSIGN_OR_RETURN(
          Object object, Decrypt(candidates.batch.payloads[ref.payload_index]));
      answer.push_back({object.id(), distance_(query, object)});
    }
    std::sort(answer.begin(), answer.end());
    return answer;
  }

  std::vector<Object> pivots_;
  crypto::Cipher cipher_;
  Distance distance_;
  net::Transport* transport_;
};

}  // namespace secure
}  // namespace simcloud

#endif  // SIMCLOUD_SECURE_GENERIC_CLIENT_H_
