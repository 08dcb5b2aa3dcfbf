#include "secure/protocol.h"

namespace simcloud {
namespace secure {

namespace {

void WriteSearchStats(BinaryWriter* writer, const mindex::SearchStats& stats) {
  writer->WriteVarint(stats.cells_visited);
  writer->WriteVarint(stats.cells_pruned);
  writer->WriteVarint(stats.entries_scanned);
  writer->WriteVarint(stats.entries_filtered);
  writer->WriteVarint(stats.candidates);
}

Result<mindex::SearchStats> ReadSearchStats(BinaryReader* reader) {
  mindex::SearchStats stats;
  SIMCLOUD_ASSIGN_OR_RETURN(stats.cells_visited, reader->ReadVarint());
  SIMCLOUD_ASSIGN_OR_RETURN(stats.cells_pruned, reader->ReadVarint());
  SIMCLOUD_ASSIGN_OR_RETURN(stats.entries_scanned, reader->ReadVarint());
  SIMCLOUD_ASSIGN_OR_RETURN(stats.entries_filtered, reader->ReadVarint());
  SIMCLOUD_ASSIGN_OR_RETURN(stats.candidates, reader->ReadVarint());
  return stats;
}

/// One cursor page's candidate block: stats, then the ranked candidates.
void WriteCandidateBlock(BinaryWriter* writer,
                         const mindex::CandidateList& candidates,
                         const mindex::SearchStats& stats) {
  WriteSearchStats(writer, stats);
  writer->WriteVarint(candidates.size());
  for (const auto& candidate : candidates) {
    writer->WriteVarint(candidate.id);
    writer->WriteDouble(candidate.score);
    writer->WriteBytes(candidate.payload);
  }
}

Result<CandidateResponse> ReadCandidateBlock(BinaryReader* reader) {
  CandidateResponse response;
  SIMCLOUD_ASSIGN_OR_RETURN(response.stats, ReadSearchStats(reader));
  SIMCLOUD_ASSIGN_OR_RETURN(uint64_t count, reader->ReadVarint());
  response.candidates.reserve(reader->BoundedCount(count));
  for (uint64_t i = 0; i < count; ++i) {
    mindex::Candidate candidate;
    SIMCLOUD_ASSIGN_OR_RETURN(candidate.id, reader->ReadVarint());
    SIMCLOUD_ASSIGN_OR_RETURN(candidate.score, reader->ReadDouble());
    SIMCLOUD_ASSIGN_OR_RETURN(candidate.payload, reader->ReadBytes());
    response.candidates.push_back(std::move(candidate));
  }
  return response;
}

void WriteQuerySignature(BinaryWriter* writer,
                         const mindex::QuerySignature& query) {
  writer->WriteFloatVector(query.pivot_distances);
  writer->WriteU32Vector(query.permutation);
  writer->WriteBool(query.whole_cells);
}

Result<mindex::QuerySignature> ReadQuerySignature(BinaryReader* reader) {
  mindex::QuerySignature query;
  SIMCLOUD_ASSIGN_OR_RETURN(query.pivot_distances, reader->ReadFloatVector());
  SIMCLOUD_ASSIGN_OR_RETURN(query.permutation, reader->ReadU32Vector());
  SIMCLOUD_ASSIGN_OR_RETURN(query.whole_cells, reader->ReadBool());
  return query;
}

}  // namespace

Bytes EncodeInsertBatchRequest(const std::vector<InsertItem>& items) {
  BinaryWriter writer;
  writer.WriteU8(static_cast<uint8_t>(Op::kInsertBatch));
  writer.WriteVarint(items.size());
  for (const auto& item : items) {
    writer.WriteVarint(item.id);
    writer.WriteFloatVector(item.pivot_distances);
    writer.WriteU32Vector(item.permutation);
    writer.WriteBytes(item.payload);
  }
  return writer.TakeBuffer();
}

Bytes EncodeRangeSearchBatchRequest(
    const std::vector<mindex::RangeQuery>& queries) {
  BinaryWriter writer;
  writer.WriteU8(static_cast<uint8_t>(Op::kRangeSearchBatch));
  writer.WriteVarint(queries.size());
  for (const auto& query : queries) {
    writer.WriteFloatVector(query.pivot_distances);
    writer.WriteDouble(query.radius);
  }
  return writer.TakeBuffer();
}

Bytes EncodeApproxKnnBatchRequest(
    const std::vector<mindex::KnnQuery>& queries) {
  BinaryWriter writer;
  writer.WriteU8(static_cast<uint8_t>(Op::kApproxKnnBatch));
  writer.WriteVarint(queries.size());
  for (const auto& query : queries) {
    WriteQuerySignature(&writer, query.signature);
    writer.WriteVarint(query.cand_size);
  }
  return writer.TakeBuffer();
}

Bytes EncodeGetStatsRequest() {
  BinaryWriter writer;
  writer.WriteU8(static_cast<uint8_t>(Op::kGetStats));
  return writer.TakeBuffer();
}

Bytes EncodeDeleteBatchRequest(const std::vector<DeleteItem>& items) {
  BinaryWriter writer;
  writer.WriteU8(static_cast<uint8_t>(Op::kDeleteBatch));
  writer.WriteVarint(items.size());
  for (const DeleteItem& item : items) {
    writer.WriteVarint(item.id);
    writer.WriteU32Vector(item.permutation);
  }
  return writer.TakeBuffer();
}

Bytes EncodeCompactRequest(bool force) {
  BinaryWriter writer;
  writer.WriteU8(static_cast<uint8_t>(Op::kCompact));
  writer.WriteBool(force);
  return writer.TakeBuffer();
}

Bytes EncodePingRequest() {
  BinaryWriter writer;
  writer.WriteU8(static_cast<uint8_t>(Op::kPing));
  return writer.TakeBuffer();
}

Bytes EncodeWatchRequest(const WatchFilter& filter,
                         const std::vector<uint64_t>& resume_token) {
  BinaryWriter writer;
  writer.WriteU8(static_cast<uint8_t>(Op::kWatch));
  writer.WriteU8(static_cast<uint8_t>(filter.kind));
  if (filter.kind == WatchFilter::Kind::kRange) {
    writer.WriteFloatVector(filter.query_distances);
    writer.WriteDouble(filter.radius);
  }
  writer.WriteVarint(resume_token.size());
  for (uint64_t seq : resume_token) writer.WriteVarint(seq);
  return writer.TakeBuffer();
}

Bytes EncodeWatchCancelRequest(uint64_t watch_id) {
  BinaryWriter writer;
  writer.WriteU8(static_cast<uint8_t>(Op::kWatchCancel));
  writer.WriteVarint(watch_id);
  return writer.TakeBuffer();
}

Bytes EncodeWatchFrame(const WatchFrame& frame) {
  BinaryWriter writer;
  writer.Reserve(frame.payload.size() + frame.message.size() +
                 16 * frame.token.size() + 32);
  writer.WriteU8(static_cast<uint8_t>(frame.kind));
  writer.WriteVarint(frame.token.size());
  for (uint64_t seq : frame.token) writer.WriteVarint(seq);
  switch (frame.kind) {
    case WatchFrame::Kind::kAck:
      writer.WriteVarint(frame.watch_id);
      break;
    case WatchFrame::Kind::kInsert:
      writer.WriteVarint(frame.object_id);
      writer.WriteBytes(frame.payload);
      break;
    case WatchFrame::Kind::kDelete:
      writer.WriteVarint(frame.object_id);
      break;
    case WatchFrame::Kind::kLost:
      writer.WriteString(frame.message);
      break;
  }
  return writer.TakeBuffer();
}

Result<WatchFrame> DecodeWatchFrame(const Bytes& data) {
  BinaryReader reader(data);
  WatchFrame frame;
  SIMCLOUD_ASSIGN_OR_RETURN(uint8_t kind_byte, reader.ReadU8());
  if (kind_byte > static_cast<uint8_t>(WatchFrame::Kind::kLost)) {
    return Status::Corruption("unknown watch frame kind " +
                              std::to_string(kind_byte));
  }
  frame.kind = static_cast<WatchFrame::Kind>(kind_byte);
  SIMCLOUD_ASSIGN_OR_RETURN(uint64_t token_size, reader.ReadVarint());
  frame.token.reserve(reader.BoundedCount(token_size));
  for (uint64_t i = 0; i < token_size; ++i) {
    SIMCLOUD_ASSIGN_OR_RETURN(uint64_t seq, reader.ReadVarint());
    frame.token.push_back(seq);
  }
  switch (frame.kind) {
    case WatchFrame::Kind::kAck: {
      SIMCLOUD_ASSIGN_OR_RETURN(frame.watch_id, reader.ReadVarint());
      break;
    }
    case WatchFrame::Kind::kInsert: {
      SIMCLOUD_ASSIGN_OR_RETURN(frame.object_id, reader.ReadVarint());
      SIMCLOUD_ASSIGN_OR_RETURN(frame.payload, reader.ReadBytes());
      break;
    }
    case WatchFrame::Kind::kDelete: {
      SIMCLOUD_ASSIGN_OR_RETURN(frame.object_id, reader.ReadVarint());
      break;
    }
    case WatchFrame::Kind::kLost: {
      SIMCLOUD_ASSIGN_OR_RETURN(frame.message, reader.ReadString());
      break;
    }
  }
  return frame;
}

Bytes EncodeRangeSearchCursorRequest(
    const std::vector<float>& query_distances, double radius,
    uint64_t page_size, uint64_t start_offset) {
  BinaryWriter writer;
  writer.WriteU8(static_cast<uint8_t>(Op::kRangeSearchCursor));
  writer.WriteFloatVector(query_distances);
  writer.WriteDouble(radius);
  writer.WriteVarint(page_size);
  writer.WriteVarint(start_offset);
  return writer.TakeBuffer();
}

Bytes EncodeCursorNextRequest(uint64_t cursor_id) {
  BinaryWriter writer;
  writer.WriteU8(static_cast<uint8_t>(Op::kCursorNext));
  writer.WriteVarint(cursor_id);
  return writer.TakeBuffer();
}

Bytes EncodeCursorCloseRequest(uint64_t cursor_id) {
  BinaryWriter writer;
  writer.WriteU8(static_cast<uint8_t>(Op::kCursorClose));
  writer.WriteVarint(cursor_id);
  return writer.TakeBuffer();
}

Bytes EncodeCursorPage(const CursorPage& page) {
  BinaryWriter writer;
  size_t payload_bytes = 0;
  for (const auto& candidate : page.candidates) {
    payload_bytes += candidate.payload.size() + 24;
  }
  writer.Reserve(payload_bytes + 80);
  writer.WriteVarint(page.cursor_id);
  writer.WriteVarint(page.total);
  WriteCandidateBlock(&writer, page.candidates, page.stats);
  return writer.TakeBuffer();
}

Result<CursorPage> DecodeCursorPage(const Bytes& data) {
  BinaryReader reader(data);
  CursorPage page;
  SIMCLOUD_ASSIGN_OR_RETURN(page.cursor_id, reader.ReadVarint());
  SIMCLOUD_ASSIGN_OR_RETURN(page.total, reader.ReadVarint());
  SIMCLOUD_ASSIGN_OR_RETURN(CandidateResponse block,
                            ReadCandidateBlock(&reader));
  page.stats = block.stats;
  page.candidates = std::move(block.candidates);
  return page;
}

Result<Request> DecodeRequest(const Bytes& data) {
  BinaryReader reader(data);
  SIMCLOUD_ASSIGN_OR_RETURN(uint8_t op_byte, reader.ReadU8());
  Request request;
  request.op = static_cast<Op>(op_byte);
  switch (request.op) {
    case Op::kInsertBatch: {
      SIMCLOUD_ASSIGN_OR_RETURN(uint64_t count, reader.ReadVarint());
      request.insert_items.reserve(reader.BoundedCount(count));
      for (uint64_t i = 0; i < count; ++i) {
        InsertItem item;
        SIMCLOUD_ASSIGN_OR_RETURN(item.id, reader.ReadVarint());
        SIMCLOUD_ASSIGN_OR_RETURN(item.pivot_distances,
                                  reader.ReadFloatVector());
        SIMCLOUD_ASSIGN_OR_RETURN(item.permutation, reader.ReadU32Vector());
        SIMCLOUD_ASSIGN_OR_RETURN(item.payload, reader.ReadBytes());
        request.insert_items.push_back(std::move(item));
      }
      return request;
    }
    case Op::kGetStats:
      return request;
    case Op::kRangeSearchBatch: {
      SIMCLOUD_ASSIGN_OR_RETURN(uint64_t count, reader.ReadVarint());
      if (count > kMaxBatchQueries) {
        return Status::InvalidArgument(
            "batch of " + std::to_string(count) + " queries exceeds the " +
            std::to_string(kMaxBatchQueries) + "-query limit");
      }
      request.range_queries.reserve(reader.BoundedCount(count));
      for (uint64_t i = 0; i < count; ++i) {
        mindex::RangeQuery query;
        SIMCLOUD_ASSIGN_OR_RETURN(query.pivot_distances,
                                  reader.ReadFloatVector());
        SIMCLOUD_ASSIGN_OR_RETURN(query.radius, reader.ReadDouble());
        request.range_queries.push_back(std::move(query));
      }
      return request;
    }
    case Op::kApproxKnnBatch: {
      SIMCLOUD_ASSIGN_OR_RETURN(uint64_t count, reader.ReadVarint());
      if (count > kMaxBatchQueries) {
        return Status::InvalidArgument(
            "batch of " + std::to_string(count) + " queries exceeds the " +
            std::to_string(kMaxBatchQueries) + "-query limit");
      }
      request.knn_queries.reserve(reader.BoundedCount(count));
      for (uint64_t i = 0; i < count; ++i) {
        mindex::KnnQuery query;
        SIMCLOUD_ASSIGN_OR_RETURN(query.signature,
                                  ReadQuerySignature(&reader));
        SIMCLOUD_ASSIGN_OR_RETURN(query.cand_size, reader.ReadVarint());
        request.knn_queries.push_back(std::move(query));
      }
      return request;
    }
    case Op::kDeleteBatch: {
      SIMCLOUD_ASSIGN_OR_RETURN(uint64_t count, reader.ReadVarint());
      if (count > kMaxBatchQueries) {
        return Status::InvalidArgument(
            "batch of " + std::to_string(count) + " deletes exceeds the " +
            std::to_string(kMaxBatchQueries) + "-item limit");
      }
      request.delete_items.reserve(reader.BoundedCount(count));
      for (uint64_t i = 0; i < count; ++i) {
        DeleteItem item;
        SIMCLOUD_ASSIGN_OR_RETURN(item.id, reader.ReadVarint());
        SIMCLOUD_ASSIGN_OR_RETURN(item.permutation, reader.ReadU32Vector());
        request.delete_items.push_back(std::move(item));
      }
      return request;
    }
    case Op::kCompact: {
      SIMCLOUD_ASSIGN_OR_RETURN(request.compact_force, reader.ReadBool());
      return request;
    }
    case Op::kPing:
      return request;
    case Op::kWatch: {
      SIMCLOUD_ASSIGN_OR_RETURN(uint8_t filter_kind, reader.ReadU8());
      if (filter_kind > static_cast<uint8_t>(WatchFilter::Kind::kRange)) {
        return Status::InvalidArgument("unknown watch filter kind " +
                                       std::to_string(filter_kind));
      }
      request.watch_filter.kind = static_cast<WatchFilter::Kind>(filter_kind);
      if (request.watch_filter.kind == WatchFilter::Kind::kRange) {
        SIMCLOUD_ASSIGN_OR_RETURN(request.watch_filter.query_distances,
                                  reader.ReadFloatVector());
        SIMCLOUD_ASSIGN_OR_RETURN(request.watch_filter.radius,
                                  reader.ReadDouble());
      }
      SIMCLOUD_ASSIGN_OR_RETURN(uint64_t token_size, reader.ReadVarint());
      if (token_size > kMaxBatchQueries) {
        return Status::InvalidArgument(
            "watch resume token of " + std::to_string(token_size) +
            " shards exceeds the " + std::to_string(kMaxBatchQueries) +
            "-entry limit");
      }
      request.watch_resume_token.reserve(reader.BoundedCount(token_size));
      for (uint64_t i = 0; i < token_size; ++i) {
        SIMCLOUD_ASSIGN_OR_RETURN(uint64_t seq, reader.ReadVarint());
        request.watch_resume_token.push_back(seq);
      }
      return request;
    }
    case Op::kWatchCancel: {
      SIMCLOUD_ASSIGN_OR_RETURN(request.watch_cancel_id, reader.ReadVarint());
      return request;
    }
    case Op::kRangeSearchCursor: {
      SIMCLOUD_ASSIGN_OR_RETURN(request.query_distances,
                                reader.ReadFloatVector());
      SIMCLOUD_ASSIGN_OR_RETURN(request.radius, reader.ReadDouble());
      SIMCLOUD_ASSIGN_OR_RETURN(request.cursor_page_size, reader.ReadVarint());
      SIMCLOUD_ASSIGN_OR_RETURN(request.cursor_start_offset,
                                reader.ReadVarint());
      return request;
    }
    case Op::kCursorNext:
    case Op::kCursorClose: {
      SIMCLOUD_ASSIGN_OR_RETURN(request.cursor_id, reader.ReadVarint());
      return request;
    }
    case Op::kGetMetrics:
      // Strictly empty-bodied: a torn or garbage frame that happens to
      // start with opcode 16 must never read as a valid scrape.
      if (!reader.AtEnd()) {
        return Status::InvalidArgument(
            "kGetMetrics request carries unexpected body bytes");
      }
      return request;
  }
  return Status::Corruption("unknown opcode " + std::to_string(op_byte));
}

Bytes WriteBatchCandidateResponse(
    const std::vector<ByteView>& payloads,
    const std::vector<std::vector<mindex::BatchCandidateRef>>& per_query,
    const std::vector<mindex::SearchStats>& stats) {
  BinaryWriter writer;
  size_t payload_bytes = 0;
  for (const ByteView& payload : payloads) payload_bytes += payload.size + 8;
  size_t ref_count = 0;
  for (const auto& refs : per_query) ref_count += refs.size();
  writer.Reserve(payload_bytes + 24 * ref_count + 64 * per_query.size() +
                 32);

  writer.WriteVarint(payloads.size());
  for (const ByteView& payload : payloads) writer.WriteBytes(payload);
  writer.WriteVarint(per_query.size());
  for (size_t q = 0; q < per_query.size(); ++q) {
    WriteSearchStats(&writer, stats[q]);
    writer.WriteVarint(per_query[q].size());
    for (const mindex::BatchCandidateRef& ref : per_query[q]) {
      writer.WriteVarint(ref.id);
      writer.WriteDouble(ref.score);
      writer.WriteVarint(ref.payload_index);
    }
  }
  return writer.TakeBuffer();
}

Bytes EncodeBatchCandidateResponse(
    const mindex::BatchCandidates& batch,
    const std::vector<mindex::SearchStats>& stats) {
  std::vector<ByteView> payloads;
  payloads.reserve(batch.payloads.size());
  for (const Bytes& payload : batch.payloads) {
    payloads.push_back(ByteView{payload.data(), payload.size()});
  }
  return WriteBatchCandidateResponse(payloads, batch.per_query, stats);
}

Result<BatchCandidateView> ParseBatchCandidateResponse(const Bytes& data) {
  BinaryReader reader(data);
  BatchCandidateView view;
  SIMCLOUD_ASSIGN_OR_RETURN(uint64_t payload_count, reader.ReadVarint());
  view.payloads.reserve(reader.BoundedCount(payload_count));
  for (uint64_t i = 0; i < payload_count; ++i) {
    SIMCLOUD_ASSIGN_OR_RETURN(ByteView payload, reader.ReadBytesView());
    view.payloads.push_back(payload);
  }
  SIMCLOUD_ASSIGN_OR_RETURN(uint64_t query_count, reader.ReadVarint());
  view.per_query.reserve(reader.BoundedCount(query_count));
  view.stats.reserve(reader.BoundedCount(query_count));
  for (uint64_t q = 0; q < query_count; ++q) {
    SIMCLOUD_ASSIGN_OR_RETURN(mindex::SearchStats stats,
                              ReadSearchStats(&reader));
    view.stats.push_back(stats);
    SIMCLOUD_ASSIGN_OR_RETURN(uint64_t count, reader.ReadVarint());
    std::vector<mindex::BatchCandidateRef> refs;
    refs.reserve(reader.BoundedCount(count));
    for (uint64_t i = 0; i < count; ++i) {
      mindex::BatchCandidateRef ref;
      SIMCLOUD_ASSIGN_OR_RETURN(ref.id, reader.ReadVarint());
      SIMCLOUD_ASSIGN_OR_RETURN(ref.score, reader.ReadDouble());
      SIMCLOUD_ASSIGN_OR_RETURN(uint64_t index, reader.ReadVarint());
      if (index >= view.payloads.size()) {
        return Status::Corruption("batch candidate payload index " +
                                  std::to_string(index) + " out of range");
      }
      ref.payload_index = static_cast<uint32_t>(index);
      refs.push_back(ref);
    }
    view.per_query.push_back(std::move(refs));
  }
  return view;
}

Result<BatchCandidateResponse> DecodeBatchCandidateResponse(
    const Bytes& data) {
  SIMCLOUD_ASSIGN_OR_RETURN(BatchCandidateView view,
                            ParseBatchCandidateResponse(data));
  BatchCandidateResponse response;
  response.batch.payloads.reserve(view.payloads.size());
  for (const ByteView& payload : view.payloads) {
    response.batch.payloads.emplace_back(payload.data,
                                         payload.data + payload.size);
  }
  response.batch.per_query = std::move(view.per_query);
  response.stats = std::move(view.stats);
  return response;
}

Bytes EncodeInsertResponse(uint64_t inserted) {
  BinaryWriter writer;
  writer.WriteVarint(inserted);
  return writer.TakeBuffer();
}

Result<uint64_t> DecodeInsertResponse(const Bytes& data) {
  BinaryReader reader(data);
  return reader.ReadVarint();
}

Bytes EncodeStatsResponse(const mindex::IndexStats& stats) {
  BinaryWriter writer;
  writer.WriteVarint(stats.object_count);
  writer.WriteVarint(stats.leaf_count);
  writer.WriteVarint(stats.inner_count);
  writer.WriteVarint(stats.max_depth);
  writer.WriteVarint(stats.storage_bytes);
  writer.WriteVarint(stats.live_storage_bytes);
  writer.WriteVarint(stats.dead_storage_bytes);
  // Compaction telemetry block, appended with this protocol revision;
  // the decoder treats it as optional so pre-revision responses decode.
  writer.WriteVarint(stats.compaction_passes);
  writer.WriteVarint(stats.compaction_active);
  writer.WriteVarint(stats.compaction_progress_payloads);
  writer.WriteVarint(stats.compaction_last_pause_nanos);
  writer.WriteVarint(stats.compaction_max_pause_nanos);
  // Topology health block, appended with the failover revision; also
  // optional on decode.
  writer.WriteVarint(stats.shards_total);
  writer.WriteVarint(stats.shards_up);
  writer.WriteVarint(stats.shards_degraded);
  writer.WriteVarint(stats.shards_down);
  // Appended with the change-stream revision (optional on decode): a
  // replay-overflowed replica previously hid inside shards_down/degraded
  // with no distinct wire signal.
  writer.WriteVarint(stats.shards_stale);
  // Appended with the server-side cursor revision (optional on decode):
  // open/lifetime cursor counters.
  writer.WriteVarint(stats.cursors_open);
  writer.WriteVarint(stats.cursors_opened_total);
  writer.WriteVarint(stats.cursors_expired_total);
  writer.WriteVarint(stats.cursors_reaped_total);
  return writer.TakeBuffer();
}

Result<mindex::IndexStats> DecodeStatsResponse(const Bytes& data) {
  BinaryReader reader(data);
  mindex::IndexStats stats;
  SIMCLOUD_ASSIGN_OR_RETURN(stats.object_count, reader.ReadVarint());
  SIMCLOUD_ASSIGN_OR_RETURN(stats.leaf_count, reader.ReadVarint());
  SIMCLOUD_ASSIGN_OR_RETURN(stats.inner_count, reader.ReadVarint());
  SIMCLOUD_ASSIGN_OR_RETURN(stats.max_depth, reader.ReadVarint());
  SIMCLOUD_ASSIGN_OR_RETURN(stats.storage_bytes, reader.ReadVarint());
  SIMCLOUD_ASSIGN_OR_RETURN(stats.live_storage_bytes, reader.ReadVarint());
  SIMCLOUD_ASSIGN_OR_RETURN(stats.dead_storage_bytes, reader.ReadVarint());
  if (!reader.AtEnd()) {
    SIMCLOUD_ASSIGN_OR_RETURN(stats.compaction_passes, reader.ReadVarint());
    SIMCLOUD_ASSIGN_OR_RETURN(stats.compaction_active, reader.ReadVarint());
    SIMCLOUD_ASSIGN_OR_RETURN(stats.compaction_progress_payloads,
                              reader.ReadVarint());
    SIMCLOUD_ASSIGN_OR_RETURN(stats.compaction_last_pause_nanos,
                              reader.ReadVarint());
    SIMCLOUD_ASSIGN_OR_RETURN(stats.compaction_max_pause_nanos,
                              reader.ReadVarint());
  }
  if (!reader.AtEnd()) {
    SIMCLOUD_ASSIGN_OR_RETURN(stats.shards_total, reader.ReadVarint());
    SIMCLOUD_ASSIGN_OR_RETURN(stats.shards_up, reader.ReadVarint());
    SIMCLOUD_ASSIGN_OR_RETURN(stats.shards_degraded, reader.ReadVarint());
    SIMCLOUD_ASSIGN_OR_RETURN(stats.shards_down, reader.ReadVarint());
  }
  if (!reader.AtEnd()) {
    SIMCLOUD_ASSIGN_OR_RETURN(stats.shards_stale, reader.ReadVarint());
  }
  if (!reader.AtEnd()) {
    SIMCLOUD_ASSIGN_OR_RETURN(stats.cursors_open, reader.ReadVarint());
    SIMCLOUD_ASSIGN_OR_RETURN(stats.cursors_opened_total, reader.ReadVarint());
    SIMCLOUD_ASSIGN_OR_RETURN(stats.cursors_expired_total,
                              reader.ReadVarint());
    SIMCLOUD_ASSIGN_OR_RETURN(stats.cursors_reaped_total, reader.ReadVarint());
  }
  return stats;
}

Bytes EncodeCompactResponse(const mindex::CompactionReport& report) {
  BinaryWriter writer;
  writer.WriteBool(report.compacted);
  writer.WriteVarint(report.bytes_before);
  writer.WriteVarint(report.bytes_after);
  writer.WriteVarint(report.payloads_moved);
  writer.WriteVarint(report.reclaimed_bytes);
  // Appended with this protocol revision (optional on decode): the
  // writer-lock pause the pass cost, segments released in place, and
  // which pass mode ran.
  writer.WriteVarint(report.pause_nanos);
  writer.WriteVarint(report.segments_released);
  writer.WriteU8(static_cast<uint8_t>(report.mode));
  return writer.TakeBuffer();
}

Result<mindex::CompactionReport> DecodeCompactResponse(const Bytes& data) {
  BinaryReader reader(data);
  mindex::CompactionReport report;
  SIMCLOUD_ASSIGN_OR_RETURN(report.compacted, reader.ReadBool());
  SIMCLOUD_ASSIGN_OR_RETURN(report.bytes_before, reader.ReadVarint());
  SIMCLOUD_ASSIGN_OR_RETURN(report.bytes_after, reader.ReadVarint());
  SIMCLOUD_ASSIGN_OR_RETURN(report.payloads_moved, reader.ReadVarint());
  SIMCLOUD_ASSIGN_OR_RETURN(report.reclaimed_bytes, reader.ReadVarint());
  if (!reader.AtEnd()) {
    SIMCLOUD_ASSIGN_OR_RETURN(report.pause_nanos, reader.ReadVarint());
    SIMCLOUD_ASSIGN_OR_RETURN(report.segments_released, reader.ReadVarint());
    SIMCLOUD_ASSIGN_OR_RETURN(uint8_t mode, reader.ReadU8());
    report.mode = mode == 1 ? mindex::CompactionMode::kPartial
                            : mindex::CompactionMode::kFull;
  }
  return report;
}

Bytes EncodeGetMetricsRequest() {
  BinaryWriter writer;
  writer.WriteU8(static_cast<uint8_t>(Op::kGetMetrics));
  return writer.TakeBuffer();
}

Bytes EncodeMetricsResponse(const obs::MetricsSnapshot& snapshot) {
  // The snapshot codec IS the response body: it is already append-only
  // (obs/metrics.h), so the protocol layer adds nothing to strip.
  return obs::EncodeMetricsSnapshot(snapshot);
}

Result<obs::MetricsSnapshot> DecodeMetricsResponse(const Bytes& data) {
  return obs::DecodeMetricsSnapshot(data);
}

}  // namespace secure
}  // namespace simcloud
