#include "common/wire.h"

#include <algorithm>

#include "common/logging.h"

namespace benu::wire {
namespace {

void AppendU16(uint16_t v, std::vector<uint8_t>* out) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
}

void AppendU32(uint32_t v, std::vector<uint8_t>* out) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
  out->push_back(static_cast<uint8_t>(v >> 16));
  out->push_back(static_cast<uint8_t>(v >> 24));
}

void AppendU64(uint64_t v, std::vector<uint8_t>* out) {
  AppendU32(static_cast<uint32_t>(v), out);
  AppendU32(static_cast<uint32_t>(v >> 32), out);
}

uint16_t ReadU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0]) | static_cast<uint16_t>(p[1]) << 8;
}

uint32_t ReadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 |
         static_cast<uint32_t>(p[3]) << 24;
}

uint64_t ReadU64(const uint8_t* p) {
  return static_cast<uint64_t>(ReadU32(p)) |
         static_cast<uint64_t>(ReadU32(p + 4)) << 32;
}

Status WrongType(const char* expected, const Frame& frame) {
  if (frame.header.type == MessageType::kError) return DecodeError(frame);
  return Status::InvalidArgument(
      std::string("expected ") + expected + " frame, got type " +
      std::to_string(static_cast<int>(frame.header.type)));
}

}  // namespace

void AppendHeader(MessageType type, uint32_t aux, uint32_t payload_bytes,
                  std::vector<uint8_t>* out) {
  // Grow geometrically: servers append many frames to one buffer, and
  // an exact reserve per frame would copy it on every append.
  const size_t needed = out->size() + kHeaderBytes + payload_bytes;
  if (needed > out->capacity()) {
    out->reserve(std::max(needed, 2 * out->capacity()));
  }
  AppendU32(kMagic, out);
  out->push_back(kVersion);
  out->push_back(static_cast<uint8_t>(type));
  AppendU16(0, out);  // flags
  AppendU32(aux, out);
  AppendU32(payload_bytes, out);
}

void AppendHelloRequest(std::vector<uint8_t>* out) {
  AppendHeader(MessageType::kHelloRequest, 0, 0, out);
}

void AppendHelloReply(const HelloInfo& info, std::vector<uint8_t>* out) {
  AppendHeader(MessageType::kHelloReply, 0, 40, out);
  AppendU32(info.num_vertices, out);
  AppendU32(info.num_partitions, out);
  AppendU32(info.num_servers, out);
  AppendU32(info.server_index, out);
  AppendU32(info.replica_index, out);
  AppendU32(info.num_replicas, out);
  AppendU32(info.flags, out);
  AppendU32(info.graph_hash, out);
  AppendU64(info.epoch, out);
}

namespace {

// Sets kFlagEncodedPayload on the frame whose header starts at
// `header_start` in `out` (frames are appended, so the header bytes are
// already in place).
void MarkEncoded(std::vector<uint8_t>* out, size_t header_start) {
  (*out)[header_start + 7] |= 0x80;
}

}  // namespace

void AppendGetRequest(VertexId key, std::vector<uint8_t>* out,
                      bool want_encoded) {
  const size_t start = out->size();
  AppendHeader(MessageType::kGetRequest, key, 0, out);
  if (want_encoded) MarkEncoded(out, start);
}

void AppendAdjacencyReply(VertexId key, VertexSetView adjacency,
                          std::vector<uint8_t>* out) {
  const uint32_t payload =
      static_cast<uint32_t>(adjacency.size * sizeof(VertexId));
  AppendHeader(MessageType::kGetReply, key, payload, out);
  for (VertexId v : adjacency) AppendU32(v, out);
}

void AppendEncodedAdjacencyReply(VertexId key, const codec::EncodedSet& set,
                                 std::vector<uint8_t>* out) {
  const size_t start = out->size();
  const uint32_t payload =
      static_cast<uint32_t>(sizeof(uint32_t) + set.bytes.size());
  AppendHeader(MessageType::kGetReply, key, payload, out);
  MarkEncoded(out, start);
  AppendU32(set.count, out);
  out->insert(out->end(), set.bytes.begin(), set.bytes.end());
}

void AppendBatchGetRequest(std::span<const VertexId> keys,
                           std::vector<uint8_t>* out, bool want_encoded) {
  const size_t start = out->size();
  const uint32_t payload =
      static_cast<uint32_t>(keys.size() * sizeof(VertexId));
  AppendHeader(MessageType::kBatchGetRequest,
               static_cast<uint32_t>(keys.size()), payload, out);
  if (want_encoded) MarkEncoded(out, start);
  for (VertexId v : keys) AppendU32(v, out);
}

void AppendStatsRequest(std::vector<uint8_t>* out) {
  AppendHeader(MessageType::kStatsRequest, 0, 0, out);
}

void AppendStatsReply(const ServerStats& stats, std::vector<uint8_t>* out) {
  AppendHeader(MessageType::kStatsReply, 0, 24, out);
  AppendU64(stats.requests, out);
  AppendU64(stats.keys_served, out);
  AppendU64(stats.bytes_sent, out);
}

void AppendError(StatusCode code, const std::string& message,
                 std::vector<uint8_t>* out) {
  AppendHeader(MessageType::kError, static_cast<uint32_t>(code),
               static_cast<uint32_t>(message.size()), out);
  out->insert(out->end(), message.begin(), message.end());
}

void AppendQueryRequest(const QuerySpec& spec, std::vector<uint8_t>* out) {
  const uint32_t payload = static_cast<uint32_t>(
      sizeof(uint32_t) +                                       // options
      sizeof(uint32_t) + spec.pattern_labels.size() * 4 +      // labels
      sizeof(uint32_t) + spec.pattern.size());                 // name
  AppendHeader(MessageType::kQueryRequest, 0, payload, out);
  AppendU32(spec.options, out);
  AppendU32(static_cast<uint32_t>(spec.pattern_labels.size()), out);
  for (int32_t label : spec.pattern_labels) {
    AppendU32(static_cast<uint32_t>(label), out);
  }
  AppendU32(static_cast<uint32_t>(spec.pattern.size()), out);
  out->insert(out->end(), spec.pattern.begin(), spec.pattern.end());
}

void AppendQueryResult(const QueryResultInfo& result,
                       std::vector<uint8_t>* out) {
  AppendHeader(MessageType::kQueryResult, 0, 40, out);
  AppendU64(result.matches, out);
  AppendU64(result.codes, out);
  AppendU64(result.tasks, out);
  AppendU64(result.elapsed_us, out);
  AppendU32(result.flags, out);
  AppendU32(0, out);  // reserved
}

void AppendCancelRequest(std::vector<uint8_t>* out) {
  AppendHeader(MessageType::kCancelRequest, 0, 0, out);
}

void AppendProgress(const QueryProgress& progress, std::vector<uint8_t>* out) {
  AppendHeader(MessageType::kProgress, 0, 24, out);
  AppendU64(progress.tasks_done, out);
  AppendU64(progress.tasks_total, out);
  AppendU64(progress.matches_so_far, out);
}

void AppendApplyDelta(uint64_t epoch, std::span<const EdgeDelta> ops,
                      std::vector<uint8_t>* out) {
  const uint32_t payload =
      static_cast<uint32_t>(8 + 4 + ops.size() * 12);
  AppendHeader(MessageType::kApplyDelta, 0, payload, out);
  AppendU64(epoch, out);
  AppendU32(static_cast<uint32_t>(ops.size()), out);
  for (const EdgeDelta& op : ops) {
    AppendU32(op.u, out);
    AppendU32(op.v, out);
    AppendU32(op.insert ? 1u : 0u, out);
  }
}

void AppendEpochAdvance(uint64_t epoch, std::vector<uint8_t>* out) {
  AppendHeader(MessageType::kEpochAdvance, 0, 8, out);
  AppendU64(epoch, out);
}

void AppendMatchDelta(const MatchDelta& delta, std::vector<uint8_t>* out) {
  AppendHeader(MessageType::kMatchDelta, 0, 32, out);
  AppendU64(delta.epoch, out);
  AppendU64(delta.added, out);
  AppendU64(delta.retracted, out);
  AppendU64(delta.total, out);
}

void AppendDeltaAck(uint64_t epoch, std::vector<uint8_t>* out) {
  AppendHeader(MessageType::kDeltaAck, 0, 8, out);
  AppendU64(epoch, out);
}

void SetFrameTag(std::span<uint8_t> frame, uint16_t tag) {
  BENU_CHECK(frame.size() >= kHeaderBytes) << "frame shorter than header";
  frame[6] = static_cast<uint8_t>(tag);
  // Bit 15 is the encoding flag, not part of the tag: preserve it.
  frame[7] = static_cast<uint8_t>((frame[7] & 0x80) | ((tag >> 8) & 0x7F));
}

uint16_t FrameTag(std::span<const uint8_t> frame) {
  BENU_CHECK(frame.size() >= kHeaderBytes) << "frame shorter than header";
  return ReadU16(frame.data() + 6) & kTagMask;
}

void TagFrames(std::span<uint8_t> frames, uint16_t tag) {
  while (!frames.empty()) {
    BENU_CHECK(frames.size() >= kHeaderBytes)
        << "truncated frame in reply sequence";
    const uint32_t payload = ReadU32(frames.data() + 12);
    const size_t frame_bytes = kHeaderBytes + payload;
    BENU_CHECK(frames.size() >= frame_bytes)
        << "truncated frame payload in reply sequence";
    SetFrameTag(frames, tag);
    frames = frames.subspan(frame_bytes);
  }
}

StatusOr<size_t> FrameSize(std::span<const uint8_t> header) {
  BENU_CHECK(header.size() >= kHeaderBytes) << "frame shorter than header";
  if (ReadU32(header.data()) != kMagic) {
    return Status::InvalidArgument("bad frame magic");
  }
  const uint32_t payload = ReadU32(header.data() + 12);
  if (payload > kMaxPayloadBytes) {
    return Status::InvalidArgument("frame payload too large");
  }
  return kHeaderBytes + payload;
}

StatusOr<Frame> DecodeFrame(std::span<const uint8_t> buffer) {
  if (buffer.size() < kHeaderBytes) {
    return Status::InvalidArgument("frame shorter than header");
  }
  auto frame_bytes = FrameSize(buffer);
  BENU_RETURN_IF_ERROR(frame_bytes.status());
  Frame frame;
  frame.header.version = buffer[4];
  if (frame.header.version != kVersion) {
    return Status::InvalidArgument(
        "unsupported wire version " + std::to_string(frame.header.version) +
        " (this build speaks only version " + std::to_string(kVersion) +
        ")");
  }
  frame.header.type = static_cast<MessageType>(buffer[5]);
  frame.header.flags = ReadU16(buffer.data() + 6);
  frame.header.aux = ReadU32(buffer.data() + 8);
  frame.header.payload_bytes = ReadU32(buffer.data() + 12);
  if (buffer.size() < *frame_bytes) {
    return Status::InvalidArgument("frame payload truncated");
  }
  frame.payload = buffer.subspan(kHeaderBytes, frame.header.payload_bytes);
  frame.frame_bytes = *frame_bytes;
  return frame;
}

StatusOr<VertexId> DecodeGetRequest(const Frame& frame) {
  if (frame.header.type != MessageType::kGetRequest) {
    return WrongType("kGetRequest", frame);
  }
  return static_cast<VertexId>(frame.header.aux);
}

Status DecodeAdjacencyReply(const Frame& frame, VertexId* key,
                            VertexSet* out) {
  if (frame.header.type != MessageType::kGetReply) {
    return WrongType("kGetReply", frame);
  }
  if (FrameIsEncoded(frame)) {
    return Status::InvalidArgument(
        "adjacency reply is delta+varint encoded, not raw");
  }
  if (frame.payload.size() % sizeof(VertexId) != 0) {
    return Status::InvalidArgument("adjacency payload not a multiple of 4");
  }
  *key = static_cast<VertexId>(frame.header.aux);
  const size_t count = frame.payload.size() / sizeof(VertexId);
  out->clear();
  out->reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const VertexId v =
        ReadU32(frame.payload.data() + i * sizeof(VertexId));
    if (i > 0 && v <= out->back()) {
      out->clear();
      return Status::InvalidArgument(
          "adjacency reply not strictly ascending");
    }
    out->push_back(v);
  }
  return Status::OK();
}

Status DecodeEncodedAdjacencyReply(const Frame& frame, VertexId* key,
                                   VertexSet* out) {
  if (frame.header.type != MessageType::kGetReply) {
    return WrongType("kGetReply", frame);
  }
  if (!FrameIsEncoded(frame)) {
    return Status::InvalidArgument(
        "adjacency reply is raw, not delta+varint encoded");
  }
  if (frame.payload.size() < sizeof(uint32_t)) {
    return Status::InvalidArgument("encoded adjacency payload too short");
  }
  const uint32_t count = ReadU32(frame.payload.data());
  const uint8_t* stream = frame.payload.data() + sizeof(uint32_t);
  const size_t stream_bytes = frame.payload.size() - sizeof(uint32_t);
  BENU_RETURN_IF_ERROR(
      codec::DecodeValidated(stream, stream_bytes, count, out));
  *key = static_cast<VertexId>(frame.header.aux);
  return Status::OK();
}

StatusOr<std::vector<VertexId>> DecodeBatchGetRequest(const Frame& frame) {
  if (frame.header.type != MessageType::kBatchGetRequest) {
    return WrongType("kBatchGetRequest", frame);
  }
  if (frame.payload.size() % sizeof(VertexId) != 0 ||
      frame.payload.size() / sizeof(VertexId) != frame.header.aux) {
    return Status::InvalidArgument("batch payload does not match key count");
  }
  std::vector<VertexId> keys;
  keys.reserve(frame.header.aux);
  for (size_t i = 0; i < frame.header.aux; ++i) {
    keys.push_back(ReadU32(frame.payload.data() + i * sizeof(VertexId)));
  }
  return keys;
}

StatusOr<HelloInfo> DecodeHelloReply(const Frame& frame) {
  if (frame.header.type != MessageType::kHelloReply) {
    return WrongType("kHelloReply", frame);
  }
  if (frame.payload.size() != 40) {
    return Status::InvalidArgument("hello payload must be 40 bytes");
  }
  HelloInfo info;
  info.num_vertices = ReadU32(frame.payload.data());
  info.num_partitions = ReadU32(frame.payload.data() + 4);
  info.num_servers = ReadU32(frame.payload.data() + 8);
  info.server_index = ReadU32(frame.payload.data() + 12);
  info.replica_index = ReadU32(frame.payload.data() + 16);
  info.num_replicas = ReadU32(frame.payload.data() + 20);
  info.flags = ReadU32(frame.payload.data() + 24);
  info.graph_hash = ReadU32(frame.payload.data() + 28);
  info.epoch = ReadU64(frame.payload.data() + 32);
  return info;
}

StatusOr<ServerStats> DecodeStatsReply(const Frame& frame) {
  if (frame.header.type != MessageType::kStatsReply) {
    return WrongType("kStatsReply", frame);
  }
  if (frame.payload.size() != 24) {
    return Status::InvalidArgument("stats payload must be 24 bytes");
  }
  ServerStats stats;
  stats.requests = ReadU64(frame.payload.data());
  stats.keys_served = ReadU64(frame.payload.data() + 8);
  stats.bytes_sent = ReadU64(frame.payload.data() + 16);
  return stats;
}

Status DecodeError(const Frame& frame) {
  if (frame.header.type != MessageType::kError) {
    return Status::InvalidArgument("not an error frame");
  }
  // An error frame must carry an error: code 0 would read as OK (and make
  // every typed decoder that forwards it report success without a value).
  if (frame.header.aux == 0 ||
      frame.header.aux > static_cast<uint32_t>(StatusCode::kDeadlineExceeded)) {
    return Status::InvalidArgument("error frame carries invalid status code " +
                                   std::to_string(frame.header.aux));
  }
  return Status(static_cast<StatusCode>(frame.header.aux),
                std::string(frame.payload.begin(), frame.payload.end()));
}

namespace {

/// Longest pattern name a kQueryRequest may carry — generous for the
/// catalog ("clique12" is 8 bytes) while bounding what a hostile frame
/// can make the service allocate.
constexpr uint32_t kMaxPatternNameBytes = 256;
/// Most pattern labels a kQueryRequest may carry (catalog patterns have
/// at most a handful of vertices).
constexpr uint32_t kMaxPatternLabels = 64;

}  // namespace

StatusOr<QuerySpec> DecodeQueryRequest(const Frame& frame) {
  if (frame.header.type != MessageType::kQueryRequest) {
    return WrongType("kQueryRequest", frame);
  }
  const uint8_t* p = frame.payload.data();
  size_t left = frame.payload.size();
  if (left < 8) {
    return Status::InvalidArgument("query payload too short");
  }
  QuerySpec spec;
  spec.options = ReadU32(p);
  if ((spec.options & ~kQueryKnownOptions) != 0) {
    return Status::InvalidArgument("query carries unknown option bits");
  }
  const uint32_t num_labels = ReadU32(p + 4);
  p += 8;
  left -= 8;
  if (num_labels > kMaxPatternLabels) {
    return Status::InvalidArgument("query label count exceeds limit");
  }
  if (left < num_labels * 4ull + 4) {
    return Status::InvalidArgument("query label run truncated");
  }
  spec.pattern_labels.reserve(num_labels);
  for (uint32_t i = 0; i < num_labels; ++i) {
    spec.pattern_labels.push_back(static_cast<int32_t>(ReadU32(p + i * 4)));
  }
  p += num_labels * 4ull;
  left -= num_labels * 4ull;
  const uint32_t name_len = ReadU32(p);
  p += 4;
  left -= 4;
  if (name_len == 0 || name_len > kMaxPatternNameBytes) {
    return Status::InvalidArgument("query pattern name empty or oversized");
  }
  if (left != name_len) {
    return Status::InvalidArgument("query pattern name run truncated");
  }
  spec.pattern.assign(reinterpret_cast<const char*>(p), name_len);
  return spec;
}

StatusOr<QueryResultInfo> DecodeQueryResult(const Frame& frame) {
  if (frame.header.type != MessageType::kQueryResult) {
    return WrongType("kQueryResult", frame);
  }
  if (frame.payload.size() != 40) {
    return Status::InvalidArgument("query result payload must be 40 bytes");
  }
  QueryResultInfo result;
  result.matches = ReadU64(frame.payload.data());
  result.codes = ReadU64(frame.payload.data() + 8);
  result.tasks = ReadU64(frame.payload.data() + 16);
  result.elapsed_us = ReadU64(frame.payload.data() + 24);
  result.flags = ReadU32(frame.payload.data() + 32);
  return result;
}

Status DecodeCancelRequest(const Frame& frame) {
  if (frame.header.type != MessageType::kCancelRequest) {
    return WrongType("kCancelRequest", frame);
  }
  if (!frame.payload.empty()) {
    return Status::InvalidArgument("cancel request carries a payload");
  }
  return Status::OK();
}

StatusOr<QueryProgress> DecodeProgress(const Frame& frame) {
  if (frame.header.type != MessageType::kProgress) {
    return WrongType("kProgress", frame);
  }
  if (frame.payload.size() != 24) {
    return Status::InvalidArgument("progress payload must be 24 bytes");
  }
  QueryProgress progress;
  progress.tasks_done = ReadU64(frame.payload.data());
  progress.tasks_total = ReadU64(frame.payload.data() + 8);
  progress.matches_so_far = ReadU64(frame.payload.data() + 16);
  return progress;
}

Status DecodeApplyDelta(const Frame& frame, uint64_t* epoch,
                        std::vector<EdgeDelta>* ops) {
  if (frame.header.type != MessageType::kApplyDelta) {
    return WrongType("kApplyDelta", frame);
  }
  if (frame.payload.size() < 12) {
    return Status::InvalidArgument("apply-delta payload too short");
  }
  const uint32_t count = ReadU32(frame.payload.data() + 8);
  if (frame.payload.size() != 12 + static_cast<size_t>(count) * 12) {
    return Status::InvalidArgument(
        "apply-delta payload does not match its op count");
  }
  *epoch = ReadU64(frame.payload.data());
  ops->clear();
  ops->reserve(count);
  const uint8_t* p = frame.payload.data() + 12;
  for (uint32_t i = 0; i < count; ++i, p += 12) {
    const uint32_t flags = ReadU32(p + 8);
    if ((flags & ~1u) != 0) {
      return Status::InvalidArgument("apply-delta op carries unknown flags");
    }
    ops->push_back(EdgeDelta{ReadU32(p), ReadU32(p + 4), (flags & 1u) != 0});
  }
  return Status::OK();
}

StatusOr<uint64_t> DecodeEpochAdvance(const Frame& frame) {
  if (frame.header.type != MessageType::kEpochAdvance) {
    return WrongType("kEpochAdvance", frame);
  }
  if (frame.payload.size() != 8) {
    return Status::InvalidArgument("epoch-advance payload must be 8 bytes");
  }
  return ReadU64(frame.payload.data());
}

StatusOr<MatchDelta> DecodeMatchDelta(const Frame& frame) {
  if (frame.header.type != MessageType::kMatchDelta) {
    return WrongType("kMatchDelta", frame);
  }
  if (frame.payload.size() != 32) {
    return Status::InvalidArgument("match-delta payload must be 32 bytes");
  }
  MatchDelta delta;
  delta.epoch = ReadU64(frame.payload.data());
  delta.added = ReadU64(frame.payload.data() + 8);
  delta.retracted = ReadU64(frame.payload.data() + 16);
  delta.total = ReadU64(frame.payload.data() + 24);
  return delta;
}

StatusOr<uint64_t> DecodeDeltaAck(const Frame& frame) {
  if (frame.header.type != MessageType::kDeltaAck) {
    return WrongType("kDeltaAck", frame);
  }
  if (frame.payload.size() != 8) {
    return Status::InvalidArgument("delta-ack payload must be 8 bytes");
  }
  return ReadU64(frame.payload.data());
}

}  // namespace benu::wire
