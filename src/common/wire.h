#ifndef BENU_COMMON_WIRE_H_
#define BENU_COMMON_WIRE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "graph/adj_codec.h"
#include "graph/vertex_set.h"

namespace benu::wire {

// ---------------------------------------------------------------------
// Versioned wire protocol of the distributed KV store (DESIGN.md §2f).
// Every message is one length-prefixed frame; a transport moves frames,
// a KvPartitionServer interprets them. The loopback transport runs this
// protocol in-process, the TCP transport over real sockets — both speak
// exactly these bytes, so a client cannot tell the backends apart except
// by latency.
//
// Frame layout (little-endian):
//
//   offset  0  u32  magic          0x42454E55 ("BENU")
//   offset  4  u8   version        kVersion
//   offset  5  u8   type           MessageType
//   offset  6  u16  flags          request tag (see below; 0 = untagged)
//   offset  8  u32  aux            type-specific immediate (see below)
//   offset 12  u32  payload_bytes  bytes following the header
//   offset 16  ...  payload
//
// Request tags: the low 15 bits of the `flags` field carry an opaque
// per-request tag chosen by the client (`aux` already carries key/count
// semantics). A server echoes the request's tag into every reply frame
// it emits for that request, so a pipelined client with several requests
// in flight on one connection can demux replies and detect connection
// desync (a reply whose tag does not match the oldest in-flight request
// means the stream is corrupt and the connection must be torn down).
// Strict request/reply clients send tag 0 and ignore reply tags.
//
// Encoding flag: bit 15 of `flags` (kFlagEncodedPayload). On a
// get/batch-get request it asks the server for delta+varint encoded
// payloads (graph/adj_codec.h); on a kGetReply it marks the payload as
// `u32 count` followed by the varint stream instead of raw u32 entries.
// A server built without encoding (benu_kv_server --compress=0) answers
// with raw replies (flag clear), and clients dispatch on the reply's
// flag.
//
// One version: peers are always the same build, so a frame whose
// version byte is not kVersion is rejected (InvalidArgument) rather
// than interpreted. The KV, service (src/service/) and versioned-store
// frame types below all share that one version.
//
// The 16-byte header is deliberately the simulator's modeled per-reply
// overhead (DistributedKvStore::kReplyOverheadBytes): a raw adjacency
// reply frame for a set of n entries occupies exactly 16 + 4n bytes, and
// an encoded one 16 + 4 + |varint stream| bytes, so byte accounting is
// identical whether replies are modeled (simulated transport) or
// actually framed (loopback/TCP).

inline constexpr uint32_t kMagic = 0x42454E55;  // "BENU"
inline constexpr uint8_t kVersion = 4;
inline constexpr size_t kHeaderBytes = 16;
/// Largest payload one frame may announce. A 4-byte-per-entry adjacency
/// set never legitimately approaches it; a larger announced length means
/// the stream cannot be trusted to delimit (see FrameSize).
inline constexpr uint32_t kMaxPayloadBytes = 1u << 30;

/// Bit 15 of `flags`: the frame's adjacency payload is delta+varint
/// encoded (replies) / encoded replies are requested (requests).
inline constexpr uint16_t kFlagEncodedPayload = 0x8000;
/// Low 15 bits of `flags`: the request tag.
inline constexpr uint16_t kTagMask = 0x7FFF;

enum class MessageType : uint8_t {
  /// Handshake. Request: empty. Reply payload (exactly 40 bytes):
  /// u32 num_vertices, u32 num_partitions, u32 num_servers,
  /// u32 server_index, u32 replica_index, u32 num_replicas, u32
  /// capability flags (kHelloSupports*), u32 graph content hash,
  /// u64 graph epoch.
  kHelloRequest = 1,
  kHelloReply = 2,
  /// Single get. Request: aux = key, empty payload (set
  /// kFlagEncodedPayload to ask for an encoded reply). Reply (kGetReply):
  /// aux = key, payload = adjacency entries (u32 each, sorted), or with
  /// kFlagEncodedPayload set: u32 count + delta+varint stream.
  kGetRequest = 3,
  kGetReply = 4,
  /// Batched multi-get. Request: aux = key count, payload = keys (u32
  /// each). Reply: `aux` consecutive kGetReply frames, in request key
  /// order — there is no outer envelope, so the accounted reply bytes
  /// are exactly the per-key frame sizes.
  kBatchGetRequest = 5,
  /// Server-side serving statistics. Request: empty. Reply payload:
  /// u64 requests, u64 keys_served, u64 bytes_sent.
  kStatsRequest = 6,
  kStatsReply = 7,
  /// Error reply: aux = StatusCode, payload = UTF-8 message.
  kError = 8,
  /// Pattern query (service protocol). The frame tag names
  /// the query on this connection. Request payload: u32 option flags
  /// (kQueryVcbc | kQueryDegreeFilter | kQueryWantProgress), u32 label
  /// count + i32 pattern labels, u32 name length + pattern name bytes
  /// (a graph/patterns.h catalog name, e.g. "q5" or "clique4").
  kQueryRequest = 9,
  /// Terminal answer to a kQueryRequest, echoing its tag. Payload:
  /// u64 matches, u64 embedding codes, u64 tasks executed, u64 elapsed
  /// microseconds, u32 result flags (kQueryResultCancelled |
  /// kQueryResultPlanCacheHit), u32 reserved (0). A rejected or failed
  /// query is answered with a tagged kError frame instead.
  kQueryResult = 10,
  /// Cancels the in-flight query named by the frame tag.
  /// Empty payload, aux = 0. Always answered — by the cancelled query's
  /// kQueryResult (kQueryResultCancelled set) if it was in flight, or by
  /// a tagged kError (kNotFound) if no such query exists. Cancelling a
  /// query that completes concurrently is benign: the client just sees
  /// the uncancelled result.
  kCancelRequest = 11,
  /// Periodic progress report for a running query that asked for them
  /// (kQueryWantProgress), echoing the query tag. Payload: u64 tasks
  /// done, u64 tasks total, u64 matches so far. Purely informational;
  /// frequency is a service knob, and the terminal kQueryResult may
  /// arrive without a final progress frame.
  kProgress = 12,
  /// Replicates one epoch's edge-delta batch to a server (versioned-store
  /// protocol). Payload: u64 target epoch
  /// (must be the server's epoch + 1), u32 op count, then per op
  /// u32 u, u32 v, u32 flags (bit 0 set = insert, clear = delete).
  /// Answered with kDeltaAck (or kError on an epoch mismatch).
  kApplyDelta = 13,
  /// Commits a previously pushed delta batch: the server's epoch becomes
  /// the payload's u64 epoch (must be its current epoch + 1). Answered
  /// with kDeltaAck. Subsequent hellos attest the new epoch.
  kEpochAdvance = 14,
  /// Streamed match-set delta of a kQuerySubscribe query, echoing its
  /// tag (service → client, one per epoch advance). Payload: u64 epoch,
  /// u64 matches added, u64 matches retracted, u64 maintained total.
  kMatchDelta = 15,
  /// Acknowledges a kApplyDelta or kEpochAdvance, echoing the request
  /// tag. Payload: u64 epoch (the server's epoch after the request).
  kDeltaAck = 16,
};

struct FrameHeader {
  uint8_t version = kVersion;
  MessageType type = MessageType::kError;
  uint16_t flags = 0;
  uint32_t aux = 0;
  uint32_t payload_bytes = 0;
};

/// One decoded frame: a validated header plus a non-owning view of the
/// payload. `frame_bytes` is the total wire footprint (header + payload).
struct Frame {
  FrameHeader header;
  std::span<const uint8_t> payload;
  size_t frame_bytes = 0;
};

/// Handshake contents served by kHelloReply. A "replica" is one of
/// several interchangeable server processes serving the same partition
/// share (server_index); clients fail over between replicas of a group.
/// HelloInfo capability bit: the server pre-encodes its partition share
/// and answers kFlagEncodedPayload requests with encoded replies.
inline constexpr uint32_t kHelloSupportsEncoded = 1u << 0;
/// HelloInfo capability bit: the peer is a resident enumeration service
/// (src/service/) that accepts kQueryRequest / kCancelRequest frames.
/// KV servers leave it clear; a client must not send query frames to a
/// peer whose hello lacks it. (Every peer tracks graph epochs and
/// accepts kApplyDelta / kEpochAdvance, so that needs no bit.)
inline constexpr uint32_t kHelloSupportsQueries = 1u << 1;

// --- service protocol payloads ----------------------------------------

/// kQueryRequest option flag: run the VCBC compression rewrite on the
/// generated plan (plan/plan_search.h `apply_vcbc`).
inline constexpr uint32_t kQueryVcbc = 1u << 0;
/// kQueryRequest option flag: apply degree-based candidate filters
/// (plan/filters.h) during execution.
inline constexpr uint32_t kQueryDegreeFilter = 1u << 1;
/// kQueryRequest option flag: the client wants kProgress frames while
/// the query runs.
inline constexpr uint32_t kQueryWantProgress = 1u << 2;
/// kQueryRequest option flag: subscribe mode. The query's kQueryResult
/// reports the baseline count at the current epoch but is NOT terminal:
/// the service then streams one kMatchDelta frame per epoch advance
/// until the client cancels (terminal kQueryResult) or disconnects.
/// Incompatible with kQueryVcbc (delta maintenance needs full matches).
inline constexpr uint32_t kQuerySubscribe = 1u << 3;
/// All option bits a decoder understands; unknown bits are
/// rejected so a future flag cannot be silently ignored.
inline constexpr uint32_t kQueryKnownOptions =
    kQueryVcbc | kQueryDegreeFilter | kQueryWantProgress | kQuerySubscribe;

/// kQueryResult flag: the query was cancelled before completing; the
/// carried counts cover only the tasks that finished and must not be
/// interpreted as the pattern's match count.
inline constexpr uint32_t kQueryResultCancelled = 1u << 0;
/// kQueryResult flag: the service reused a cached execution plan
/// instead of running plan search for this query.
inline constexpr uint32_t kQueryResultPlanCacheHit = 1u << 1;

/// A pattern query as carried by kQueryRequest. `pattern` is a
/// graph/patterns.h catalog name; `pattern_labels`, when non-empty,
/// must hold one label per pattern vertex and switches the service to
/// the labeled plan/matching path.
struct QuerySpec {
  std::string pattern;
  std::vector<int32_t> pattern_labels;
  /// kQueryVcbc | kQueryDegreeFilter | kQueryWantProgress.
  uint32_t options = 0;

  bool want_vcbc() const { return (options & kQueryVcbc) != 0; }
  bool want_degree_filter() const {
    return (options & kQueryDegreeFilter) != 0;
  }
  bool want_progress() const { return (options & kQueryWantProgress) != 0; }
  bool want_subscribe() const { return (options & kQuerySubscribe) != 0; }
  bool operator==(const QuerySpec&) const = default;
};

/// Terminal query outcome as carried by kQueryResult.
struct QueryResultInfo {
  uint64_t matches = 0;     ///< embeddings found (partial if cancelled)
  uint64_t codes = 0;       ///< VCBC embedding codes emitted
  uint64_t tasks = 0;       ///< search tasks executed to completion
  uint64_t elapsed_us = 0;  ///< admission-to-completion wall time
  /// kQueryResultCancelled | kQueryResultPlanCacheHit.
  uint32_t flags = 0;

  bool cancelled() const { return (flags & kQueryResultCancelled) != 0; }
  bool plan_cache_hit() const {
    return (flags & kQueryResultPlanCacheHit) != 0;
  }
  bool operator==(const QueryResultInfo&) const = default;
};

/// In-flight progress as carried by kProgress.
struct QueryProgress {
  uint64_t tasks_done = 0;
  uint64_t tasks_total = 0;
  uint64_t matches_so_far = 0;
  bool operator==(const QueryProgress&) const = default;
};

/// One epoch's maintained-match-set delta as carried by kMatchDelta
/// (subscribe mode). `total` is the maintained count after the epoch:
/// previous total + added − retracted, which a client can verify.
struct MatchDelta {
  uint64_t epoch = 0;
  uint64_t added = 0;
  uint64_t retracted = 0;
  uint64_t total = 0;
  bool operator==(const MatchDelta&) const = default;
};

struct HelloInfo {
  uint32_t num_vertices = 0;
  uint32_t num_partitions = 0;
  uint32_t num_servers = 0;
  uint32_t server_index = 0;
  uint32_t replica_index = 0;
  uint32_t num_replicas = 1;
  /// Capability bits (kHelloSupportsEncoded | kHelloSupportsQueries).
  uint32_t flags = 0;
  /// Folded Graph::ContentHash() of the graph the server serves, so a
  /// client that relabels locally can verify both sides agree on vertex
  /// ids.
  uint32_t graph_hash = 0;
  /// Graph epoch of the server's versioned store: the number of delta
  /// batches committed via kEpochAdvance. The attested graph identity is
  /// the pair (graph_hash, epoch) — graph_hash names the base labeling,
  /// epoch the delta state on top of it.
  uint64_t epoch = 0;
};

/// Server-side serving statistics carried by kStatsReply.
struct ServerStats {
  uint64_t requests = 0;     ///< request frames handled
  uint64_t keys_served = 0;  ///< adjacency keys returned
  uint64_t bytes_sent = 0;   ///< reply bytes emitted
};

/// Wire footprint of a raw adjacency reply carrying `set_size` entries:
/// kHeaderBytes + 4·set_size. Matches DistributedKvStore::ReplyBytes.
constexpr size_t AdjacencyReplyBytes(size_t set_size) {
  return kHeaderBytes + set_size * sizeof(VertexId);
}

/// Wire footprint of an encoded adjacency reply whose varint stream is
/// `encoded_bytes` long: header + u32 count + stream.
constexpr size_t EncodedAdjacencyReplyBytes(size_t encoded_bytes) {
  return kHeaderBytes + sizeof(uint32_t) + encoded_bytes;
}

// --- encoding (append one full frame to `out`) ------------------------

void AppendHeader(MessageType type, uint32_t aux, uint32_t payload_bytes,
                  std::vector<uint8_t>* out);
void AppendHelloRequest(std::vector<uint8_t>* out);
void AppendHelloReply(const HelloInfo& info, std::vector<uint8_t>* out);
/// `want_encoded` sets kFlagEncodedPayload on the request.
void AppendGetRequest(VertexId key, std::vector<uint8_t>* out,
                      bool want_encoded = false);
void AppendAdjacencyReply(VertexId key, VertexSetView adjacency,
                          std::vector<uint8_t>* out);
/// Encoded adjacency reply: kGetReply with kFlagEncodedPayload set,
/// payload = u32 count + the varint stream.
void AppendEncodedAdjacencyReply(VertexId key, const codec::EncodedSet& set,
                                 std::vector<uint8_t>* out);
void AppendBatchGetRequest(std::span<const VertexId> keys,
                           std::vector<uint8_t>* out,
                           bool want_encoded = false);
void AppendStatsRequest(std::vector<uint8_t>* out);
void AppendStatsReply(const ServerStats& stats, std::vector<uint8_t>* out);
void AppendError(StatusCode code, const std::string& message,
                 std::vector<uint8_t>* out);
/// Service frames. The query tag is stamped separately with
/// SetFrameTag, exactly like KV request tags.
void AppendQueryRequest(const QuerySpec& spec, std::vector<uint8_t>* out);
void AppendQueryResult(const QueryResultInfo& result,
                       std::vector<uint8_t>* out);
void AppendCancelRequest(std::vector<uint8_t>* out);
void AppendProgress(const QueryProgress& progress, std::vector<uint8_t>* out);
/// Versioned-store frames. AppendApplyDelta carries one
/// epoch's edge ops; `epoch` is the target epoch the batch produces.
void AppendApplyDelta(uint64_t epoch, std::span<const EdgeDelta> ops,
                      std::vector<uint8_t>* out);
void AppendEpochAdvance(uint64_t epoch, std::vector<uint8_t>* out);
void AppendMatchDelta(const MatchDelta& delta, std::vector<uint8_t>* out);
void AppendDeltaAck(uint64_t epoch, std::vector<uint8_t>* out);

// --- request tags -----------------------------------------------------

/// Stamps the tag (low 15 bits of the flags field) of the single frame
/// at the front of `frame`, preserving the encoding flag. The frame must
/// at least hold a full header; tags wider than kTagMask are truncated.
void SetFrameTag(std::span<uint8_t> frame, uint16_t tag);

/// Reads the tag of the frame at the front of `frame` (encoding flag
/// masked out).
uint16_t FrameTag(std::span<const uint8_t> frame);

/// Stamps `tag` into every frame of a well-formed frame sequence (used
/// by servers to echo a request's tag onto all of its reply frames).
/// The sequence must consist of complete frames — it is the server's own
/// freshly encoded output, so a malformed sequence is a bug (CHECK).
void TagFrames(std::span<uint8_t> frames, uint16_t tag);

// --- decoding ---------------------------------------------------------

/// The one frame-delimiting rule, shared by every reader of a byte
/// stream (the servers' event loop and net::ReadWireFrame): given at
/// least the kHeaderBytes of a frame header, returns the frame's total
/// size (header + announced payload). Fails with InvalidArgument when
/// the stream cannot be delimited — bad magic or a payload over
/// kMaxPayloadBytes — after which the connection must be closed, since
/// no later frame boundary can be trusted. Everything else about the
/// header (version, type, flags) is DecodeFrame's business, so a
/// delimitable but malformed frame still leaves the stream in sync.
StatusOr<size_t> FrameSize(std::span<const uint8_t> header);

/// Decodes the frame at the front of `buffer` (which may hold a sequence
/// of frames). Fails on short buffers, headers FrameSize rejects, a
/// version other than kVersion, or a payload longer than the buffer.
StatusOr<Frame> DecodeFrame(std::span<const uint8_t> buffer);

/// True iff the frame's payload is delta+varint encoded (the
/// kFlagEncodedPayload bit). Callers dispatch between DecodeAdjacencyReply and
/// DecodeEncodedAdjacencyReply on this.
inline bool FrameIsEncoded(const Frame& frame) {
  return (frame.header.flags & kFlagEncodedPayload) != 0;
}

/// Typed payload decoders. Each validates the frame's type and payload
/// shape. DecodeAdjacencyReply decodes a raw (unflagged) reply: it
/// appends the entries to `*out` (cleared first), returns the key via
/// `*key`, and rejects encoded replies and entries that are not strictly
/// ascending.
StatusOr<VertexId> DecodeGetRequest(const Frame& frame);
Status DecodeAdjacencyReply(const Frame& frame, VertexId* key,
                            VertexSet* out);
/// Decodes an encoded adjacency reply: the varint stream is validated
/// and decoded in one pass (codec::DecodeValidated) into `*out`
/// (cleared first, left empty on error), and the key returned via
/// `*key`. Rejects raw (unflagged) replies.
Status DecodeEncodedAdjacencyReply(const Frame& frame, VertexId* key,
                                   VertexSet* out);
StatusOr<std::vector<VertexId>> DecodeBatchGetRequest(const Frame& frame);
StatusOr<HelloInfo> DecodeHelloReply(const Frame& frame);
StatusOr<ServerStats> DecodeStatsReply(const Frame& frame);
/// Converts a kError frame back into the Status it carries; a code that
/// is not an error (0, or past the last StatusCode) is InvalidArgument.
Status DecodeError(const Frame& frame);
/// Service payload decoders. DecodeQueryRequest validates
/// shape only — option bits outside kQueryKnownOptions, truncated label
/// or name runs, and oversized names are rejected here; whether the
/// pattern name exists in the catalog is the service's business.
StatusOr<QuerySpec> DecodeQueryRequest(const Frame& frame);
StatusOr<QueryResultInfo> DecodeQueryResult(const Frame& frame);
/// Validates a kCancelRequest (empty payload); the target query is the
/// frame's tag.
Status DecodeCancelRequest(const Frame& frame);
StatusOr<QueryProgress> DecodeProgress(const Frame& frame);
/// Versioned-store payload decoders. DecodeApplyDelta
/// returns the target epoch via `*epoch` and appends the ops to `*ops`
/// (cleared first); it bounds the op count against the payload size, so
/// a hostile count cannot over-allocate.
Status DecodeApplyDelta(const Frame& frame, uint64_t* epoch,
                        std::vector<EdgeDelta>* ops);
StatusOr<uint64_t> DecodeEpochAdvance(const Frame& frame);
StatusOr<MatchDelta> DecodeMatchDelta(const Frame& frame);
StatusOr<uint64_t> DecodeDeltaAck(const Frame& frame);

}  // namespace benu::wire

#endif  // BENU_COMMON_WIRE_H_
