#ifndef BENU_GRAPH_ADJ_CODEC_H_
#define BENU_GRAPH_ADJ_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "graph/vertex_set.h"

namespace benu::codec {

// ---------------------------------------------------------------------
// Delta+varint codec for sorted adjacency sets (DESIGN.md §2f).
//
// A VertexSet is strictly ascending, so consecutive differences are
// small positive integers on relabeled graphs — RelabelByDegree clusters
// ids by degree, which keeps neighborhoods dense in id space. The codec
// stores the sequence as LEB128 varints of the differences of the
// shifted sequence v[i] + 1:
//
//   d[0] = v[0] + 1,   d[i] = v[i] - v[i-1]   (every d >= 1)
//
// Decoding is one uniform recurrence, prev += d, with prev initialized
// to 0xFFFFFFFF (= -1 mod 2^32): no special case for the first value.
// Typical adjacency sets encode in 1-2 bytes per entry versus 4 raw.
//
// The codec lives on the wire only. Servers pre-encode their partition
// once; a client decodes each encoded reply exactly once, where it
// enters the process (DecodeAdjacencyPayload in storage/transport.h),
// with DecodeValidated: a full structural check (varint termination,
// d >= 1, 32-bit range, exact byte/count consumption) fused with the
// decode, so a malformed stream is a Status error, never UB or a crash.
// Everything above the transport — the DB cache and the executor —
// sees raw sorted sets.

/// One delta+varint encoded sorted set. `count` is the number of decoded
/// entries; `bytes` the varint stream.
struct EncodedSet {
  uint32_t count = 0;
  std::vector<uint8_t> bytes;

  /// Raw payload this stream replaces (count entries of 4 bytes each).
  size_t raw_bytes() const { return count * sizeof(VertexId); }
};

/// True iff adjacency replies should travel encoded on the wire:
/// `requested` and not globally killed by BENU_DISABLE_COMPRESSION=1
/// (read once).
bool CompressionEnabled(bool requested);

/// Encodes a strictly ascending set. `out` is overwritten.
void Encode(VertexSetView set, EncodedSet* out);

/// Bytes Encode would produce for `set`, without producing them: the
/// simulated transport models encoded frame sizes with it.
size_t EncodedBytes(VertexSetView set);

/// Structural validation of an untrusted stream: every varint must
/// terminate within `size` bytes, every delta must be >= 1 and within
/// 32-bit range, exactly `count` varints must consume exactly `size`
/// bytes, and the decoded sequence must stay within 32 bits. O(size),
/// no allocation.
Status Validate(const uint8_t* data, size_t size, uint32_t count);

/// Validate() + full decode into `out` (cleared first, and left empty
/// on error), in one pass.
Status DecodeValidated(const uint8_t* data, size_t size, uint32_t count,
                       VertexSet* out);

// --- codec metrics (docs/metrics.md, codec.*) -------------------------

/// Accounts `sets` encoded sets totalling `raw_bytes` before and
/// `encoded_bytes` after encoding (codec.encode.*). Called by the
/// pre-encoding stores (simulated transport, KvPartitionServer).
void NoteEncoded(size_t sets, size_t raw_bytes, size_t encoded_bytes);

/// Accounts one encoded reply of `values` entries decoded at ingress
/// (codec.decode.*).
void NoteDecoded(size_t values);

}  // namespace benu::codec

#endif  // BENU_GRAPH_ADJ_CODEC_H_
