#ifndef BENU_GRAPH_ADJ_CODEC_H_
#define BENU_GRAPH_ADJ_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <limits>
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
// to 0xFFFFFFFF (= -1 mod 2^32): no special case for the first value,
// which is what lets the SIMD decoder run the same prefix-sum kernel on
// every 8-delta block. Typical adjacency sets encode in 1-2 bytes per
// entry versus 4 raw, which is where the >= 2x wire/cache reduction of
// the compressed path comes from.
//
// Two decoding tiers:
//   - Validate()/DecodeValidated(): a full structural check (varint
//     termination, d >= 1, 32-bit range, exact byte/count consumption)
//     for bytes that arrived over the wire — a malformed stream is a
//     Status error, never UB or a crash.
//   - DecodeCursor: a trusting streaming decoder for bytes that were
//     validated at ingress (or produced in-process). The hot intersect
//     kernels drive it block by block so an intersection never
//     materializes the full decoded set.
//
// The SIMD fast path decodes 8 single-byte deltas at a time (one 8-byte
// load, a high-bit test, widening + prefix sum in AVX2) and is selected
// by the same runtime dispatch as the intersect kernels: CPUID at
// startup, BENU_DISABLE_SIMD=1 / simd::SetSimdEnabled to force the
// portable scalar path. Both paths emit identical values.

/// One delta+varint encoded sorted set. `count` is the number of decoded
/// entries; `bytes` the varint stream.
struct EncodedSet {
  uint32_t count = 0;
  std::vector<uint8_t> bytes;

  /// Raw payload this stream replaces (count entries of 4 bytes each).
  size_t raw_bytes() const { return count * sizeof(VertexId); }
};

/// Upper bound on the encoded size of a set with `count` entries (every
/// varint at its 5-byte maximum).
constexpr size_t MaxEncodedBytes(size_t count) { return count * 5; }

/// True iff the compressed adjacency path should be used: `requested`
/// and not globally killed by BENU_DISABLE_COMPRESSION=1 (read once).
bool CompressionEnabled(bool requested);

/// Encodes a strictly ascending set. `out` is overwritten.
void Encode(VertexSetView set, EncodedSet* out);

/// Structural validation of an untrusted stream: every varint must
/// terminate within `size` bytes, every delta must be >= 1 and within
/// 32-bit range, exactly `count` varints must consume exactly `size`
/// bytes, and the decoded sequence must stay within 32 bits. O(size),
/// no allocation. On success `*last`, if given, receives the largest
/// (last) value; it is left untouched when `count` is 0.
Status Validate(const uint8_t* data, size_t size, uint32_t count,
                VertexId* last = nullptr);

/// Validate() + full decode into `out` (cleared first).
Status DecodeValidated(const uint8_t* data, size_t size, uint32_t count,
                       VertexSet* out);

/// Streaming decoder over a *trusted* (in-process or ingress-validated)
/// stream. Not thread-safe; cheap to construct per use.
class DecodeCursor {
 public:
  explicit DecodeCursor(const EncodedSet& set)
      : DecodeCursor(set.bytes.data(), set.bytes.size(), set.count) {}
  DecodeCursor(const uint8_t* data, size_t size, uint32_t count);

  /// Values not yet decoded.
  uint32_t remaining() const { return remaining_; }

  /// Decodes up to `max` values into out[0..), returning how many were
  /// written (0 iff the stream is exhausted). Runs the AVX2 block
  /// decoder on runs of single-byte deltas when simd::SimdEnabled().
  size_t Next(VertexId* out, size_t max);

 private:
  const uint8_t* p_;
  const uint8_t* end_;
  uint32_t remaining_;
  uint32_t prev_ = 0xFFFFFFFFu;  // implicit value before the first entry
};

/// Fully decodes a trusted stream into `out` (resized to set.count).
void DecodeAll(const EncodedSet& set, VertexSet* out);

// --- fused kernels (never materialize the full decoded set) -----------

/// out = {v in set : lo <= v < hi, v not in excludes[0..n_excludes)}.
/// The compiled form of a single-operand candidate instruction over an
/// encoded DBQ result: decode stops at the first value >= hi.
void DecodeClamped(const EncodedSet& set, VertexId lo, VertexId hi,
                   const VertexId* excludes, size_t n_excludes,
                   VertexSet* out);

/// out = (set ∩ b) restricted to [lo, hi) minus excludes. Decodes block
/// by block through a DecodeCursor and merges each block against the
/// (clamped) view, so only the prefix of the stream overlapping b is
/// ever decoded. Identical output to DecodeAll + IntersectExcluding on
/// the clamped inputs.
void IntersectEncoded(const EncodedSet& set, VertexSetView b, VertexId lo,
                      VertexId hi, const VertexId* excludes,
                      size_t n_excludes, VertexSet* out);

/// min(|set ∩ b|, limit) without materializing anything.
size_t IntersectSizeEncoded(
    const EncodedSet& set, VertexSetView b,
    size_t limit = std::numeric_limits<size_t>::max());

// --- codec metrics (docs/metrics.md, codec.*) -------------------------

/// Accounts `sets` encoded sets totalling `raw_bytes` before and
/// `encoded_bytes` after encoding (codec.encode.*). Called by the
/// pre-encoding stores (simulated transport, KvPartitionServer).
void NoteEncoded(size_t sets, size_t raw_bytes, size_t encoded_bytes);

/// Accounts one full materialization of `values` entries from an
/// encoded stream (codec.decode.*): the fallback the fused kernels
/// exist to avoid.
void NoteDecoded(size_t values);

/// Accounts intersections served by the fused encoded kernels vs. ones
/// that had to fully decode an operand first (codec.intersect.*).
/// Callers batch-accumulate and flush, so `n` may be > 1.
void NoteFusedIntersects(size_t n);
void NoteFallbackDecodes(size_t n);

}  // namespace benu::codec

#endif  // BENU_GRAPH_ADJ_CODEC_H_
