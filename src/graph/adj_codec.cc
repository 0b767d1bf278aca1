#include "graph/adj_codec.h"

#include <algorithm>
#include <cstdlib>

#include "common/metrics.h"
#include "graph/simd_intersect.h"

namespace benu::codec {
namespace {

// Varints are LEB128: 7 value bits per byte, high bit = continuation.
// The largest stored value is 2^32 (the shifted first entry 0xFFFFFFFF+1),
// which needs 5 bytes; anything longer is malformed.
constexpr int kMaxVarintBytes = 5;
constexpr uint64_t kMaxDelta = uint64_t{1} << 32;

void AppendVarint(uint64_t v, std::vector<uint8_t>* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

struct CodecCounters {
  metrics::Counter* encode_sets;
  metrics::Counter* encode_bytes_raw;
  metrics::Counter* encode_bytes_encoded;
  metrics::Counter* decode_sets;
  metrics::Counter* decode_values;
  metrics::Counter* intersect_fused;
  metrics::Counter* intersect_fallback;
};

CodecCounters& Counters() {
  static CodecCounters c = [] {
    auto& reg = metrics::MetricsRegistry::Global();
    CodecCounters n;
    n.encode_sets = reg.GetCounter(
        "codec.encode.sets", "1", "adjacency sets delta+varint encoded");
    n.encode_bytes_raw = reg.GetCounter(
        "codec.encode.bytes_raw", "By",
        "raw u32 payload bytes before encoding");
    n.encode_bytes_encoded = reg.GetCounter(
        "codec.encode.bytes_encoded", "By",
        "payload bytes after delta+varint encoding");
    n.decode_sets = reg.GetCounter(
        "codec.decode.sets", "1", "encoded sets fully materialized");
    n.decode_values = reg.GetCounter(
        "codec.decode.values", "1",
        "values decoded by full materializations");
    n.intersect_fused = reg.GetCounter(
        "codec.intersect.fused", "1",
        "intersections served by the fused encoded kernels");
    n.intersect_fallback = reg.GetCounter(
        "codec.intersect.fallback_decodes", "1",
        "operand materializations the fused kernels could not avoid");
    return n;
  }();
  return c;
}

// Decode block driven through the cursor by the fused kernels: big
// enough to amortize the cursor dispatch, small enough to stay in L1.
constexpr size_t kFusedBlock = 256;

bool Excluded(VertexId v, const VertexId* excludes, size_t n) {
  for (size_t k = 0; k < n; ++k) {
    if (excludes[k] == v) return true;
  }
  return false;
}

}  // namespace

bool CompressionEnabled(bool requested) {
  static const bool env_disabled = [] {
    const char* env = std::getenv("BENU_DISABLE_COMPRESSION");
    return env != nullptr && env[0] == '1';
  }();
  return requested && !env_disabled;
}

void Encode(VertexSetView set, EncodedSet* out) {
  out->count = static_cast<uint32_t>(set.size);
  out->bytes.clear();
  if (set.size == 0) return;
  out->bytes.reserve(set.size + 4);  // common case: ~1 byte per delta
  // prev starts at -1 (mod 2^32), so the first "delta" is v[0] + 1 and
  // every stored varint obeys the same d >= 1 rule.
  uint32_t prev = 0xFFFFFFFFu;
  for (size_t i = 0; i < set.size; ++i) {
    const uint64_t delta =
        static_cast<uint64_t>(set.data[i]) - prev;  // mod 2^64 is exact
    AppendVarint(i == 0 ? static_cast<uint64_t>(set.data[0]) + 1 : delta,
                 &out->bytes);
    prev = set.data[i];
  }
}

namespace {

// Shared scan for Validate/DecodeValidated: checks structure and either
// discards or emits the decoded values; `*last` receives the final one.
Status ValidateImpl(const uint8_t* data, size_t size, uint32_t count,
                    VertexSet* out, VertexId* last) {
  const uint8_t* p = data;
  const uint8_t* end = data + size;
  uint32_t prev = 0xFFFFFFFFu;
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t delta = 0;
    int shift = 0;
    int nbytes = 0;
    uint8_t byte = 0;
    while (true) {
      if (p == end) {
        return Status::InvalidArgument(
            "encoded adjacency: varint truncated mid-value");
      }
      if (++nbytes > kMaxVarintBytes) {
        return Status::InvalidArgument(
            "encoded adjacency: varint longer than 5 bytes");
      }
      byte = *p++;
      delta |= static_cast<uint64_t>(byte & 0x7F) << shift;
      shift += 7;
      if ((byte & 0x80) == 0) break;
    }
    if (nbytes > 1 && byte == 0) {
      // Minimal-length varints only: keeps the encoding canonical, so a
      // valid stream always round-trips byte-exactly through Encode.
      return Status::InvalidArgument(
          "encoded adjacency: non-minimal varint");
    }
    if (delta == 0 || delta > kMaxDelta) {
      return Status::InvalidArgument(
          "encoded adjacency: delta out of range (must be in [1, 2^32])");
    }
    const uint64_t value = static_cast<uint64_t>(prev) + delta;
    // value is the decoded entry + 2^32 when prev wraps; normalize mod
    // 2^32 and check it stays strictly ascending in 32 bits.
    const uint32_t v = static_cast<uint32_t>(value);
    if (i > 0 && v <= prev) {
      return Status::InvalidArgument(
          "encoded adjacency: decoded sequence overflows 32 bits");
    }
    prev = v;
    if (out != nullptr) out->push_back(v);
  }
  if (p != end) {
    return Status::InvalidArgument(
        "encoded adjacency: trailing bytes after last value");
  }
  if (last != nullptr && count > 0) *last = prev;
  return Status::OK();
}

}  // namespace

Status Validate(const uint8_t* data, size_t size, uint32_t count,
                VertexId* last) {
  return ValidateImpl(data, size, count, nullptr, last);
}

Status DecodeValidated(const uint8_t* data, size_t size, uint32_t count,
                       VertexSet* out) {
  out->clear();
  out->reserve(count);
  Status st = ValidateImpl(data, size, count, out, nullptr);
  if (!st.ok()) out->clear();
  return st;
}

DecodeCursor::DecodeCursor(const uint8_t* data, size_t size, uint32_t count)
    : p_(data), end_(data + size), remaining_(count) {}

size_t DecodeCursor::Next(VertexId* out, size_t max) {
  size_t n = 0;
  if (max > remaining_) max = remaining_;
  // The vector decoder needs a couple of 8-value runs to pay for its
  // setup; short sets (the common case in graph sweeps) stay scalar.
  const bool use_simd = simd::SimdEnabled() && max >= 16;
  while (n < max) {
    if (use_simd) {
      n += simd::DecodeDeltaBlocksAvx2(&p_, end_, &prev_, out + n, max - n);
      if (n >= max) break;
    }
    // Scalar decode of one varint; re-probes the vector path afterwards
    // so a lone multi-byte delta does not demote the whole stream.
    uint32_t delta = 0;
    int shift = 0;
    uint8_t byte;
    do {
      byte = *p_++;
      delta |= static_cast<uint32_t>(byte & 0x7F) << shift;
      shift += 7;
    } while ((byte & 0x80) != 0);
    prev_ += delta;  // wraps correctly for the shifted first entry
    out[n++] = prev_;
  }
  remaining_ -= static_cast<uint32_t>(n);
  return n;
}

void DecodeAll(const EncodedSet& set, VertexSet* out) {
  out->resize(set.count);
  DecodeCursor cursor(set);
  cursor.Next(out->data(), set.count);
}

void DecodeClamped(const EncodedSet& set, VertexId lo, VertexId hi,
                   const VertexId* excludes, size_t n_excludes,
                   VertexSet* out) {
  out->clear();
  if (lo >= hi || set.count == 0) return;
  DecodeCursor cursor(set);
  VertexId buf[kFusedBlock];
  size_t n;
  while ((n = cursor.Next(buf, kFusedBlock)) != 0) {
    if (buf[n - 1] < lo) continue;  // whole block below the window
    for (size_t i = 0; i < n; ++i) {
      const VertexId v = buf[i];
      if (v < lo) continue;
      if (v >= hi) return;  // ascending: nothing further qualifies
      if (!Excluded(v, excludes, n_excludes)) out->push_back(v);
    }
  }
}

namespace {

// Intersects a decoded block [ap, ap+na) with the matching slice of b,
// appending survivors (minus excludes) to out. b values <= the block's
// last element are consumed either way — later blocks are strictly
// larger — so the caller advances its b cursor to the returned pointer.
const VertexId* IntersectBlock(const VertexId* ap, size_t na,
                               const VertexId* bp, const VertexId* be,
                               const VertexId* excludes, size_t n_excludes,
                               VertexSet* out) {
  const VertexId* b_hi = std::upper_bound(bp, be, ap[na - 1]);
  const size_t nb = static_cast<size_t>(b_hi - bp);
  if (nb == 0) return b_hi;
  if (nb * 8 < na) {
    // Skewed slice: binary-search each b value inside the block instead
    // of streaming the whole block (mirrors Intersect's gallop path).
    const VertexId* ae = ap + na;
    for (; bp != b_hi; ++bp) {
      ap = std::lower_bound(ap, ae, *bp);
      if (ap == ae) break;
      if (*ap == *bp && !Excluded(*bp, excludes, n_excludes)) {
        out->push_back(*bp);
      }
    }
    return b_hi;
  }
  if (simd::SimdEnabled()) {
    // +8 slack: the AVX2 epilogue stores a full lane block.
    VertexId tmp[kFusedBlock + 8];
    const size_t m = simd::IntersectAvx2(ap, na, bp, nb, tmp);
    if (n_excludes == 0) {
      out->insert(out->end(), tmp, tmp + m);
    } else {
      for (size_t i = 0; i < m; ++i) {
        if (!Excluded(tmp[i], excludes, n_excludes)) out->push_back(tmp[i]);
      }
    }
    return b_hi;
  }
  const VertexId* ae = ap + na;
  while (ap != ae && bp != b_hi) {
    if (*ap < *bp) {
      ++ap;
    } else if (*bp < *ap) {
      ++bp;
    } else {
      if (!Excluded(*ap, excludes, n_excludes)) out->push_back(*ap);
      ++ap;
      ++bp;
    }
  }
  return b_hi;
}

}  // namespace

void IntersectEncoded(const EncodedSet& set, VertexSetView b, VertexId lo,
                      VertexId hi, const VertexId* excludes,
                      size_t n_excludes, VertexSet* out) {
  out->clear();
  if (lo >= hi || set.count == 0) return;
  // Clamping b clamps the intersection, and lets decoding stop as soon
  // as the clamped b is exhausted.
  b = ClampView(b, lo, hi);
  if (b.empty()) return;
  const VertexId* bp = b.begin();
  const VertexId* be = b.end();
  DecodeCursor cursor(set);
  VertexId buf[kFusedBlock];
  size_t n;
  while (bp != be && (n = cursor.Next(buf, kFusedBlock)) != 0) {
    if (buf[n - 1] < *bp) continue;  // whole block below b's cursor
    bp = IntersectBlock(buf, n, bp, be, excludes, n_excludes, out);
  }
}

size_t IntersectSizeEncoded(const EncodedSet& set, VertexSetView b,
                            size_t limit) {
  if (set.count == 0 || b.empty() || limit == 0) return 0;
  const VertexId* bp = b.begin();
  const VertexId* be = b.end();
  DecodeCursor cursor(set);
  VertexId buf[kFusedBlock];
  size_t count = 0;
  size_t n;
  const bool use_simd = simd::SimdEnabled();
  while (bp != be && (n = cursor.Next(buf, kFusedBlock)) != 0) {
    if (buf[n - 1] < *bp) continue;
    const VertexId* b_hi = std::upper_bound(bp, be, buf[n - 1]);
    const size_t nb = static_cast<size_t>(b_hi - bp);
    if (nb * 8 < n) {
      const VertexId* ap = buf;
      const VertexId* ae = buf + n;
      for (; bp != b_hi; ++bp) {
        ap = std::lower_bound(ap, ae, *bp);
        if (ap == ae) break;
        if (*ap == *bp && ++count >= limit) return count;
      }
      bp = b_hi;
      continue;
    }
    if (use_simd) {
      count += simd::IntersectSizeAvx2(buf, n, bp, nb, limit - count);
      bp = b_hi;
      if (count >= limit) return count;
      continue;
    }
    const VertexId* ap = buf;
    const VertexId* ae = buf + n;
    while (ap != ae && bp != be) {
      if (*ap < *bp) {
        ++ap;
      } else if (*bp < *ap) {
        ++bp;
      } else {
        if (++count >= limit) return count;
        ++ap;
        ++bp;
      }
    }
  }
  return count;
}

void NoteEncoded(size_t sets, size_t raw_bytes, size_t encoded_bytes) {
  CodecCounters& c = Counters();
  c.encode_sets->Add(sets);
  c.encode_bytes_raw->Add(raw_bytes);
  c.encode_bytes_encoded->Add(encoded_bytes);
}

void NoteDecoded(size_t values) {
  CodecCounters& c = Counters();
  c.decode_sets->Add(1);
  c.decode_values->Add(values);
}

void NoteFusedIntersects(size_t n) {
  if (n != 0) Counters().intersect_fused->Add(n);
}

void NoteFallbackDecodes(size_t n) {
  if (n != 0) Counters().intersect_fallback->Add(n);
}

}  // namespace benu::codec
