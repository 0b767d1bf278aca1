#include "graph/adj_codec.h"

#include <cstdlib>

#include "common/metrics.h"

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
        "codec.decode.sets", "1",
        "encoded replies decoded once, where they enter the process");
    n.decode_values = reg.GetCounter(
        "codec.decode.values", "1",
        "vertex ids produced by those decodes");
    return n;
  }();
  return c;
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

size_t EncodedBytes(VertexSetView set) {
  size_t bytes = 0;
  uint64_t prev_plus_one = 0;  // the shifted previous value, v[i-1] + 1
  for (size_t i = 0; i < set.size; ++i) {
    const uint64_t shifted = static_cast<uint64_t>(set.data[i]) + 1;
    uint64_t delta = shifted - prev_plus_one;
    prev_plus_one = shifted;
    do {
      ++bytes;
      delta >>= 7;
    } while (delta != 0);
  }
  return bytes;
}

namespace {

// Shared scan for Validate/DecodeValidated: checks structure and either
// discards or emits the decoded values.
Status ValidateImpl(const uint8_t* data, size_t size, uint32_t count,
                    VertexSet* out) {
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
  return Status::OK();
}

}  // namespace

Status Validate(const uint8_t* data, size_t size, uint32_t count) {
  return ValidateImpl(data, size, count, nullptr);
}

Status DecodeValidated(const uint8_t* data, size_t size, uint32_t count,
                       VertexSet* out) {
  out->clear();
  // Every varint takes at least one byte, so `size` bounds a count read
  // off the wire before anything is allocated for it.
  out->reserve(count < size ? count : size);
  Status st = ValidateImpl(data, size, count, out);
  if (!st.ok()) out->clear();
  return st;
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

}  // namespace benu::codec
