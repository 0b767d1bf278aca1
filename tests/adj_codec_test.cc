// Round-trip and fuzz suite for the delta+varint adjacency codec:
// round-trips must be byte-exact, EncodedBytes must size exactly what
// Encode writes, and Validate / DecodeValidated must reject every
// malformed stream without crashing (the suite is also wired into the
// ASan/UBSan CI job). ctest runs it twice: adj_codec_test and
// adj_codec_test_scalar with BENU_DISABLE_SIMD=1. The same adversarial
// streams are fed through the wire-reply decoder in wire_fuzz_test.

#include "graph/adj_codec.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "graph/vertex_set.h"

namespace benu {
namespace {

VertexSet RandomSorted(Rng* rng, size_t size, uint64_t universe) {
  VertexSet s;
  s.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    s.push_back(static_cast<VertexId>(rng->NextBounded(universe)));
  }
  std::sort(s.begin(), s.end());
  s.erase(std::unique(s.begin(), s.end()), s.end());
  return s;
}

TEST(AdjCodecTest, EncodesKnownStreams) {
  codec::EncodedSet enc;
  codec::Encode(VertexSetView(), &enc);
  EXPECT_EQ(enc.count, 0u);
  EXPECT_TRUE(enc.bytes.empty());

  // {0} stores the shifted first entry 0 + 1 = 1 as a single byte.
  VertexSet zero = {0};
  codec::Encode(zero, &enc);
  ASSERT_EQ(enc.bytes, std::vector<uint8_t>({0x01}));

  // {2, 5, 6}: first varint 3 (=2+1), then deltas 3 and 1.
  VertexSet small = {2, 5, 6};
  codec::Encode(small, &enc);
  EXPECT_EQ(enc.count, 3u);
  EXPECT_EQ(enc.bytes, std::vector<uint8_t>({0x03, 0x03, 0x01}));

  // A delta of 300 = 0b10'0101100 needs two bytes: 0xAC 0x02.
  VertexSet wide = {10, 310};
  codec::Encode(wide, &enc);
  EXPECT_EQ(enc.bytes, std::vector<uint8_t>({0x0B, 0xAC, 0x02}));
}

TEST(AdjCodecTest, RoundTripsRandomSetsByteExact) {
  Rng rng(20260808);
  const size_t sizes[] = {0, 1, 2, 7, 8, 9, 15, 16, 17, 63, 64,
                          100, 255, 256, 257, 1000, 4096};
  for (size_t size : sizes) {
    for (uint64_t universe :
         {uint64_t{4}, uint64_t{1} << 10, uint64_t{1} << 20,
          uint64_t{1} << 31}) {
      VertexSet original = RandomSorted(&rng, size, universe);
      codec::EncodedSet enc;
      codec::Encode(original, &enc);
      EXPECT_EQ(enc.count, original.size());

      EXPECT_EQ(codec::EncodedBytes(original), enc.bytes.size());

      VertexSet decoded;
      Status st = codec::DecodeValidated(enc.bytes.data(), enc.bytes.size(),
                                         enc.count, &decoded);
      ASSERT_TRUE(st.ok()) << st.ToString();
      EXPECT_EQ(decoded, original) << "size=" << size << " u=" << universe;

      // Re-encoding the decode reproduces the bytes (canonical form).
      codec::EncodedSet enc2;
      codec::Encode(decoded, &enc2);
      EXPECT_EQ(enc2.bytes, enc.bytes);
    }
  }
}

TEST(AdjCodecTest, RoundTripsAdversarialBoundaryValues) {
  // Values that stress varint width transitions, the shifted first
  // entry, 32-bit extremes, and dense single-byte-delta runs.
  std::vector<VertexSet> cases = {
      {0},
      {0xFFFFFFFEu},
      {0, 0xFFFFFFFEu},
      {0x7Eu, 0x7Fu, 0x80u, 0x81u},
      {0x3FFFu, 0x4000u, 0x4001u},
      {0x1FFFFFu, 0x200000u},
      {0xFFFFFFFu, 0x10000000u},
  };
  // 0, 1, 2, ..., 299: maximally dense (every delta one byte).
  VertexSet dense(300);
  for (size_t i = 0; i < dense.size(); ++i) {
    dense[i] = static_cast<VertexId>(i);
  }
  cases.push_back(dense);
  for (const VertexSet& original : cases) {
    codec::EncodedSet enc;
    codec::Encode(original, &enc);
    EXPECT_EQ(codec::EncodedBytes(original), enc.bytes.size());
    VertexSet decoded;
    ASSERT_TRUE(codec::DecodeValidated(enc.bytes.data(), enc.bytes.size(),
                                       enc.count, &decoded)
                    .ok());
    EXPECT_EQ(decoded, original);
    EXPECT_TRUE(
        codec::Validate(enc.bytes.data(), enc.bytes.size(), enc.count).ok());
  }
}

TEST(AdjCodecFuzzTest, ValidateRejectsMalformedStreams) {
  // Hand-built adversarial streams. None may crash; all must be errors.
  struct Case {
    const char* what;
    std::vector<uint8_t> bytes;
    uint32_t count;
  };
  const std::vector<Case> cases = {
      {"truncated mid-varint", {0x80}, 1},
      {"missing values", {0x01}, 2},
      {"trailing bytes", {0x01, 0x01}, 1},
      {"zero delta", {0x01, 0x00}, 2},
      {"varint too long", {0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, 1},
      {"non-minimal varint", {0x81, 0x00}, 1},
      {"delta over 2^32", {0xFF, 0xFF, 0xFF, 0xFF, 0x1F}, 1},
      {"sequence overflows u32",
       // first value 0xFFFFFFFE (varint of 0xFFFFFFFF), then delta 2.
       {0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0x02},
       2},
      {"count without bytes", {}, 1},
      // A count no stream of this length can hold: rejected before the
      // decode allocates for it.
      {"count past the stream", {0x01, 0x01}, 0xFFFFFFFFu},
  };
  for (const Case& c : cases) {
    EXPECT_FALSE(
        codec::Validate(c.bytes.data(), c.bytes.size(), c.count).ok())
        << c.what;
    VertexSet out = {7};
    EXPECT_FALSE(codec::DecodeValidated(c.bytes.data(), c.bytes.size(),
                                        c.count, &out)
                     .ok())
        << c.what;
    EXPECT_TRUE(out.empty()) << c.what;
  }
  // Empty stream with count 0 is the canonical empty set.
  EXPECT_TRUE(codec::Validate(nullptr, 0, 0).ok());
}

TEST(AdjCodecFuzzTest, RandomByteSoupNeverCrashes) {
  Rng rng(31337);
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t size = rng.NextBounded(64);
    std::vector<uint8_t> bytes(size);
    for (auto& b : bytes) {
      b = static_cast<uint8_t>(rng.NextBounded(256));
    }
    const uint32_t count = static_cast<uint32_t>(rng.NextBounded(80));
    VertexSet out;
    Status st =
        codec::DecodeValidated(bytes.data(), bytes.size(), count, &out);
    if (st.ok()) {
      // Whatever survives validation must be a strictly ascending set of
      // exactly `count` values that round-trips to the same bytes.
      ASSERT_EQ(out.size(), count);
      EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
      EXPECT_TRUE(std::adjacent_find(out.begin(), out.end()) == out.end());
      codec::EncodedSet re;
      codec::Encode(out, &re);
      EXPECT_EQ(re.bytes, bytes);
    } else {
      EXPECT_TRUE(out.empty());
    }
  }
}

TEST(AdjCodecTest, CompressionRatioOnRelabeledLikeSets) {
  // Dense neighborhoods (the relabeled-graph regime) must encode in
  // under half their raw u32 size.
  Rng rng(5150);
  VertexSet dense = RandomSorted(&rng, 4000, 12000);
  codec::EncodedSet enc;
  codec::Encode(dense, &enc);
  EXPECT_LT(enc.bytes.size() * 2, enc.raw_bytes());
}

TEST(AdjCodecTest, CompressionEnabledHonorsRequest) {
  // The env kill switch is exercised by the CI forced-uncompressed legs;
  // here only the request plumbing (no env set in ctest runs).
  EXPECT_FALSE(codec::CompressionEnabled(false));
}

}  // namespace
}  // namespace benu
