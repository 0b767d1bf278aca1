#include "graph/simd_intersect.h"

#include <atomic>
#include <cstdlib>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define BENU_HAVE_AVX2_KERNELS 1
#include <immintrin.h>
#else
#define BENU_HAVE_AVX2_KERNELS 0
#endif

namespace benu {
namespace simd {
namespace {

// Portable reference used as the tail loop of the vector kernels and as
// the whole kernel when AVX2 is unavailable. Mirrors IntersectMerge in
// vertex_set.cc so every path emits identical output.
size_t ScalarTail(const uint32_t* a, const uint32_t* ea, const uint32_t* b,
                  const uint32_t* eb, uint32_t* out) {
  size_t count = 0;
  while (a != ea && b != eb) {
    if (*a < *b) {
      ++a;
    } else if (*b < *a) {
      ++b;
    } else {
      out[count++] = *a;
      ++a;
      ++b;
    }
  }
  return count;
}

size_t ScalarTailSize(const uint32_t* a, const uint32_t* ea, const uint32_t* b,
                      const uint32_t* eb, size_t count, size_t limit) {
  while (a != ea && b != eb && count < limit) {
    if (*a < *b) {
      ++a;
    } else if (*b < *a) {
      ++b;
    } else {
      ++count;
      ++a;
      ++b;
    }
  }
  return count;
}

#if BENU_HAVE_AVX2_KERNELS

// kCompress[m] permutes the lanes selected by bitmask m to the front, the
// compress-store idiom for AVX2 (which lacks AVX-512's vpcompressd).
struct CompressTable {
  alignas(32) uint32_t idx[256][8];
};

constexpr CompressTable MakeCompressTable() {
  CompressTable t{};
  for (int m = 0; m < 256; ++m) {
    int k = 0;
    for (int lane = 0; lane < 8; ++lane) {
      if (m & (1 << lane)) t.idx[m][k++] = static_cast<uint32_t>(lane);
    }
    for (; k < 8; ++k) t.idx[m][k] = 0;
  }
  return t;
}

constexpr CompressTable kCompress = MakeCompressTable();

// Bitmask of lanes of va that equal ANY lane of vb. Because both blocks
// come from strictly ascending sequences, each va lane matches at most
// one vb lane, so the OR over the 8 cyclic rotations is exact.
__attribute__((target("avx2"))) inline int BlockMatchMask(__m256i va,
                                                          __m256i vb) {
  const __m256i rotate = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
  __m256i cmp = _mm256_cmpeq_epi32(va, vb);
  for (int r = 1; r < 8; ++r) {
    vb = _mm256_permutevar8x32_epi32(vb, rotate);
    cmp = _mm256_or_si256(cmp, _mm256_cmpeq_epi32(va, vb));
  }
  return _mm256_movemask_ps(_mm256_castsi256_ps(cmp));
}

#endif  // BENU_HAVE_AVX2_KERNELS

bool CpuHasAvx2() {
#if BENU_HAVE_AVX2_KERNELS
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> enabled = [] {
    const char* env = std::getenv("BENU_DISABLE_SIMD");
    const bool disabled = env != nullptr && env[0] == '1';
    return CpuHasAvx2() && !disabled;
  }();
  return enabled;
}

}  // namespace

bool SimdEnabled() { return EnabledFlag().load(std::memory_order_relaxed); }

bool SetSimdEnabled(bool enabled) {
  const bool effective = enabled && CpuHasAvx2();
  EnabledFlag().store(effective, std::memory_order_relaxed);
  return effective;
}

const char* ActiveKernelName() { return SimdEnabled() ? "avx2" : "scalar"; }

#if BENU_HAVE_AVX2_KERNELS

__attribute__((target("avx2"))) size_t IntersectAvx2(const uint32_t* a,
                                                     size_t na,
                                                     const uint32_t* b,
                                                     size_t nb, uint32_t* out) {
  size_t i = 0;
  size_t j = 0;
  size_t count = 0;
  // Block-wise all-pairs comparison: advance the block whose max is
  // smaller (both when equal). Any common value ≤ min(a_max, b_max) lies
  // in the current block pair, so nothing is skipped; emitting from va
  // lanes only means nothing is double-counted.
  while (i + 8 <= na && j + 8 <= nb) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    const uint32_t a_max = a[i + 7];
    const uint32_t b_max = b[j + 7];
    const int mask = BlockMatchMask(va, vb);
    const __m256i idx = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(kCompress.idx[mask]));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + count),
                        _mm256_permutevar8x32_epi32(va, idx));
    count += static_cast<size_t>(__builtin_popcount(
        static_cast<unsigned>(mask)));
    if (a_max <= b_max) i += 8;
    if (b_max <= a_max) j += 8;
  }
  return count + ScalarTail(a + i, a + na, b + j, b + nb, out + count);
}

__attribute__((target("avx2"))) size_t IntersectSizeAvx2(const uint32_t* a,
                                                         size_t na,
                                                         const uint32_t* b,
                                                         size_t nb,
                                                         size_t limit) {
  size_t i = 0;
  size_t j = 0;
  size_t count = 0;
  while (i + 8 <= na && j + 8 <= nb && count < limit) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    const uint32_t a_max = a[i + 7];
    const uint32_t b_max = b[j + 7];
    count += static_cast<size_t>(__builtin_popcount(
        static_cast<unsigned>(BlockMatchMask(va, vb))));
    if (a_max <= b_max) i += 8;
    if (b_max <= a_max) j += 8;
  }
  if (count >= limit) return limit;
  return ScalarTailSize(a + i, a + na, b + j, b + nb, count, limit);
}

#else  // !BENU_HAVE_AVX2_KERNELS

// Safe stand-ins so misdirected calls still compute the right answer on
// platforms without the vector kernels (SimdEnabled() is always false
// there, so the dispatcher never takes this path).
size_t IntersectAvx2(const uint32_t* a, size_t na, const uint32_t* b,
                     size_t nb, uint32_t* out) {
  return ScalarTail(a, a + na, b, b + nb, out);
}

size_t IntersectSizeAvx2(const uint32_t* a, size_t na, const uint32_t* b,
                         size_t nb, size_t limit) {
  return ScalarTailSize(a, a + na, b, b + nb, 0, limit);
}

#endif  // BENU_HAVE_AVX2_KERNELS

}  // namespace simd
}  // namespace benu
