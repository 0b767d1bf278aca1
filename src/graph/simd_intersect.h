#ifndef BENU_GRAPH_SIMD_INTERSECT_H_
#define BENU_GRAPH_SIMD_INTERSECT_H_

#include <cstddef>
#include <cstdint>

namespace benu {
namespace simd {

/// Vectorized sorted-set intersection kernels for the executor hot loop.
///
/// The AVX2 kernels are compiled with per-function target attributes, so
/// the library builds on any x86-64 (or non-x86) toolchain without global
/// -mavx2; the choice between the vector and scalar paths is made once at
/// startup from CPUID and can be overridden:
///   - environment: BENU_DISABLE_SIMD=1 forces the portable scalar path;
///   - programmatically: SetSimdEnabled(false/true), used by the
///     differential tests to run both paths inside one binary.
///
/// All kernels operate on strictly ascending uint32 sequences (the
/// VertexSet invariant) and produce exactly the same output, in the same
/// order, as the scalar merge: callers may mix paths freely without
/// changing results.

/// True iff the AVX2 kernels are compiled in and the running CPU supports
/// them and they have not been disabled.
bool SimdEnabled();

/// Overrides kernel selection at runtime (tests / benchmarks). Enabling
/// has no effect when the CPU lacks AVX2 or the kernels were not compiled
/// in; returns the resulting effective state.
bool SetSimdEnabled(bool enabled);

/// Name of the active intersection kernel family: "avx2" or "scalar".
const char* ActiveKernelName();

/// Intersects a[0..na) with b[0..nb) into out, returning the number of
/// elements written. `out` must have room for min(na, nb) + 8 elements:
/// the vector epilogue stores a full 8-lane block of which only the
/// leading lanes are valid. Requires AVX2 (call only when SimdEnabled()).
size_t IntersectAvx2(const uint32_t* a, size_t na, const uint32_t* b,
                     size_t nb, uint32_t* out);

/// Returns |a ∩ b| without materializing it, stopping early once the
/// count reaches `limit`. Requires AVX2 (call only when SimdEnabled()).
size_t IntersectSizeAvx2(const uint32_t* a, size_t na, const uint32_t* b,
                         size_t nb, size_t limit);

}  // namespace simd
}  // namespace benu

#endif  // BENU_GRAPH_SIMD_INTERSECT_H_
