// Position-reporting intersection of sorted, duplicate-free uint32 sets.
//
// This is the kernel family behind the similarity map's gather build
// (core/similarity.cpp): the Tanimoto numerator
// a_u · a_v needs, for every common neighbor k of a vertex pair, the *slots*
// of k inside both CSR adjacency rows — the parallel weight and edge-id
// arrays are indexed by those slots. So unlike a plain set intersection the
// kernels emit (position-in-a, position-in-b) pairs, in ascending element
// order, which is exactly the canonical common-ascending summation order the
// build relies on for bitwise-reproducible scores.
//
// Three variants plus a dispatcher:
//   kScalar:    two-pointer merge; terminates as soon as either side is
//               exhausted (the "early exit" — rows rarely overlap fully).
//   kGalloping: iterates the smaller side, locating each element in the
//               larger by exponential probe + binary search from a moving
//               cursor. O(ns log(ng/ns)) — wins when rows differ in length
//               by a large factor (hub vs leaf degrees).
//   kSimd:      4x4 SSE2 (8x8 AVX2 when the CPU has it) all-pairs block
//               compare via lane rotations, scalar tail. Compiled only when
//               the tree is configured with -DLC_SIMD=ON *and* targets
//               x86-64; AVX2 is selected at runtime via cpuid so one binary
//               serves both microarchitectures.
//   kAuto:      galloping when the length ratio is >= 16, else SIMD when
//               available, else scalar.
//
// The LC_INTERSECT_KERNEL environment variable (auto | scalar | galloping |
// simd), read once per process, overrides the caller's choice — it lets the
// CI sanitizer legs and the equivalence tests force every variant through
// the full clustering stack without plumbing. A malformed value aborts via
// LC_CHECK: a typo that silently fell back to auto would un-force the very
// path the test meant to pin.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace lc::numeric {

enum class IntersectKernel : std::uint8_t {
  kAuto = 0,
  kScalar,
  kGalloping,
  kSimd,
};

/// One match: a[a_pos] == b[b_pos].
struct MatchPos {
  std::uint32_t a_pos = 0;
  std::uint32_t b_pos = 0;

  friend bool operator==(const MatchPos&, const MatchPos&) = default;
};

/// Intersects sorted duplicate-free `a` and `b`, writing one MatchPos per
/// common element into `out` (which must have room for min(|a|, |b|)
/// entries), ascending by element value. Returns the number of matches.
/// Every kernel produces the identical output array.
std::size_t set_intersect_posns(std::span<const std::uint32_t> a,
                                std::span<const std::uint32_t> b, MatchPos* out,
                                IntersectKernel kernel = IntersectKernel::kAuto);

/// True when the SSE/AVX2 kernels were compiled in (LC_SIMD=ON on x86-64).
[[nodiscard]] bool simd_compiled();

/// True when kSimd actually runs vectorized on this machine. When false, a
/// kSimd request (explicit or forced by env) silently degrades to kScalar —
/// the portable fallback the LC_SIMD=OFF CI leg exercises.
[[nodiscard]] bool simd_available();

/// The process-wide kernel override from LC_INTERSECT_KERNEL (cached on
/// first call); kAuto when the variable is unset or empty.
[[nodiscard]] IntersectKernel forced_kernel_from_env();

/// Stable lowercase name ("auto", "scalar", ...) for logs and bench JSON.
[[nodiscard]] const char* kernel_name(IntersectKernel kernel);

}  // namespace lc::numeric
