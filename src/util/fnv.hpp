// FNV-1a, 64-bit: the checksum of the merge-list footer
// (core/dendrogram_io), of LCSNAP01 snapshot sections (util/snapshot_io) and
// of the graph fingerprint (core/checkpoint).
#pragma once

#include <cstddef>
#include <cstdint>

namespace lc {

inline constexpr std::uint64_t kFnv1a64Basis = 14695981039346656037ull;

/// FNV-1a over `size` bytes, seedable for incremental use: hashing b with
/// the hash of a as the seed gives the hash of a followed by b.
[[nodiscard]] inline std::uint64_t fnv1a64(const void* data, std::size_t size,
                                           std::uint64_t seed = kFnv1a64Basis) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t hash = seed;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace lc
