// Edge enumeration for the sweeping phase.
//
// The paper enumerates the edges of G "in a random order" and uses the
// position in that permutation as the edge's index in array C (Algorithm 2,
// lines 6-9, the map I). EdgeIndex holds that (optionally shuffled)
// permutation; results are partition-invariant to the order (tested), but the
// specific cluster ids and merge sequence depend on it, so the seed is
// explicit for reproducibility.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace lc::core {

/// An edge's position in the enumeration: its slot in array C, and the
/// cluster ids of the dendrogram (a cluster's id is its minimum index).
using EdgeIdx = std::uint32_t;

enum class EdgeOrder {
  kNatural,   ///< index = canonical edge id
  kShuffled,  ///< seeded Fisher–Yates permutation (the paper's choice)
};

class EdgeIndex {
 public:
  EdgeIndex() = default;
  EdgeIndex(std::size_t edge_count, EdgeOrder order, std::uint64_t seed = 42);

  [[nodiscard]] std::size_t size() const { return to_edge_.size(); }

  /// I[e]: index of edge id `e` in the sweep's permutation.
  [[nodiscard]] EdgeIdx index_of(graph::EdgeId id) const { return to_index_[id]; }

  /// Inverse: edge id at permutation position `idx`.
  [[nodiscard]] graph::EdgeId edge_at(EdgeIdx idx) const { return to_edge_[idx]; }

 private:
  std::vector<EdgeIdx> to_index_;
  std::vector<graph::EdgeId> to_edge_;
};

}  // namespace lc::core
