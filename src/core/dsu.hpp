// Classic disjoint-set union with the "minimum element is the canonical
// label" policy, matching the paper's cluster-id convention (Theorem 1).
//
// Used (a) as the verification oracle for ClusterArray in tests, (b) to
// replay dendrogram merges cheaply, (c) as the ablation comparator for the
// paper's min-relink chain structure (bench/ablation_unionfind), and (d) by
// the fine mode's merge pass over the spanning-forest pairs (core/forest.hpp).
#pragma once

#include <cstdint>
#include <vector>

namespace lc::core {

class MinDsu {
 public:
  explicit MinDsu(std::size_t n);

  /// Restores the state that labels() captured: every element points
  /// straight at its set minimum. `labels[i] <= i` must hold.
  explicit MinDsu(std::vector<std::uint32_t> labels);

  /// Canonical label of i's set: the minimum member (with path compression).
  std::uint32_t find(std::uint32_t i);

  /// Unions the two sets; returns true if they were distinct.
  bool unite(std::uint32_t a, std::uint32_t b);

  [[nodiscard]] std::size_t set_count() const { return sets_; }

  /// Canonical label per element.
  std::vector<std::uint32_t> labels();

 private:
  std::vector<std::uint32_t> parent_;  ///< parent pointers; roots are set minima
  std::size_t sets_;
};

}  // namespace lc::core
