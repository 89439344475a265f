// Classic disjoint-set union with the "minimum element is the canonical
// label" policy, matching the paper's cluster-id convention (Theorem 1).
//
// Used (a) as the verification oracle for ClusterArray in tests, (b) to
// replay dendrogram merges cheaply, (c) as the ablation comparator for the
// paper's min-relink chain structure (bench/ablation_unionfind), and (d) by
// both modes' sweeps over the spanning-forest pairs (core/forest.hpp,
// core/coarse.hpp). The coarse sweep passes a journal, which gets one
// {node, old_parent} entry per parent write: a union attaching root `node`
// (old_parent == node) or a path-compression shortcut (any other entry).
#pragma once

#include <cstdint>
#include <vector>

namespace lc::core {

class MinDsu {
 public:
  struct JournalEntry {
    std::uint32_t node = 0;
    std::uint32_t old_parent = 0;
  };
  using Journal = std::vector<JournalEntry>;

  explicit MinDsu(std::size_t n);

  /// Restores the state that labels() captured: every element points
  /// straight at its set minimum. `labels[i] <= i` must hold.
  explicit MinDsu(std::vector<std::uint32_t> labels);

  /// Canonical label of i's set: the minimum member (with path compression).
  std::uint32_t find(std::uint32_t i);

  /// Unions the two sets; returns true if they were distinct.
  bool unite(std::uint32_t a, std::uint32_t b);

  /// find() and unite() that append every parent write to `journal`.
  std::uint32_t find(std::uint32_t i, Journal& journal);
  bool unite(std::uint32_t a, std::uint32_t b, Journal& journal);

  /// Rewinds `journal` newest first, restoring the exact parent array and
  /// set count from before its first entry (every write since is in it).
  void undo(const Journal& journal);

  [[nodiscard]] std::size_t set_count() const { return sets_; }

  /// Canonical label per element.
  std::vector<std::uint32_t> labels();

  /// The raw parent array, for tests of undo's exactness.
  [[nodiscard]] const std::vector<std::uint32_t>& parents() const { return parent_; }

 private:
  std::vector<std::uint32_t> parent_;  ///< parent pointers; roots are set minima
  std::size_t sets_;
};

/// Union entries of `journal` (the roots that fell), ascending by node — the
/// deterministic emission order for a chunk's dendrogram events.
std::vector<std::uint32_t> journal_losers_sorted(const MinDsu::Journal& journal);

}  // namespace lc::core
