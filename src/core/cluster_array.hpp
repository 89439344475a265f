// Array C and the chain function F of the paper's sweeping phase (§IV-B).
//
// C has one slot per edge; C[i] = i initially. F(i) follows the chain
// i -> C[i] -> C[C[i]] -> ... to its fixed point (Eq. 4). Every merge rewrites
// all chain elements to the minimum edge index of the union, so cluster ids
// are always the minimum edge index of the cluster (Theorem 1) and values in
// C only ever decrease.
//
// merge_from() implements the §VI-B parallel array-merge: the corrected
// scheme updates every e in F0(i) ∪ F1(i) ∪ F0(min F1(i)) — the third term is
// the fix for the flaw the paper demonstrates; the flawed variant is kept
// (behind a flag) so tests can reproduce the paper's counterexample.
#pragma once

#include <cstdint>
#include <vector>

#include "core/edge_index.hpp"

namespace lc::core {

struct MergeOutcome {
  EdgeIdx c1 = 0;          ///< root (cluster id) of the first edge before merging
  EdgeIdx c2 = 0;          ///< root of the second edge before merging
  EdgeIdx target = 0;      ///< min{c1, c2}: the merged cluster id
  bool merged = false;     ///< c1 != c2 (an effective merge, advances level r)
  std::uint32_t changes = 0;  ///< C entries whose value changed (Fig. 2(1) metric)
  std::uint32_t visited = 0;  ///< chain elements visited (Theorem 2 work metric)
};

class ClusterArray {
 public:
  explicit ClusterArray(std::size_t edge_count);

  [[nodiscard]] std::size_t size() const { return c_.size(); }
  [[nodiscard]] EdgeIdx operator[](EdgeIdx i) const { return c_[i]; }

  /// min{F(i)}: the cluster id of edge i. Does not mutate.
  [[nodiscard]] EdgeIdx root(EdgeIdx i) const;

  /// Collects F(i) into `out` (cleared first), in chain order; out.back() is
  /// the root.
  void chain(EdgeIdx i, std::vector<EdgeIdx>& out) const;

  /// The paper's MERGE procedure (Algorithm 2, lines 23-33).
  MergeOutcome merge(EdgeIdx i1, EdgeIdx i2);

  /// Number of clusters: count of self-pointing roots.
  [[nodiscard]] std::size_t cluster_count() const;

  /// Canonical label (root) per edge, computed in one O(n) pass (values in C
  /// strictly decrease along chains, so a single ascending scan memoizes).
  [[nodiscard]] std::vector<EdgeIdx> root_labels() const;

  /// §VI-B: merges `other`'s equivalences into this array. With
  /// `corrected` = false, uses the flawed scheme (for tests reproducing the
  /// paper's counterexample). Returns work units (chain elements visited).
  std::uint64_t merge_from(const ClusterArray& other, bool corrected = true);

  /// Raw copy of C, for the coarse mode's epoch states Q = (beta, Delta, p, C).
  [[nodiscard]] std::vector<EdgeIdx> snapshot() const { return c_; }

  /// Restores a snapshot taken from an array of the same size. Instrumentation
  /// counters are not rolled back (they account for all work performed,
  /// including work later undone by a rollback, as the paper's cost analysis
  /// does).
  void restore(const std::vector<EdgeIdx>& snapshot);

  /// Total chain elements visited by merge() calls since construction.
  [[nodiscard]] std::uint64_t accesses() const { return accesses_; }

  /// Total C-entry changes by merge() calls since construction.
  [[nodiscard]] std::uint64_t total_changes() const { return total_changes_; }

  /// True when both arrays encode the same partition (canonical labels are
  /// minima, so label vectors are directly comparable).
  friend bool same_partition(const ClusterArray& a, const ClusterArray& b);

 private:
  std::vector<EdgeIdx> c_;
  std::uint64_t accesses_ = 0;
  std::uint64_t total_changes_ = 0;
  // Scratch buffers so merge() allocates nothing in steady state.
  std::vector<EdgeIdx> scratch1_;
  std::vector<EdgeIdx> scratch2_;
  std::vector<EdgeIdx> scratch3_;
};

}  // namespace lc::core
