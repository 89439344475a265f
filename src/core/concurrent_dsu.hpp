// Lock-free concurrent union-find for the coarse sweep's chunk application.
//
// One shared array of atomic parent pointers replaces the §VI-B scheme of T
// private copies of C plus a hierarchical pairwise merge: every thread CASes
// unions directly into the same array (the ConnectIt / GBBS construction),
// so a parallel chunk allocates nothing and needs no merge phase.
//
// Determinism. Unions are by *minimum index*: the larger root is always
// attached to the smaller, so the root of every component is the component's
// minimum element — the paper's cluster-id convention (Theorem 1) — no
// matter how many threads ran or how their CASes interleaved. Everything the
// coarse sweep observes (root_labels(), component counts, which nodes lost
// root status in a chunk) is a function of the partition alone, and chunk
// connectivity is order-independent, so outputs are bitwise-identical across
// thread counts. Only the internal tree shape (journaled path-halving
// shortcuts) varies between runs, and it is invisible to find(): find always
// returns the component minimum.
//
// Journal. Every successful CAS — a union attaching root `node`, or a
// path-halving shortcut — appends {node, old_parent} to a caller-supplied
// journal. Parent values only ever decrease, so the journal supports an
// order-independent undo: restoring each touched slot to the *maximum* old
// value recorded for it recovers the exact pre-journal array. The coarse
// sweep uses this for O(changes) rollback instead of O(|E|) snapshot/restore,
// and reads the union entries (old_parent == node) to count clusters and
// emit dendrogram events without any full-array scan.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/cluster_array.hpp"  // EdgeIdx

namespace lc::core {

class ConcurrentDsu {
 public:
  /// One successful CAS write to the parent array. `old_parent == node`
  /// identifies a union (node was a root and stopped being one); any other
  /// entry is a path-halving shortcut.
  struct JournalEntry {
    EdgeIdx node = 0;
    EdgeIdx old_parent = 0;
  };
  using Journal = std::vector<JournalEntry>;

  explicit ConcurrentDsu(std::size_t n);

  [[nodiscard]] std::size_t size() const { return parent_.size(); }

  /// Component minimum of i's component. Read-only (no halving), so it is
  /// safe to call concurrently with unite() — though mid-chunk it may observe
  /// an in-flight partition; the coarse sweep only calls it quiesced.
  [[nodiscard]] EdgeIdx find(EdgeIdx i) const;

  /// Unites the components of a and b. Lock-free: CAS failures retry from
  /// the freshly observed roots. Appends one journal entry per successful
  /// CAS (at most one union entry, plus any halving shortcuts); the
  /// partition changed iff a union entry was appended.
  void unite(EdgeIdx a, EdgeIdx b, Journal& journal);

  /// Restores the exact parent array from before the journal's writes by
  /// rewinding every touched slot to the maximum recorded old value (parent
  /// values strictly decrease, so the maximum is the pre-journal value).
  /// Entry order does not matter; journals from concurrent blocks can be
  /// concatenated arbitrarily. Must be called quiesced.
  void undo(const Journal& journal);

  /// Canonical label (component minimum) per element, one ascending O(n)
  /// pass — parents never exceed their index. Must be called quiesced.
  [[nodiscard]] std::vector<EdgeIdx> root_labels() const;

  /// Number of components: count of self-parenting roots (O(n) scan; the
  /// coarse sweep tracks counts incrementally from union entries instead).
  [[nodiscard]] std::size_t component_count() const;

  /// Raw parent values, for tests asserting bitwise undo fidelity. Their
  /// path-halving shape depends on thread interleaving; checkpoints store
  /// root_labels() instead.
  [[nodiscard]] std::vector<EdgeIdx> parent_snapshot() const;

  /// Restores a same-size parent array — a parent_snapshot() or the
  /// root_labels() a checkpoint stores. Parents must respect the
  /// union-by-min invariant (parents[i] <= i); checkpoint loading validates
  /// that before calling. Must be called quiesced.
  void restore(const std::vector<EdgeIdx>& parents);

 private:
  std::vector<std::atomic<EdgeIdx>> parent_;
};

/// Union entries of `journal` (losers), ascending by node index — the
/// deterministic emission order for a chunk's dendrogram events.
std::vector<EdgeIdx> journal_losers_sorted(const ConcurrentDsu::Journal& journal);

/// Number of union entries in `journal` == how many components the journal's
/// writes removed.
std::size_t journal_union_count(const ConcurrentDsu::Journal& journal);

}  // namespace lc::core
