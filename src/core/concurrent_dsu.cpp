#include "core/concurrent_dsu.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace lc::core {

ConcurrentDsu::ConcurrentDsu(std::size_t n) : parent_(n) {
  for (std::size_t i = 0; i < n; ++i) {
    parent_[i].store(static_cast<EdgeIdx>(i), std::memory_order_relaxed);
  }
}

EdgeIdx ConcurrentDsu::find(EdgeIdx i) const {
  LC_DCHECK(i < parent_.size());
  EdgeIdx p = parent_[i].load(std::memory_order_acquire);
  while (p != i) {
    i = p;
    p = parent_[i].load(std::memory_order_acquire);
  }
  return i;
}

namespace {

/// Root of `i` with journaled path halving: while descending, each CAS that
/// shortcuts a node to its grandparent is recorded. CAS failures are benign
/// (another thread installed an even smaller ancestor); traversal continues
/// from whatever value is current.
EdgeIdx find_compress(std::vector<std::atomic<EdgeIdx>>& parent, EdgeIdx i,
                      ConcurrentDsu::Journal& journal) {
  while (true) {
    EdgeIdx p = parent[i].load(std::memory_order_acquire);
    if (p == i) return i;
    const EdgeIdx gp = parent[p].load(std::memory_order_acquire);
    if (gp != p &&
        parent[i].compare_exchange_strong(p, gp, std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
      journal.push_back({i, p});
    }
    // On CAS failure `p` holds the reloaded parent; either way parents only
    // decrease, so stepping down always makes progress.
    i = parent[i].load(std::memory_order_acquire);
  }
}

}  // namespace

void ConcurrentDsu::unite(EdgeIdx a, EdgeIdx b, Journal& journal) {
  LC_DCHECK(a < parent_.size() && b < parent_.size());
  while (true) {
    EdgeIdx ra = find_compress(parent_, a, journal);
    EdgeIdx rb = find_compress(parent_, b, journal);
    if (ra == rb) return;
    if (rb < ra) std::swap(ra, rb);
    // Union by minimum index: the larger root points at the smaller, so the
    // surviving root is the component minimum regardless of interleaving.
    EdgeIdx expected = rb;
    if (parent_[rb].compare_exchange_strong(expected, ra, std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
      journal.push_back({rb, rb});
      return;
    }
    // Lost the race: rb is no longer a root. Retry from the observed roots —
    // strictly closer to the final minima than the original arguments.
    a = ra;
    b = rb;
  }
}

void ConcurrentDsu::undo(const Journal& journal) {
  for (const JournalEntry& entry : journal) {
    // Writes to one slot strictly decrease its value, so the largest old
    // value recorded for a slot is its pre-journal content; applying every
    // entry with max() rewinds each touched slot exactly once in any order.
    if (entry.old_parent > parent_[entry.node].load(std::memory_order_relaxed)) {
      parent_[entry.node].store(entry.old_parent, std::memory_order_relaxed);
    }
  }
}

std::vector<EdgeIdx> ConcurrentDsu::root_labels() const {
  std::vector<EdgeIdx> labels(parent_.size());
  for (std::size_t i = 0; i < parent_.size(); ++i) {
    const EdgeIdx p = parent_[i].load(std::memory_order_relaxed);
    LC_DCHECK(p <= i);
    labels[i] = (p == i) ? static_cast<EdgeIdx>(i) : labels[p];
  }
  return labels;
}

std::size_t ConcurrentDsu::component_count() const {
  std::size_t count = 0;
  for (std::size_t i = 0; i < parent_.size(); ++i) {
    if (parent_[i].load(std::memory_order_relaxed) == i) ++count;
  }
  return count;
}

std::vector<EdgeIdx> ConcurrentDsu::parent_snapshot() const {
  std::vector<EdgeIdx> out(parent_.size());
  for (std::size_t i = 0; i < parent_.size(); ++i) {
    out[i] = parent_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void ConcurrentDsu::restore(const std::vector<EdgeIdx>& parents) {
  LC_CHECK_MSG(parents.size() == parent_.size(),
               "restored parent array must match the structure size");
  for (std::size_t i = 0; i < parents.size(); ++i) {
    LC_CHECK_MSG(parents[i] <= i, "restored parents must be union-by-min");
    parent_[i].store(parents[i], std::memory_order_relaxed);
  }
}

std::vector<EdgeIdx> journal_losers_sorted(const ConcurrentDsu::Journal& journal) {
  std::vector<EdgeIdx> losers;
  for (const ConcurrentDsu::JournalEntry& entry : journal) {
    if (entry.old_parent == entry.node) losers.push_back(entry.node);
  }
  std::sort(losers.begin(), losers.end());
  return losers;
}

std::size_t journal_union_count(const ConcurrentDsu::Journal& journal) {
  std::size_t count = 0;
  for (const ConcurrentDsu::JournalEntry& entry : journal) {
    if (entry.old_parent == entry.node) ++count;
  }
  return count;
}

}  // namespace lc::core
