#include "core/dsu.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace lc::core {

MinDsu::MinDsu(std::size_t n) : parent_(n), sets_(n) {
  for (std::size_t i = 0; i < n; ++i) parent_[i] = static_cast<std::uint32_t>(i);
}

MinDsu::MinDsu(std::vector<std::uint32_t> labels) : parent_(std::move(labels)), sets_(0) {
  for (std::size_t i = 0; i < parent_.size(); ++i) {
    LC_CHECK_MSG(parent_[i] <= i, "a set's label is its minimum");
    if (parent_[i] == i) ++sets_;
  }
}

std::uint32_t MinDsu::find(std::uint32_t i) {
  LC_DCHECK(i < parent_.size());
  std::uint32_t root = i;
  while (parent_[root] != root) root = parent_[root];
  while (parent_[i] != root) {
    const std::uint32_t next = parent_[i];
    parent_[i] = root;
    i = next;
  }
  return root;
}

bool MinDsu::unite(std::uint32_t a, std::uint32_t b) {
  std::uint32_t ra = find(a);
  std::uint32_t rb = find(b);
  if (ra == rb) return false;
  // The minimum of the two roots stays the root so labels remain canonical
  // minima.
  if (rb < ra) std::swap(ra, rb);
  parent_[rb] = ra;
  --sets_;
  return true;
}

std::uint32_t MinDsu::find(std::uint32_t i, Journal& journal) {
  std::uint32_t root = i;
  while (parent_[root] != root) root = parent_[root];
  while (parent_[i] != root) {
    const std::uint32_t next = parent_[i];
    journal.push_back({i, next});
    parent_[i] = root;
    i = next;
  }
  return root;
}

bool MinDsu::unite(std::uint32_t a, std::uint32_t b, Journal& journal) {
  std::uint32_t ra = find(a, journal);
  std::uint32_t rb = find(b, journal);
  if (ra == rb) return false;
  if (rb < ra) std::swap(ra, rb);
  journal.push_back({rb, rb});
  parent_[rb] = ra;
  --sets_;
  return true;
}

void MinDsu::undo(const Journal& journal) {
  for (auto entry = journal.rbegin(); entry != journal.rend(); ++entry) {
    if (entry->old_parent == entry->node) ++sets_;
    parent_[entry->node] = entry->old_parent;
  }
}

std::vector<std::uint32_t> MinDsu::labels() {
  std::vector<std::uint32_t> out(parent_.size());
  for (std::size_t i = 0; i < parent_.size(); ++i) {
    out[i] = find(static_cast<std::uint32_t>(i));
  }
  return out;
}

std::vector<std::uint32_t> journal_losers_sorted(const MinDsu::Journal& journal) {
  std::vector<std::uint32_t> losers;
  for (const MinDsu::JournalEntry& entry : journal) {
    if (entry.old_parent == entry.node) losers.push_back(entry.node);
  }
  std::sort(losers.begin(), losers.end());
  return losers;
}

}  // namespace lc::core
