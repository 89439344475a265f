#include "core/dsu.hpp"

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

std::vector<std::uint32_t> MinDsu::labels() {
  std::vector<std::uint32_t> out(parent_.size());
  for (std::size_t i = 0; i < parent_.size(); ++i) {
    out[i] = find(static_cast<std::uint32_t>(i));
  }
  return out;
}

}  // namespace lc::core
