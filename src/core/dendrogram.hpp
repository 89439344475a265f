// Dendrogram produced by the sweeping phase.
//
// The paper's MERGE outputs "r: c1, c2 -> cmin" (Eq. 5). We store one event
// per *effective* merge: the losing cluster id `from` is absorbed into the
// winning (minimum) id `into` at `level` with the similarity at which it
// happened. In fine-grained mode every event has its own level r (the
// paper's monotone counter); in coarse-grained mode many events share a
// level (the chunk index r-tilde of §V).
//
// Cluster ids are always the minimum edge index of the cluster (Theorem 1),
// so labellings replayed from events are canonical and directly comparable.
#pragma once

#include <cstdint>
#include <vector>

#include "core/edge_index.hpp"

namespace lc::core {

struct MergeEvent {
  std::uint32_t level = 0;
  EdgeIdx from = 0;   ///< cluster id that disappears (always > into)
  EdgeIdx into = 0;   ///< surviving minimum id
  double similarity = 0.0;  ///< score of the pair that triggered the merge
};

class Dendrogram {
 public:
  Dendrogram() = default;
  explicit Dendrogram(std::size_t leaf_count) : leaves_(leaf_count) {}

  void add_event(std::uint32_t level, EdgeIdx from, EdgeIdx into, double similarity);

  [[nodiscard]] std::size_t leaf_count() const { return leaves_; }
  [[nodiscard]] const std::vector<MergeEvent>& events() const { return events_; }

  /// Highest level used (0 for an event-free dendrogram).
  [[nodiscard]] std::uint32_t height() const;

  /// Clusters remaining after the first `event_count` events.
  [[nodiscard]] std::size_t cluster_count_after(std::size_t event_count) const;

  /// Canonical label per leaf after replaying the first `event_count` events.
  [[nodiscard]] std::vector<EdgeIdx> labels_after(std::size_t event_count) const;

  /// Labels after replaying all events with event.level <= level.
  /// Events are stored in nondecreasing level order (checked by add_event).
  [[nodiscard]] std::vector<EdgeIdx> labels_at_level(std::uint32_t level) const;

  /// Labels after replaying all events with similarity >= threshold. For
  /// single-linkage this equals the connected components of the
  /// "similarity >= threshold" pair graph regardless of tie order.
  [[nodiscard]] std::vector<EdgeIdx> labels_at_threshold(double threshold) const;

  /// Cluster count per level boundary: result[l] = clusters after replaying
  /// levels <= l, for l in [0, height()].
  [[nodiscard]] std::vector<std::size_t> cluster_counts_by_level() const;

 private:
  std::size_t leaves_ = 0;
  std::vector<MergeEvent> events_;
};

}  // namespace lc::core
