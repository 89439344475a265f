// The early-stop sweep (min_similarity) must produce exactly the partition a
// full run would give at that threshold, while processing strictly fewer
// pairs.
#include <gtest/gtest.h>

#include "core/sweep.hpp"
#include "core/sweep_source.hpp"
#include "graph/generators.hpp"

namespace lc::core {
namespace {

class ThresholdSweep : public testing::TestWithParam<std::uint64_t> {};

TEST_P(ThresholdSweep, MatchesFullRunThresholdCut) {
  const graph::WeightedGraph graph =
      graph::erdos_renyi(35, 0.25, {GetParam(), graph::WeightPolicy::kUniform});
  SimilarityMap map = build_similarity_map(graph);
  map.sort_by_score();
  BucketSweepSource source(map);
  const EdgeIndex index(graph.edge_count(), EdgeOrder::kShuffled, GetParam());
  const SweepResult full = sweep(graph, map, source, index);

  for (double threshold : {0.8, 0.5, 0.3, 0.15}) {
    const SweepResult stopped = sweep(graph, map, source, index, {}, threshold);
    EXPECT_EQ(stopped.final_labels, full.dendrogram.labels_at_threshold(threshold))
        << "threshold " << threshold;
    EXPECT_LE(stopped.stats.pairs_processed, full.stats.pairs_processed);
    // The stopped run's own dendrogram events are exactly the full run's
    // events above the threshold.
    std::size_t expected_events = 0;
    for (const MergeEvent& e : full.dendrogram.events()) {
      if (e.similarity >= threshold) ++expected_events;
    }
    EXPECT_EQ(stopped.dendrogram.events().size(), expected_events);
  }
}

TEST_P(ThresholdSweep, ExtremeThresholds) {
  const graph::WeightedGraph graph =
      graph::barabasi_albert(25, 2, {GetParam(), graph::WeightPolicy::kUniform});
  SimilarityMap map = build_similarity_map(graph);
  map.sort_by_score();
  BucketSweepSource source(map);
  const EdgeIndex index(graph.edge_count(), EdgeOrder::kNatural);
  // Above every score: nothing merges, nothing processed.
  const SweepResult none = sweep(graph, map, source, index, {}, 2.0);
  EXPECT_EQ(none.stats.pairs_processed, 0u);
  EXPECT_TRUE(none.dendrogram.events().empty());
  // Below every score: identical to the default full run.
  const SweepResult all = sweep(graph, map, source, index, {}, -1.0);
  const SweepResult full = sweep(graph, map, source, index);
  EXPECT_EQ(all.final_labels, full.final_labels);
  EXPECT_EQ(all.stats.pairs_processed, full.stats.pairs_processed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThresholdSweep, testing::Values(2, 4, 8));

}  // namespace
}  // namespace lc::core
