#include "core/partition_density.hpp"

#include <gtest/gtest.h>

#include "core/similarity.hpp"
#include "core/sweep.hpp"
#include "core/sweep_source.hpp"
#include "graph/generators.hpp"

namespace lc::core {
namespace {

using graph::WeightedGraph;

TEST(PartitionDensity, SingletonEdgesScoreZero) {
  const WeightedGraph graph = graph::paper_figure1_graph();
  const EdgeIndex index(graph.edge_count(), EdgeOrder::kNatural);
  std::vector<EdgeIdx> labels(graph.edge_count());
  for (EdgeIdx i = 0; i < labels.size(); ++i) labels[i] = i;
  EXPECT_DOUBLE_EQ(partition_density(graph, index, labels), 0.0);
}

TEST(PartitionDensity, TriangleClusterIsPerfect) {
  // One cluster holding a full triangle: m=3, n=3 -> term = 3*(3-2)/(1*2)
  // -> D = (2/3) * 1.5 = ... verify numerically.
  graph::GraphBuilder builder(3);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(0, 2);
  const WeightedGraph graph = builder.build();
  const EdgeIndex index(3, EdgeOrder::kNatural);
  const std::vector<EdgeIdx> labels{0, 0, 0};
  // m=3, n=3: term = m*(m-n+1)/((n-2)(n-1)) = 3*1/2 = 1.5; D = 2/3 * 1.5 = 1.
  EXPECT_DOUBLE_EQ(partition_density(graph, index, labels), 1.0);
}

TEST(PartitionDensity, PathClusterScoresZero) {
  // A path of 3 edges in one cluster: m=3, n=4 -> m-(n-1)=0 -> D=0 (tree-like
  // clusters are the floor of the measure).
  graph::GraphBuilder builder(4);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(2, 3);
  const WeightedGraph graph = builder.build();
  const EdgeIndex index(3, EdgeOrder::kNatural);
  const std::vector<EdgeIdx> labels{0, 0, 0};
  EXPECT_DOUBLE_EQ(partition_density(graph, index, labels), 0.0);
}

TEST(PartitionDensity, TwoTrianglesSplitBeatsMergedLabels) {
  // Two triangles joined by one bridge edge: clustering each triangle
  // separately scores higher than one giant cluster.
  graph::GraphBuilder builder(6);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(0, 2);
  builder.add_edge(3, 4);
  builder.add_edge(4, 5);
  builder.add_edge(3, 5);
  builder.add_edge(2, 3);  // bridge
  const WeightedGraph graph = builder.build();
  const EdgeIndex index(7, EdgeOrder::kNatural);
  // Canonical edge order: (0,1),(0,2),(1,2),(2,3),(3,4),(3,5),(4,5).
  const std::vector<EdgeIdx> split{0, 0, 0, 3, 4, 4, 4};
  const std::vector<EdgeIdx> merged(7, 0);
  EXPECT_GT(partition_density(graph, index, split), partition_density(graph, index, merged));
}

TEST(BestPartitionDensityCut, FindsTheTriangleCut) {
  // Same two-triangle graph, clustered for real: the best cut should score at
  // least as well as the hand-made triangle split.
  graph::GraphBuilder builder(6);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(0, 2);
  builder.add_edge(3, 4);
  builder.add_edge(4, 5);
  builder.add_edge(3, 5);
  builder.add_edge(2, 3);
  const WeightedGraph graph = builder.build();
  SimilarityMap map = build_similarity_map(graph);
  map.sort_by_score();
  BucketSweepSource source(map);
  const EdgeIndex index(graph.edge_count(), EdgeOrder::kNatural);
  const SweepResult result = sweep(graph, map, source, index);
  const DensityCut cut = best_partition_density_cut(graph, index, result.dendrogram);
  const std::vector<EdgeIdx> split{0, 0, 0, 3, 4, 4, 4};
  EXPECT_GE(cut.density, partition_density(graph, index, split) - 1e-12);
  EXPECT_NEAR(cut.density, partition_density(graph, index, cut.labels), 1e-12);
}

TEST(BestPartitionDensityCut, IncrementalMatchesDirectEvaluation) {
  // Property: the incremental density at the best cut equals the direct
  // partition_density of the replayed labels, across random graphs.
  for (std::uint64_t seed : {2u, 4u, 6u, 8u}) {
    const WeightedGraph graph =
        graph::planted_partition(24, 3, 0.6, 0.05, {seed, graph::WeightPolicy::kUniform});
    if (graph.edge_count() < 3) continue;
    SimilarityMap map = build_similarity_map(graph);
    map.sort_by_score();
    BucketSweepSource source(map);
    const EdgeIndex index(graph.edge_count(), EdgeOrder::kShuffled, seed);
    const SweepResult result = sweep(graph, map, source, index);
    const DensityCut cut = best_partition_density_cut(graph, index, result.dendrogram);
    EXPECT_NEAR(cut.density, partition_density(graph, index, cut.labels), 1e-9)
        << "seed " << seed;
    // And no prefix scores higher (exhaustive check against direct scoring).
    for (std::size_t k = 0; k <= result.dendrogram.events().size(); ++k) {
      const double direct =
          partition_density(graph, index, result.dendrogram.labels_after(k));
      EXPECT_LE(direct, cut.density + 1e-9) << "seed " << seed << " prefix " << k;
    }
  }
}

TEST(BestPartitionDensityCut, EmptyGraph) {
  graph::GraphBuilder builder(2);
  const WeightedGraph graph = builder.build();
  const EdgeIndex index(0, EdgeOrder::kNatural);
  const Dendrogram dendrogram(0);
  const DensityCut cut = best_partition_density_cut(graph, index, dendrogram);
  EXPECT_EQ(cut.event_count, 0u);
  EXPECT_DOUBLE_EQ(cut.density, 0.0);
}

}  // namespace
}  // namespace lc::core
