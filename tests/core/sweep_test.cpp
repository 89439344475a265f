#include "core/sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/dsu.hpp"
#include "core/sweep_source.hpp"
#include "graph/generators.hpp"
#include "graph/stats.hpp"

namespace lc::core {
namespace {

using graph::WeightedGraph;

SweepResult run_sweep(const WeightedGraph& graph, EdgeOrder order = EdgeOrder::kNatural,
                      std::uint64_t seed = 42) {
  SimilarityMap map = build_similarity_map(graph);
  map.sort_by_score();
  const EdgeIndex index(graph.edge_count(), order, seed);
  BucketSweepSource source(map);
  return sweep(graph, map, source, index);
}

/// Ground truth for single-linkage flat clusters: connected components of the
/// "incident pairs with similarity >= threshold" graph over edges.
std::vector<EdgeIdx> oracle_labels(const WeightedGraph& graph, const SimilarityMap& map,
                                   const EdgeIndex& index, double threshold) {
  MinDsu dsu(graph.edge_count());
  for (const SimilarityEntry& entry : map.entries) {
    if (entry.score < threshold) continue;
    // Deliberately finds the commons in the graph and resolves edges via
    // find_edge: the oracle stays independent of the pair arena it is used
    // to validate.
    for (graph::VertexId k : graph.neighbors(entry.u)) {
      if (!graph.has_edge(entry.v, k)) continue;
      const auto e1 = index.index_of(graph.find_edge(entry.u, k));
      const auto e2 = index.index_of(graph.find_edge(entry.v, k));
      dsu.unite(e1, e2);
    }
  }
  return dsu.labels();
}

TEST(Sweep, PaperFigure1Graph) {
  // K_{2,4}: hub-pair entries (sim 2/3) merge the four 2-paths first, then
  // the leaf pairs (sim 1/2) connect everything.
  const WeightedGraph graph = graph::paper_figure1_graph();
  const SweepResult result = run_sweep(graph);
  EXPECT_EQ(result.stats.pairs_processed, 16u);  // K2
  EXPECT_EQ(result.stats.merges_effective, 7u);  // 8 edges -> 1 cluster
  EXPECT_EQ(result.dendrogram.events().size(), 7u);
  // After the 4 hub-pair merges there are exactly 4 clusters.
  EXPECT_EQ(result.dendrogram.cluster_count_after(4), 4u);
  // Heights: four merges at 2/3, three at 1/2.
  std::vector<double> heights;
  for (const MergeEvent& event : result.dendrogram.events()) heights.push_back(event.similarity);
  std::sort(heights.begin(), heights.end());
  EXPECT_NEAR(heights[0], 0.5, 1e-12);
  EXPECT_NEAR(heights[2], 0.5, 1e-12);
  EXPECT_NEAR(heights[3], 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(heights[6], 2.0 / 3.0, 1e-12);
  // All edges end in one cluster.
  for (EdgeIdx label : result.final_labels) EXPECT_EQ(label, 0u);
}

TEST(Sweep, DisconnectedComponentsNeverMerge) {
  // Two disjoint triangles: edges of different triangles share no incident
  // pairs, so the final clustering has exactly two clusters.
  graph::GraphBuilder builder(6);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(0, 2);
  builder.add_edge(3, 4);
  builder.add_edge(4, 5);
  builder.add_edge(3, 5);
  const WeightedGraph graph = builder.build();
  const SweepResult result = run_sweep(graph);
  std::set<EdgeIdx> distinct(result.final_labels.begin(), result.final_labels.end());
  EXPECT_EQ(distinct.size(), 2u);
}

TEST(Sweep, EmptySimilarityMapLeavesSingletons) {
  const WeightedGraph graph = graph::disjoint_edges(5);
  const SweepResult result = run_sweep(graph);
  EXPECT_EQ(result.stats.pairs_processed, 0u);
  EXPECT_EQ(result.stats.merges_effective, 0u);
  for (EdgeIdx i = 0; i < 5; ++i) EXPECT_EQ(result.final_labels[i], i);
}

TEST(Sweep, ObserverSeesEveryPair) {
  const WeightedGraph graph = graph::paper_figure1_graph();
  SimilarityMap map = build_similarity_map(graph);
  map.sort_by_score();
  const EdgeIndex index(graph.edge_count(), EdgeOrder::kNatural);
  BucketSweepSource source(map);
  std::uint64_t calls = 0;
  std::uint64_t total_changes = 0;
  std::uint64_t last_ordinal = 0;
  const SweepResult result =
      sweep(graph, map, source, index, [&](std::uint64_t ordinal, std::uint32_t changes) {
        EXPECT_EQ(ordinal, calls);
        last_ordinal = ordinal;
        ++calls;
        total_changes += changes;
      });
  EXPECT_EQ(calls, 16u);
  EXPECT_EQ(last_ordinal, 15u);
  EXPECT_EQ(total_changes, result.stats.c_changes);
}

// Property sweep over topologies and orders: final labels equal the oracle's
// components at every similarity threshold, and the partition is invariant
// to the edge enumeration order.
class SweepProperty : public testing::TestWithParam<std::uint64_t> {};

TEST_P(SweepProperty, MatchesComponentOracleAtAllThresholds) {
  const WeightedGraph graph =
      graph::erdos_renyi(30, 0.18, {GetParam(), graph::WeightPolicy::kUniform});
  SimilarityMap map = build_similarity_map(graph);
  map.sort_by_score();
  const EdgeIndex index(graph.edge_count(), EdgeOrder::kShuffled, GetParam());
  BucketSweepSource source(map);
  const SweepResult result = sweep(graph, map, source, index);

  // Thresholds straddling every distinct similarity value.
  std::vector<double> thresholds{0.0};
  for (const SimilarityEntry& entry : map.entries) {
    thresholds.push_back(entry.score + 1e-9);
    thresholds.push_back(entry.score - 1e-9);
  }
  for (double threshold : thresholds) {
    if (threshold <= 0.0) continue;
    const auto expected = oracle_labels(graph, map, index, threshold);
    const auto actual = result.dendrogram.labels_at_threshold(threshold);
    ASSERT_EQ(actual, expected) << "threshold=" << threshold << " seed=" << GetParam();
  }
  // Full merge (threshold below everything) equals the final labels.
  EXPECT_EQ(result.final_labels, oracle_labels(graph, map, index, -1.0));
}

TEST_P(SweepProperty, PartitionInvariantToEdgeOrder) {
  const WeightedGraph graph =
      graph::barabasi_albert(25, 2, {GetParam(), graph::WeightPolicy::kUniform});
  SimilarityMap map = build_similarity_map(graph);
  map.sort_by_score();
  BucketSweepSource source(map);

  const EdgeIndex natural(graph.edge_count(), EdgeOrder::kNatural);
  const SweepResult base = sweep(graph, map, source, natural);
  // Compare partitions in *edge-id space* (labels are index-space).
  auto to_edge_space = [](const std::vector<EdgeIdx>& labels, const EdgeIndex& index) {
    // Canonical form: each edge id maps to the minimum edge id of its cluster.
    std::map<EdgeIdx, graph::EdgeId> group_min;
    const std::size_t n = labels.size();
    for (std::size_t idx = 0; idx < n; ++idx) {
      const graph::EdgeId e = index.edge_at(static_cast<EdgeIdx>(idx));
      const auto [it, inserted] = group_min.try_emplace(labels[idx], e);
      if (!inserted && e < it->second) it->second = e;
    }
    std::vector<graph::EdgeId> canon(n);
    for (std::size_t idx = 0; idx < n; ++idx) {
      canon[index.edge_at(static_cast<EdgeIdx>(idx))] = group_min[labels[idx]];
    }
    return canon;
  };
  const auto base_canon = to_edge_space(base.final_labels, natural);
  for (std::uint64_t seed : {1u, 7u, 13u}) {
    const EdgeIndex shuffled(graph.edge_count(), EdgeOrder::kShuffled, seed);
    const SweepResult other = sweep(graph, map, source, shuffled);
    EXPECT_EQ(to_edge_space(other.final_labels, shuffled), base_canon) << "seed=" << seed;
    EXPECT_EQ(other.stats.merges_effective, base.stats.merges_effective);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SweepProperty, testing::Values(1, 2, 3, 4, 5));

TEST(Sweep, AnyEntryOrderGivesTheSortedMapsSweep) {
  // The source orders the list itself: a map in ascending score order
  // sweeps exactly like the sort_by_score() map, and is left sorted.
  const WeightedGraph graph = graph::paper_figure1_graph();
  SimilarityMap sorted = build_similarity_map(graph);
  sorted.sort_by_score();
  SimilarityMap reversed = sorted;
  std::reverse(reversed.entries.begin(), reversed.entries.end());
  const EdgeIndex index(graph.edge_count(), EdgeOrder::kNatural);
  BucketSweepSource sorted_source(sorted);
  BucketSweepSource reversed_source(reversed);
  const SweepResult want = sweep(graph, sorted, sorted_source, index);
  const SweepResult got = sweep(graph, reversed, reversed_source, index);
  ASSERT_EQ(got.dendrogram.events().size(), want.dendrogram.events().size());
  for (std::size_t i = 0; i < want.dendrogram.events().size(); ++i) {
    EXPECT_EQ(got.dendrogram.events()[i].from, want.dendrogram.events()[i].from) << i;
    EXPECT_EQ(got.dendrogram.events()[i].into, want.dendrogram.events()[i].into) << i;
    EXPECT_EQ(got.dendrogram.events()[i].similarity, want.dendrogram.events()[i].similarity)
        << i;
  }
  EXPECT_EQ(got.final_labels, want.final_labels);
  ASSERT_EQ(reversed.entries.size(), sorted.entries.size());
  for (std::size_t i = 0; i < sorted.entries.size(); ++i) {
    EXPECT_EQ(reversed.entries[i].u, sorted.entries[i].u) << "entry " << i;
    EXPECT_EQ(reversed.entries[i].v, sorted.entries[i].v) << "entry " << i;
  }
}

}  // namespace
}  // namespace lc::core
