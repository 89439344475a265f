#include "baseline/mst.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/sweep.hpp"
#include "core/sweep_source.hpp"
#include "graph/generators.hpp"

namespace lc::baseline {
namespace {

using graph::WeightedGraph;

struct Prepared {
  WeightedGraph graph;
  core::SimilarityMap map;
  core::EdgeIndex index;
};

Prepared prepare(WeightedGraph graph, std::uint64_t seed = 42) {
  Prepared p;
  p.map = core::build_similarity_map(graph);
  p.map.sort_by_score();
  p.index = core::EdgeIndex(graph.edge_count(), core::EdgeOrder::kShuffled, seed);
  p.graph = std::move(graph);
  return p;
}

TEST(MstSingleLinkage, Figure1ForestStructure) {
  const Prepared p = prepare(graph::paper_figure1_graph());
  const MstResult mst = mst_single_linkage(p.graph, p.map, p.index);
  // 8 edges, connected link graph -> spanning tree of 7 links.
  EXPECT_EQ(mst.forest.size(), 7u);
  EXPECT_EQ(mst.dendrogram.events().size(), 7u);
  std::vector<double> heights;
  for (const MstLink& link : mst.forest) heights.push_back(link.similarity);
  std::sort(heights.begin(), heights.end());
  EXPECT_NEAR(heights[0], 0.5, 1e-12);
  EXPECT_NEAR(heights[6], 2.0 / 3.0, 1e-12);
}

/// The paper's sweep over p's map, read through a bucket source.
core::SweepResult reference_sweep(Prepared& p) {
  core::BucketSweepSource source(p.map);
  return core::sweep(p.graph, p.map, source, p.index);
}

TEST(MstSingleLinkage, HeightsMatchSweepExactly) {
  // Gower & Ross: the maximum-spanning-forest weights are the single-linkage
  // merge heights — so Kruskal and the paper's sweep must agree exactly.
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Prepared p =
        prepare(graph::erdos_renyi(40, 0.2, {seed, graph::WeightPolicy::kUniform}), seed);
    const MstResult mst = mst_single_linkage(p.graph, p.map, p.index);
    const core::SweepResult sweep = reference_sweep(p);
    std::vector<double> mst_heights;
    for (const MstLink& link : mst.forest) mst_heights.push_back(link.similarity);
    std::vector<double> sweep_heights;
    for (const core::MergeEvent& e : sweep.dendrogram.events()) {
      sweep_heights.push_back(e.similarity);
    }
    std::sort(mst_heights.begin(), mst_heights.end());
    std::sort(sweep_heights.begin(), sweep_heights.end());
    EXPECT_EQ(mst_heights, sweep_heights) << "seed " << seed;
  }
}

TEST(MstSingleLinkage, FinalPartitionMatchesSweep) {
  for (std::uint64_t seed : {5u, 6u}) {
    Prepared p =
        prepare(graph::barabasi_albert(30, 2, {seed, graph::WeightPolicy::kUniform}), seed);
    const MstResult mst = mst_single_linkage(p.graph, p.map, p.index);
    const core::SweepResult sweep = reference_sweep(p);
    EXPECT_EQ(mst.final_labels, sweep.final_labels) << "seed " << seed;
  }
}

TEST(MstSingleLinkage, ThresholdCutsMatchSweep) {
  Prepared p =
      prepare(graph::planted_partition(20, 2, 0.7, 0.1, {9, graph::WeightPolicy::kUniform}), 9);
  const MstResult mst = mst_single_linkage(p.graph, p.map, p.index);
  const core::SweepResult sweep = reference_sweep(p);
  for (double threshold : {0.9, 0.51, 0.27, 0.13}) {
    EXPECT_EQ(mst.dendrogram.labels_at_threshold(threshold),
              sweep.dendrogram.labels_at_threshold(threshold))
        << "threshold " << threshold;
  }
}

TEST(MstSingleLinkage, ForestSizeEqualsLeavesMinusComponents) {
  const Prepared p = prepare(graph::disjoint_edges(6));
  const MstResult mst = mst_single_linkage(p.graph, p.map, p.index);
  EXPECT_TRUE(mst.forest.empty());  // K1 = 0: nothing to link
  const std::set<core::EdgeIdx> labels(mst.final_labels.begin(), mst.final_labels.end());
  EXPECT_EQ(labels.size(), 6u);
}

TEST(MstSingleLinkage, ForestSimilaritiesNonIncreasing) {
  const Prepared p =
      prepare(graph::watts_strogatz(30, 4, 0.2, {11, graph::WeightPolicy::kUniform}), 11);
  const MstResult mst = mst_single_linkage(p.graph, p.map, p.index);
  for (std::size_t i = 1; i < mst.forest.size(); ++i) {
    EXPECT_GE(mst.forest[i - 1].similarity, mst.forest[i].similarity);
  }
}

}  // namespace
}  // namespace lc::baseline
