#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/similarity.hpp"
#include "graph/generators.hpp"
#include "parallel/thread_pool.hpp"
#include "similarity_reference.hpp"

namespace lc::core {
namespace {

using graph::WeightedGraph;
using testing_reference::jaccard_similarity_bruteforce;

SimilarityMapOptions jaccard_options() {
  SimilarityMapOptions options;
  options.measure = SimilarityMeasure::kJaccard;
  return options;
}

TEST(JaccardSimilarity, Figure1Values) {
  // K_{2,4}: hubs 0,1 have N+ = {0,2,3,4,5} and {1,2,3,4,5}: |∩| = 4,
  // |∪| = 6 -> 2/3. Leaves a,b have N+ = {a,0,1}, {b,0,1}: 2/4 = 1/2.
  const WeightedGraph graph = graph::paper_figure1_graph();
  const SimilarityMap map = build_similarity_map(graph, jaccard_options());
  const SimilarityEntry* hubs = map.find(0, 1);
  ASSERT_NE(hubs, nullptr);
  EXPECT_NEAR(hubs->score, 2.0 / 3.0, 1e-12);
  const SimilarityEntry* leaves = map.find(2, 3);
  ASSERT_NE(leaves, nullptr);
  EXPECT_NEAR(leaves->score, 0.5, 1e-12);
}

TEST(JaccardSimilarity, MatchesBruteForceOnRandomGraphs) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const WeightedGraph graph =
        graph::erdos_renyi(35, 0.2, {seed, graph::WeightPolicy::kUniform});
    const SimilarityMap map = build_similarity_map(graph, jaccard_options());
    for (const SimilarityEntry& entry : map.entries) {
      for (const EdgePairRef& pair : map.pairs(entry)) {
        const graph::VertexId k = shared_vertex(graph, pair);
        EXPECT_NEAR(entry.score, jaccard_similarity_bruteforce(graph, entry.u, entry.v, k),
                    1e-12)
            << "seed " << seed;
      }
    }
  }
}

TEST(JaccardSimilarity, EqualsTanimotoOnUnitWeights) {
  // With unit weights, a_i is exactly the indicator of N+(i), so the weighted
  // Tanimoto coefficient reduces to Jaccard.
  for (std::uint64_t seed : {4u, 5u}) {
    const WeightedGraph graph = graph::erdos_renyi(30, 0.25, {seed});  // unit weights
    SimilarityMap tanimoto = build_similarity_map(graph);
    SimilarityMap jaccard = build_similarity_map(graph, jaccard_options());
    tanimoto.sort_by_score();
    jaccard.sort_by_score();
    ASSERT_EQ(tanimoto.entries.size(), jaccard.entries.size());
    for (std::size_t i = 0; i < tanimoto.entries.size(); ++i) {
      EXPECT_EQ(tanimoto.entries[i].u, jaccard.entries[i].u);
      EXPECT_EQ(tanimoto.entries[i].v, jaccard.entries[i].v);
      EXPECT_NEAR(tanimoto.entries[i].score, jaccard.entries[i].score, 1e-9) << i;
    }
  }
}

TEST(JaccardSimilarity, DiffersFromTanimotoOnWeightedGraphs) {
  const WeightedGraph graph =
      graph::erdos_renyi(30, 0.25, {6, graph::WeightPolicy::kUniform});
  const SimilarityMap tanimoto = build_similarity_map(graph);
  const SimilarityMap jaccard = build_similarity_map(graph, jaccard_options());
  bool any_difference = false;
  for (const SimilarityEntry& entry : tanimoto.entries) {
    const SimilarityEntry* other = jaccard.find(entry.u, entry.v);
    ASSERT_NE(other, nullptr);
    if (std::abs(entry.score - other->score) > 1e-6) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

TEST(JaccardSimilarity, SerialAndParallelMatchReference) {
  const WeightedGraph graph =
      graph::barabasi_albert(30, 3, {7, graph::WeightPolicy::kUniform});
  const std::vector<std::uint64_t> expected = testing_reference::serialize_map(
      testing_reference::build_reference_map(graph, SimilarityMeasure::kJaccard));
  EXPECT_EQ(testing_reference::serialize_map(build_similarity_map(graph, jaccard_options())),
            expected);
  parallel::ThreadPool pool(3);
  EXPECT_EQ(testing_reference::serialize_map(
                build_similarity_map_parallel(graph, pool, nullptr, jaccard_options())),
            expected);
}

TEST(JaccardSimilarity, BruteForceOracleSelfConsistent) {
  // Triangle: N+(0) = N+(1) = N+(2) = {0,1,2} -> similarity 1 everywhere.
  graph::GraphBuilder builder(3);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(0, 2);
  const WeightedGraph graph = builder.build();
  EXPECT_DOUBLE_EQ(jaccard_similarity_bruteforce(graph, 0, 1, 2), 1.0);
}

}  // namespace
}  // namespace lc::core
