// Empirical checks of Theorem 2: the sweeping phase's array-C traffic is
// O(K2 + sqrt(K2) * |E|) and the similarity map's footprint is O(K2 + |E|).
// The tests compare the instrumented counters against the bound with a
// constant-factor allowance across graph families and sizes.
#include <gtest/gtest.h>

#include <cmath>

#include "core/similarity.hpp"
#include "core/sweep.hpp"
#include "core/sweep_source.hpp"
#include "graph/generators.hpp"
#include "graph/stats.hpp"

namespace lc::core {
namespace {

using graph::WeightedGraph;

struct ComplexityCase {
  const char* name;
  WeightedGraph (*make)(std::size_t scale);
};

WeightedGraph make_er(std::size_t scale) {
  return graph::erdos_renyi(40 * scale, 6.0 / static_cast<double>(40 * scale) * 4.0,
                            {11, graph::WeightPolicy::kUniform});
}
WeightedGraph make_complete(std::size_t scale) {
  return graph::complete_graph(8 * scale, {11, graph::WeightPolicy::kUniform});
}
WeightedGraph make_regular(std::size_t scale) {
  return graph::regular_graph(30 * scale, 8, {11, graph::WeightPolicy::kUniform});
}
WeightedGraph make_ba(std::size_t scale) {
  return graph::barabasi_albert(30 * scale, 4, {11, graph::WeightPolicy::kUniform});
}

class ComplexityBound : public testing::TestWithParam<ComplexityCase> {};

TEST_P(ComplexityBound, SweepArrayTrafficWithinTheoremTwo) {
  for (std::size_t scale : {1u, 2u, 4u}) {
    const WeightedGraph graph = GetParam().make(scale);
    if (graph.edge_count() < 4) continue;
    const graph::GraphStats stats = graph::compute_stats(graph);
    SimilarityMap map = build_similarity_map(graph);
    map.sort_by_score();
    BucketSweepSource source(map);
    const EdgeIndex index(graph.edge_count(), EdgeOrder::kShuffled, 42);
    const SweepResult result = sweep(graph, map, source, index);

    const double k2 = static_cast<double>(stats.k2);
    const double edges = static_cast<double>(stats.edges);
    // Theorem 2: accesses = O(K2 + sqrt(K2)|E|). The proof's constant is
    // small; allow 4x slack plus an additive floor for tiny inputs.
    const double bound = 4.0 * (k2 + std::sqrt(k2) * edges) + 64.0;
    EXPECT_LE(static_cast<double>(result.stats.c_accesses), bound)
        << GetParam().name << " scale " << scale << " (K2=" << stats.k2
        << " |E|=" << stats.edges << ")";
    // And the traffic is at least the 2 visits per processed pair floor.
    EXPECT_GE(result.stats.c_accesses, 2 * result.stats.pairs_processed);
  }
}

TEST_P(ComplexityBound, SimilarityMapMemoryLinearInK2) {
  for (std::size_t scale : {1u, 2u, 4u}) {
    const WeightedGraph graph = GetParam().make(scale);
    const graph::GraphStats stats = graph::compute_stats(graph);
    const SimilarityMap map = build_similarity_map(graph);
    // Theorem 2 space: O(K2 + |E|). Entry structs are ~64 bytes, commons
    // 4 bytes; allow generous constants (vector growth doubles capacity).
    const double bound = 192.0 * static_cast<double>(stats.k1) +
                         16.0 * static_cast<double>(stats.k2) +
                         64.0 * static_cast<double>(stats.edges) + 4096.0;
    EXPECT_LE(static_cast<double>(map.memory_bytes()), bound)
        << GetParam().name << " scale " << scale;
  }
}

TEST_P(ComplexityBound, EffectiveMergesEqualEdgeDeficit) {
  // Every effective merge reduces the cluster count by exactly one, so
  // merges = |E| - final clusters, regardless of topology.
  const WeightedGraph graph = GetParam().make(2);
  if (graph.edge_count() == 0) return;
  SimilarityMap map = build_similarity_map(graph);
  map.sort_by_score();
  BucketSweepSource source(map);
  const EdgeIndex index(graph.edge_count(), EdgeOrder::kNatural);
  const SweepResult result = sweep(graph, map, source, index);
  std::set<EdgeIdx> clusters(result.final_labels.begin(), result.final_labels.end());
  EXPECT_EQ(result.stats.merges_effective, graph.edge_count() - clusters.size());
}

INSTANTIATE_TEST_SUITE_P(Families, ComplexityBound,
                         testing::Values(ComplexityCase{"erdos_renyi", make_er},
                                         ComplexityCase{"complete", make_complete},
                                         ComplexityCase{"regular", make_regular},
                                         ComplexityCase{"barabasi_albert", make_ba}),
                         [](const testing::TestParamInfo<ComplexityCase>& param_info) {
                           return param_info.param.name;
                         });

TEST(ComplexityScaling, SweepBeatsQuadraticOnGrowingCompleteGraphs) {
  // The Appendix example: on K_n the sweep does O(|V|^3.5) work while the
  // standard algorithm needs O(|V|^4) = O(|E|^2). Check the measured access
  // growth rate stays below the quadratic |E|^2 trend.
  double prev_accesses = 0;
  double prev_edges = 0;
  for (std::size_t n : {10u, 20u, 40u}) {
    const WeightedGraph graph = graph::complete_graph(n, {3, graph::WeightPolicy::kUniform});
    SimilarityMap map = build_similarity_map(graph);
    map.sort_by_score();
    BucketSweepSource source(map);
    const EdgeIndex index(graph.edge_count(), EdgeOrder::kShuffled, 42);
    const SweepResult result = sweep(graph, map, source, index);
    if (prev_accesses > 0) {
      const double access_growth = static_cast<double>(result.stats.c_accesses) / prev_accesses;
      const double quadratic_growth =
          std::pow(static_cast<double>(graph.edge_count()) / prev_edges, 2.0);
      EXPECT_LT(access_growth, quadratic_growth) << "n=" << n;
    }
    prev_accesses = static_cast<double>(result.stats.c_accesses);
    prev_edges = static_cast<double>(graph.edge_count());
  }
}

}  // namespace
}  // namespace lc::core
