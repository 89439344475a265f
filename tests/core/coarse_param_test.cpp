// Parameterized invariant sweep for coarse-grained clustering: across a grid
// of (gamma, phi, delta0, eta0) x graph seeds, every run must satisfy the
// structural invariants of §V regardless of how aggressive the chunking is.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "core/coarse.hpp"
#include "core/similarity.hpp"
#include "core/sweep_source.hpp"
#include "graph/generators.hpp"

namespace lc::core {
namespace {

using Param = std::tuple<double /*gamma*/, std::size_t /*phi*/, std::uint64_t /*delta0*/,
                         double /*eta0*/, std::uint64_t /*seed*/>;

class CoarseGrid : public testing::TestWithParam<Param> {};

TEST_P(CoarseGrid, StructuralInvariantsHold) {
  const auto [gamma, phi, delta0, eta0, seed] = GetParam();
  const graph::WeightedGraph graph =
      graph::erdos_renyi(45, 0.25, {seed, graph::WeightPolicy::kUniform});
  SimilarityMap map = build_similarity_map(graph);
  map.sort_by_score();
  BucketSweepSource source(map);
  const EdgeIndex index(graph.edge_count(), EdgeOrder::kShuffled, seed);

  CoarseOptions options;
  options.gamma = gamma;
  options.phi = phi;
  options.delta0 = delta0;
  options.eta0 = eta0;
  const CoarseResult result = coarse_sweep(graph, map, source, index, options);

  // (1) Termination: stopped at phi, or exhausted the pair list.
  const std::set<EdgeIdx> final_clusters(result.final_labels.begin(),
                                         result.final_labels.end());
  EXPECT_TRUE(final_clusters.size() <= phi || result.pairs_processed == result.pairs_total);

  // (2) Monotonicity: cluster counts never increase across levels, and pair
  //     positions strictly advance.
  std::size_t prev_clusters = graph.edge_count();
  std::uint64_t prev_pairs = 0;
  for (const CoarseLevel& level : result.levels) {
    EXPECT_LE(level.clusters, prev_clusters);
    EXPECT_GT(level.pairs_processed, prev_pairs);
    prev_clusters = level.clusters;
    prev_pairs = level.pairs_processed;
  }

  // (3) Soundness: ratio violations only where the algorithm explicitly
  //     recorded an unavoidable one.
  std::size_t violations = 0;
  std::size_t prev = graph.edge_count();
  for (const CoarseLevel& level : result.levels) {
    if (static_cast<double>(prev) > gamma * static_cast<double>(level.clusters) + 1e-9) {
      ++violations;
    }
    prev = level.clusters;
  }
  EXPECT_LE(violations, result.soundness_violations);

  // (4) Dendrogram consistency: levels' cluster counts replay exactly.
  for (const CoarseLevel& level : result.levels) {
    const auto labels = result.dendrogram.labels_at_level(level.level);
    const std::set<EdgeIdx> distinct(labels.begin(), labels.end());
    EXPECT_EQ(distinct.size(), level.clusters) << "level " << level.level;
  }

  // (5) Accounting: processed pairs never exceed the total, and similarity
  //     thresholds are non-increasing across levels.
  EXPECT_LE(result.pairs_processed, result.pairs_total);
  double prev_score = 1e300;
  for (const CoarseLevel& level : result.levels) {
    EXPECT_LE(level.threshold_score, prev_score + 1e-12);
    prev_score = level.threshold_score;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CoarseGrid,
    testing::Combine(testing::Values(1.2, 2.0, 4.0),          // gamma
                     testing::Values(std::size_t{1}, std::size_t{20}),  // phi
                     testing::Values(std::uint64_t{1}, std::uint64_t{50},
                                     std::uint64_t{5000}),    // delta0
                     testing::Values(2.0, 8.0),               // eta0
                     testing::Values(std::uint64_t{1}, std::uint64_t{9})));  // seed

}  // namespace
}  // namespace lc::core
