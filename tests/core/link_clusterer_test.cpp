#include "core/link_clusterer.hpp"

#include <gtest/gtest.h>

#include <set>

#include "graph/generators.hpp"
#include "graph/stats.hpp"

namespace lc::core {
namespace {

using graph::WeightedGraph;

TEST(LinkClusterer, FineModeDefaults) {
  const WeightedGraph graph = graph::paper_figure1_graph();
  const ClusterResult result = LinkClusterer().cluster(graph);
  EXPECT_EQ(result.k1, 7u);
  EXPECT_EQ(result.k2, 16u);
  EXPECT_EQ(result.dendrogram.events().size(), 7u);
  EXPECT_GE(result.timings.initialization_seconds, 0.0);
  EXPECT_GE(result.timings.sweeping_seconds, 0.0);
  EXPECT_FALSE(result.coarse.has_value());
}

TEST(LinkClusterer, CoarseModePopulatesCoarseResult) {
  const WeightedGraph graph =
      graph::erdos_renyi(50, 0.2, {3, graph::WeightPolicy::kUniform});
  LinkClusterer::Config config;
  config.mode = ClusterMode::kCoarse;
  config.coarse.phi = 5;
  config.coarse.delta0 = 50;
  const ClusterResult result = LinkClusterer(config).cluster(graph);
  ASSERT_TRUE(result.coarse.has_value());
  EXPECT_FALSE(result.coarse->levels.empty());
  EXPECT_EQ(result.final_labels, result.coarse->final_labels);
}

TEST(LinkClusterer, ThreadedRunMatchesSerialPartition) {
  const WeightedGraph graph =
      graph::erdos_renyi(50, 0.2, {5, graph::WeightPolicy::kUniform});
  LinkClusterer::Config serial_config;
  serial_config.mode = ClusterMode::kCoarse;
  serial_config.coarse.phi = 4;
  const ClusterResult serial = LinkClusterer(serial_config).cluster(graph);

  LinkClusterer::Config threaded_config = serial_config;
  threaded_config.threads = 4;
  const ClusterResult threaded = LinkClusterer(threaded_config).cluster(graph);
  EXPECT_EQ(threaded.final_labels, serial.final_labels);
}

TEST(LinkClusterer, SameSeedSameResult) {
  const WeightedGraph graph =
      graph::barabasi_albert(40, 3, {7, graph::WeightPolicy::kUniform});
  LinkClusterer::Config config;
  config.seed = 123;
  const ClusterResult a = LinkClusterer(config).cluster(graph);
  const ClusterResult b = LinkClusterer(config).cluster(graph);
  EXPECT_EQ(a.final_labels, b.final_labels);
  EXPECT_EQ(a.dendrogram.events().size(), b.dendrogram.events().size());
}

TEST(LinkClusterer, StatsMatchGraphProperties) {
  const WeightedGraph graph =
      graph::watts_strogatz(60, 6, 0.1, {9, graph::WeightPolicy::kUniform});
  const graph::GraphStats stats = graph::compute_stats(graph);
  const ClusterResult result = LinkClusterer().cluster(graph);
  EXPECT_EQ(result.k1, stats.k1);
  EXPECT_EQ(result.k2, stats.k2);
  EXPECT_EQ(result.stats.pairs_processed, stats.k2);
}

TEST(LinkClusterer, LedgerAttachedForThreadedRuns) {
  const WeightedGraph graph =
      graph::erdos_renyi(40, 0.25, {11, graph::WeightPolicy::kUniform});
  sim::WorkLedger ledger;
  LinkClusterer::Config config;
  config.threads = 3;
  config.mode = ClusterMode::kCoarse;
  config.ledger = &ledger;
  const ClusterResult result = LinkClusterer(config).cluster(graph);
  EXPECT_TRUE(result.coarse.has_value());
  EXPECT_GT(ledger.total_work(), 0u);
}

TEST(LinkClusterer, JaccardMeasureConfig) {
  // On unit weights Jaccard == Tanimoto, so both configs agree end to end.
  const WeightedGraph graph = graph::erdos_renyi(40, 0.2, {21});  // unit weights
  LinkClusterer::Config tanimoto_config;
  LinkClusterer::Config jaccard_config;
  jaccard_config.measure = SimilarityMeasure::kJaccard;
  const ClusterResult a = LinkClusterer(tanimoto_config).cluster(graph);
  const ClusterResult b = LinkClusterer(jaccard_config).cluster(graph);
  EXPECT_EQ(a.final_labels, b.final_labels);
  EXPECT_EQ(a.dendrogram.events().size(), b.dendrogram.events().size());
}

TEST(LinkClusterer, EmptyGraph) {
  graph::GraphBuilder builder(0);
  const ClusterResult result = LinkClusterer().cluster(builder.build());
  EXPECT_TRUE(result.final_labels.empty());
  EXPECT_EQ(result.k1, 0u);
}

TEST(LinkClustererDeathTest, ZeroThreadsRejected) {
  LinkClusterer::Config config;
  config.threads = 0;
  EXPECT_DEATH(LinkClusterer{config}, "at least 1");
}

}  // namespace
}  // namespace lc::core
