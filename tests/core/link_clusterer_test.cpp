#include "core/link_clusterer.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/stats.hpp"
#include "sim/work_ledger.hpp"

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
  // The fine merge pass visits one spanning tree per common neighbor k:
  // exactly Σ_k (d_k − 1) pairs, and the counters follow from it.
  std::uint64_t forest_pairs = 0;
  for (graph::VertexId k = 0; k < graph.vertex_count(); ++k) {
    if (graph.degree(k) > 0) forest_pairs += graph.degree(k) - 1;
  }
  EXPECT_EQ(result.stats.pairs_processed, forest_pairs);
  EXPECT_EQ(result.stats.c_changes, result.stats.merges_effective);
  EXPECT_EQ(result.stats.c_accesses,
            2 * result.stats.pairs_processed + result.stats.merges_effective);
}

TEST(LinkClusterer, FineModeReportsNoSweepSource) {
  // Fine mode orders no pair list L, so the bucketed source never runs.
  const WeightedGraph graph =
      graph::watts_strogatz(60, 6, 0.1, {9, graph::WeightPolicy::kUniform});
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    LinkClusterer::Config config;
    config.threads = threads;
    const ClusterResult result = LinkClusterer(config).cluster(graph);
    ASSERT_FALSE(result.dendrogram.events().empty());
    EXPECT_EQ(result.sweep_source.partition_ms, 0.0);
    EXPECT_EQ(result.sweep_source.bucket_sort_ms, 0.0);
    EXPECT_EQ(result.sweep_source.blocked_ms, 0.0);
    EXPECT_EQ(result.sweep_source.bucket_count, 0u);
    EXPECT_EQ(result.sweep_source.buckets_sorted, 0u);
    EXPECT_EQ(result.sweep_source.buckets_skipped, 0u);
  }
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

TEST(LinkClusterer, LedgerCoversEveryLayerAtEveryThreadCount) {
  // Work is what a run does, not how it is split: the same total at T = 1
  // and T = 4, in every phase a run times, and only the critical path of
  // the parallel layers shrinks with T.
  const WeightedGraph graph =
      graph::erdos_renyi(120, 0.12, {5, graph::WeightPolicy::kUniform});
  const auto phases_of = [](const sim::WorkLedger& ledger) {
    std::map<std::string, std::uint64_t> work;
    for (const sim::Phase& phase : ledger.phases()) {
      for (const sim::Round& round : phase.rounds) {
        for (const std::uint64_t units : round.slot_work) work[phase.name] += units;
      }
    }
    return work;
  };
  for (const ClusterMode mode : {ClusterMode::kFine, ClusterMode::kCoarse}) {
    const bool coarse = mode == ClusterMode::kCoarse;
    SCOPED_TRACE(coarse ? "coarse" : "fine");
    std::map<std::string, std::uint64_t> serial;
    std::uint64_t serial_path = 0;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      sim::WorkLedger ledger;
      LinkClusterer::Config config;
      config.mode = mode;
      config.threads = threads;
      config.ledger = &ledger;
      (void)LinkClusterer(config).cluster(graph);
      const std::map<std::string, std::uint64_t> work = phases_of(ledger);
      std::vector<std::string> expected = {"init.pass1", "init.pass2.wedges",
                                           "init.pass2.gather", "init.prim",
                                           "init.forest.sort"};
      if (coarse) {
        expected.insert(expected.end(), {"init.list.partition", "sweep.coarse"});
      } else {
        expected.push_back("sweep.fine");
      }
      for (const std::string& phase : expected) {
        ASSERT_TRUE(work.contains(phase)) << phase;
        EXPECT_GT(work.at(phase), 0u) << phase;
      }
      EXPECT_EQ(work.size(), expected.size());
      if (threads == 1) {
        serial = work;
        serial_path = ledger.critical_path();
        EXPECT_EQ(serial_path, ledger.total_work());
      } else {
        EXPECT_EQ(work, serial);
        EXPECT_LT(ledger.critical_path(), serial_path);
      }
    }
  }
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
