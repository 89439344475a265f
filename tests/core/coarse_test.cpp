#include "core/coarse.hpp"

#include <gtest/gtest.h>

#include <set>

#include "core/sweep.hpp"
#include "sim/work_ledger.hpp"
#include "graph/generators.hpp"

namespace lc::core {
namespace {

using graph::WeightedGraph;

struct Prepared {
  WeightedGraph graph;
  SimilarityMap map;
  EdgeIndex index;
};

Prepared prepare(WeightedGraph graph, std::uint64_t seed = 42) {
  Prepared p;
  p.map = build_similarity_map(graph);
  p.map.sort_by_score();
  p.index = EdgeIndex(graph.edge_count(), EdgeOrder::kShuffled, seed);
  p.graph = std::move(graph);
  return p;
}

WeightedGraph medium_graph(std::uint64_t seed = 3) {
  return graph::erdos_renyi(60, 0.25, {seed, graph::WeightPolicy::kUniform});
}

TEST(CoarseSweep, TerminatesAtPhiOrExhaustion) {
  const Prepared p = prepare(medium_graph());
  CoarseOptions options;
  options.phi = 10;
  options.delta0 = 50;
  const CoarseResult result = coarse_sweep(p.graph, p.map, p.index, options);
  const std::set<EdgeIdx> clusters(result.final_labels.begin(), result.final_labels.end());
  EXPECT_TRUE(clusters.size() <= options.phi || result.pairs_processed == result.pairs_total)
      << "clusters=" << clusters.size() << " processed=" << result.pairs_processed << "/"
      << result.pairs_total;
}

TEST(CoarseSweep, SoundnessRatioHolds) {
  // Every consecutive accepted-level pair must satisfy beta/beta' <= gamma,
  // except explicitly counted unsplittable violations.
  const Prepared p = prepare(medium_graph(7));
  CoarseOptions options;
  options.gamma = 2.0;
  options.phi = 5;
  options.delta0 = 20;
  const CoarseResult result = coarse_sweep(p.graph, p.map, p.index, options);
  std::size_t violations = 0;
  std::size_t prev = p.graph.edge_count();
  for (const CoarseLevel& level : result.levels) {
    if (static_cast<double>(prev) > options.gamma * static_cast<double>(level.clusters) + 1e-9) {
      ++violations;
    }
    EXPECT_LE(level.clusters, prev);  // cluster counts are non-increasing
    prev = level.clusters;
  }
  EXPECT_LE(violations, result.soundness_violations);
}

TEST(CoarseSweep, LevelsConsistentWithDendrogram) {
  const Prepared p = prepare(medium_graph(11));
  CoarseOptions options;
  options.phi = 8;
  options.delta0 = 30;
  const CoarseResult result = coarse_sweep(p.graph, p.map, p.index, options);
  for (const CoarseLevel& level : result.levels) {
    const auto labels = result.dendrogram.labels_at_level(level.level);
    std::set<EdgeIdx> distinct(labels.begin(), labels.end());
    EXPECT_EQ(distinct.size(), level.clusters) << "level " << level.level;
  }
}

TEST(CoarseSweep, FinalLabelsMatchLastLevel) {
  const Prepared p = prepare(medium_graph(13));
  CoarseOptions options;
  options.phi = 4;
  const CoarseResult result = coarse_sweep(p.graph, p.map, p.index, options);
  ASSERT_FALSE(result.levels.empty());
  EXPECT_EQ(result.final_labels,
            result.dendrogram.labels_at_level(result.levels.back().level));
}

TEST(CoarseSweep, RootLevelMergesEverything) {
  const Prepared p = prepare(medium_graph(17));
  const CoarseResult result = coarse_sweep(p.graph, p.map, p.index);
  const auto root_labels = result.dendrogram.labels_at_level(result.dendrogram.height());
  const std::set<EdgeIdx> distinct(root_labels.begin(), root_labels.end());
  EXPECT_EQ(distinct.size(), 1u);
}

TEST(CoarseSweep, WithPhiOneMatchesFineSweepPartition) {
  // Processing everything coarse-grained must end in the same partition as
  // the fine sweep (merging is order-independent as a set of equivalences).
  const Prepared p = prepare(medium_graph(19));
  const SweepResult fine = sweep(p.graph, p.map, p.index);
  CoarseOptions options;
  options.phi = 1;
  options.gamma = 1e9;  // never roll back
  const CoarseResult coarse = coarse_sweep(p.graph, p.map, p.index, options);
  EXPECT_EQ(coarse.final_labels, fine.final_labels);
  // With phi = 1 the sweep may stop as soon as a single cluster forms; if it
  // stopped early, the clustering must indeed be a single cluster already.
  if (coarse.pairs_processed < coarse.pairs_total) {
    const std::set<EdgeIdx> distinct(coarse.final_labels.begin(), coarse.final_labels.end());
    EXPECT_EQ(distinct.size(), 1u);
  }
}

TEST(CoarseSweep, EarlyStopSkipsTailPairs) {
  // The paper's headline observation (Fig. 5(2)): stopping at phi clusters
  // leaves a large share of the incident pairs unprocessed.
  const Prepared p = prepare(medium_graph(23));
  CoarseOptions options;
  options.phi = std::max<std::size_t>(4, p.graph.edge_count() / 20);
  options.delta0 = 10;
  const CoarseResult result = coarse_sweep(p.graph, p.map, p.index, options);
  EXPECT_LT(result.pairs_processed, result.pairs_total);
}

TEST(CoarseSweep, RollbacksOccurAndAreBookkept) {
  // A large initial chunk with a strict gamma must trigger Case II at least
  // once on a dense graph.
  const Prepared p = prepare(graph::complete_graph(20, {5, graph::WeightPolicy::kUniform}));
  CoarseOptions options;
  options.gamma = 1.3;
  options.delta0 = 500;
  options.phi = 3;
  const CoarseResult result = coarse_sweep(p.graph, p.map, p.index, options);
  EXPECT_GT(result.rollback_count, 0u);
  std::size_t rollback_epochs = 0;
  for (const EpochRecord& epoch : result.epochs) {
    if (epoch.kind == EpochKind::kRollback) ++rollback_epochs;
  }
  EXPECT_EQ(rollback_epochs, result.rollback_count);
}

TEST(CoarseSweep, EpochKindsPartitionTheLog) {
  const Prepared p = prepare(medium_graph(29));
  CoarseOptions options;
  options.gamma = 1.5;
  options.delta0 = 200;
  options.phi = 5;
  const CoarseResult result = coarse_sweep(p.graph, p.map, p.index, options);
  std::size_t reused = 0;
  for (const EpochRecord& epoch : result.epochs) {
    if (epoch.kind == EpochKind::kReused) ++reused;
    EXPECT_LE(epoch.beta_after, epoch.beta_before);
  }
  EXPECT_EQ(reused, result.reuse_count);
  // Accepted levels = total levels recorded.
  std::size_t accepted = 0;
  for (const EpochRecord& epoch : result.epochs) {
    if (epoch.kind != EpochKind::kRollback) ++accepted;
  }
  EXPECT_EQ(accepted, result.levels.size());
}

TEST(CoarseSweep, LedgerRecordsWork) {
  const Prepared p = prepare(medium_graph(37));
  parallel::ThreadPool pool(3);
  sim::WorkLedger ledger;
  CoarseOptions options;
  options.phi = 6;
  coarse_sweep(p.graph, p.map, p.index, options, &pool, &ledger);
  EXPECT_GT(ledger.total_work(), 0u);
  EXPECT_LE(ledger.critical_path(), ledger.total_work());
}

TEST(CoarseSweep, LedgerChargesCTrafficInClosedForm) {
  // The ledger charges 2 units per applied pair, 1 per union and 1 per union
  // a rollback rewinds — never the DSU's CAS retries or path-halving steps —
  // so its total is c_accesses plus the rolled-back unions, and identical
  // runs record identical critical paths.
  const Prepared p = prepare(medium_graph(29));
  CoarseOptions options;
  options.gamma = 1.5;
  options.delta0 = 200;
  options.phi = 5;
  for (const std::size_t threads : {1u, 4u}) {
    parallel::ThreadPool pool(threads);
    sim::WorkLedger first;
    sim::WorkLedger second;
    const CoarseResult result =
        coarse_sweep(p.graph, p.map, p.index, options, &pool, &first);
    coarse_sweep(p.graph, p.map, p.index, options, &pool, &second);
    ASSERT_GT(result.rollback_count, 0u);
    ASSERT_GT(result.reuse_count, 0u);
    std::uint64_t rewound = 0;
    for (const EpochRecord& epoch : result.epochs) {
      if (epoch.kind == EpochKind::kRollback) {
        rewound += epoch.beta_before - epoch.beta_after;
      }
    }
    EXPECT_EQ(first.total_work(), result.stats.c_accesses + rewound)
        << "threads=" << threads;
    EXPECT_EQ(second.total_work(), first.total_work()) << "threads=" << threads;
    EXPECT_EQ(second.critical_path(), first.critical_path()) << "threads=" << threads;
  }
}

TEST(CoarseSweep, SerialLedgerIsPureCriticalPath) {
  // Without a pool every recorded round has width 1, so the critical path
  // equals the total work — the serial baseline the Fig. 6 bench divides by.
  const Prepared p = prepare(medium_graph(41));
  sim::WorkLedger ledger;
  coarse_sweep(p.graph, p.map, p.index, {}, nullptr, &ledger);
  EXPECT_GT(ledger.total_work(), 0u);
  EXPECT_EQ(ledger.critical_path(), ledger.total_work());
  for (const sim::Phase& phase : ledger.phases()) {
    for (const sim::Round& round : phase.rounds) {
      EXPECT_EQ(round.slot_work.size(), 1u);
    }
  }
}

TEST(CoarseSweep, ReuseDisabledStillSound) {
  // rollback_capacity = 0 turns off saved-state reuse; the invariants and the
  // final partition are unaffected (only recomputation cost changes).
  const Prepared p = prepare(medium_graph(43));
  CoarseOptions with_reuse;
  with_reuse.gamma = 1.5;
  with_reuse.phi = 5;
  CoarseOptions without_reuse = with_reuse;
  without_reuse.rollback_capacity = 0;
  const CoarseResult a = coarse_sweep(p.graph, p.map, p.index, with_reuse);
  const CoarseResult b = coarse_sweep(p.graph, p.map, p.index, without_reuse);
  EXPECT_EQ(b.reuse_count, 0u);
  const std::set<EdgeIdx> ca(a.final_labels.begin(), a.final_labels.end());
  const std::set<EdgeIdx> cb(b.final_labels.begin(), b.final_labels.end());
  EXPECT_TRUE(cb.size() <= without_reuse.phi || b.pairs_processed == b.pairs_total);
}

TEST(CoarseSweep, EmptyGraphIsTrivial) {
  graph::GraphBuilder builder(0);
  const Prepared p = prepare(builder.build());
  const CoarseResult result = coarse_sweep(p.graph, p.map, p.index);
  EXPECT_TRUE(result.levels.empty());
  EXPECT_TRUE(result.final_labels.empty());
  EXPECT_EQ(result.pairs_processed, 0u);
}

TEST(CoarseSweep, HeadEpochsGrowExponentially) {
  // In head mode each fresh epoch's chunk grows by eta until C1 flips; check
  // the first few fresh chunks are nondecreasing.
  const Prepared p = prepare(graph::erdos_renyi(80, 0.3, {41, graph::WeightPolicy::kUniform}));
  CoarseOptions options;
  options.delta0 = 5;
  options.eta0 = 4.0;
  options.phi = 5;
  options.gamma = 1e9;  // no rollbacks, so growth is monotone
  const CoarseResult result = coarse_sweep(p.graph, p.map, p.index, options);
  ASSERT_EQ(result.rollback_count, 0u);
  std::vector<std::uint64_t> head_chunks;
  for (const EpochRecord& epoch : result.epochs) {
    if (epoch.kind == EpochKind::kHeadFresh) head_chunks.push_back(epoch.chunk_size);
  }
  for (std::size_t i = 1; i < head_chunks.size(); ++i) {
    EXPECT_GE(head_chunks[i], head_chunks[i - 1]);
  }
}

TEST(CoarseSweepDeathTest, RejectsBadOptions) {
  const Prepared p = prepare(medium_graph(43));
  CoarseOptions options;
  options.gamma = 0.5;
  EXPECT_DEATH(coarse_sweep(p.graph, p.map, p.index, options), "gamma");
  options = CoarseOptions{};
  options.eta0 = 1.0;
  EXPECT_DEATH(coarse_sweep(p.graph, p.map, p.index, options), "growth factor");
}

}  // namespace
}  // namespace lc::core
