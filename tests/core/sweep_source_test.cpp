// Equivalence suite for the sweep sources (core/sweep_source.hpp):
//   - property: materializing every bucket of a BucketSweepSource leaves
//     map.entries byte-identical to the full sort_by_score() order, for
//     every bucket count — concatenated sorted buckets ARE the global sort;
//   - fine and coarse sweeps driven through BucketSweepSource produce
//     byte-identical merges, labels, and stats to SortedSweepSource across
//     T in {1, 2, 8} x bucket counts {1, 16, 256} x ER/barbell/hub graphs;
//   - runs that stop early (coarse phi, fine min_similarity) and resumes
//     that start late never sort the buckets they never read
//     (buckets_skipped > 0), and a checkpoint resume mid-list reproduces
//     the uninterrupted run bit for bit.
#include "core/sweep_source.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <filesystem>
#include <string>
#include <vector>

#include "core/coarse.hpp"
#include "core/edge_index.hpp"
#include "core/link_clusterer.hpp"
#include "core/similarity.hpp"
#include "core/sweep.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "parallel/thread_pool.hpp"

namespace lc::core {
namespace {

using graph::VertexId;
using graph::WeightedGraph;

WeightedGraph er_graph() {
  return graph::erdos_renyi(120, 0.1, {99, graph::WeightPolicy::kUniform});
}

/// Two K_8 cliques joined by a 5-edge path, deterministic non-unit weights.
WeightedGraph barbell_graph() {
  graph::GraphBuilder builder(20);
  const auto weight = [](VertexId u, VertexId v) {
    return 1.0 + 0.1 * static_cast<double>((u * 7 + v * 13) % 10);
  };
  for (VertexId base : {0u, 12u}) {
    for (VertexId i = 0; i < 8; ++i) {
      for (VertexId j = i + 1; j < 8; ++j) {
        builder.add_edge(base + i, base + j, weight(base + i, base + j));
      }
    }
  }
  for (VertexId v = 7; v < 12; ++v) builder.add_edge(v, v + 1, weight(v, v + 1));
  return builder.build();
}

/// Degree skew: two hubs adjacent to every spoke plus a sparse ring. Many
/// tied scores -> few hot radix bins, the bucket grouping's stress case.
WeightedGraph hub_graph() {
  constexpr VertexId kSpokes = 60;
  graph::GraphBuilder builder(kSpokes + 2);
  const VertexId hub_a = kSpokes;
  const VertexId hub_b = kSpokes + 1;
  for (VertexId v = 0; v < kSpokes; ++v) {
    builder.add_edge(hub_a, v, 1.0 + 0.01 * static_cast<double>(v % 7));
    builder.add_edge(hub_b, v, 1.5 + 0.01 * static_cast<double>(v % 5));
    builder.add_edge(v, (v + 1) % kSpokes, 0.5 + 0.1 * static_cast<double>(v % 3));
  }
  builder.add_edge(hub_a, hub_b, 2.0);
  return builder.build();
}

std::vector<WeightedGraph> all_graphs() {
  std::vector<WeightedGraph> graphs;
  graphs.push_back(er_graph());
  graphs.push_back(barbell_graph());
  graphs.push_back(hub_graph());
  return graphs;
}

SimilarityMap build_map(const WeightedGraph& graph, parallel::ThreadPool* pool) {
  return pool != nullptr ? build_similarity_map_parallel(graph, *pool)
                         : build_similarity_map(graph);
}

void expect_same_sweep(const SweepResult& got, const SweepResult& want) {
  ASSERT_EQ(got.dendrogram.events().size(), want.dendrogram.events().size());
  for (std::size_t i = 0; i < want.dendrogram.events().size(); ++i) {
    const MergeEvent& a = got.dendrogram.events()[i];
    const MergeEvent& b = want.dendrogram.events()[i];
    EXPECT_EQ(a.level, b.level) << "event " << i;
    EXPECT_EQ(a.from, b.from) << "event " << i;
    EXPECT_EQ(a.into, b.into) << "event " << i;
    EXPECT_EQ(a.similarity, b.similarity) << "event " << i;
  }
  EXPECT_EQ(got.final_labels, want.final_labels);
  EXPECT_EQ(got.stats.pairs_processed, want.stats.pairs_processed);
  EXPECT_EQ(got.stats.merges_effective, want.stats.merges_effective);
  EXPECT_EQ(got.stats.c_accesses, want.stats.c_accesses);
  EXPECT_EQ(got.stats.c_changes, want.stats.c_changes);
}

void expect_same_coarse(const CoarseResult& got, const CoarseResult& want) {
  ASSERT_EQ(got.dendrogram.events().size(), want.dendrogram.events().size());
  for (std::size_t i = 0; i < want.dendrogram.events().size(); ++i) {
    const MergeEvent& a = got.dendrogram.events()[i];
    const MergeEvent& b = want.dendrogram.events()[i];
    EXPECT_EQ(a.level, b.level) << "event " << i;
    EXPECT_EQ(a.from, b.from) << "event " << i;
    EXPECT_EQ(a.into, b.into) << "event " << i;
    EXPECT_EQ(a.similarity, b.similarity) << "event " << i;
  }
  EXPECT_EQ(got.final_labels, want.final_labels);
  EXPECT_EQ(got.pairs_processed, want.pairs_processed);
  EXPECT_EQ(got.rollback_count, want.rollback_count);
  EXPECT_EQ(got.reuse_count, want.reuse_count);
  ASSERT_EQ(got.levels.size(), want.levels.size());
  for (std::size_t i = 0; i < want.levels.size(); ++i) {
    EXPECT_EQ(got.levels[i].clusters, want.levels[i].clusters) << "level " << i;
    EXPECT_EQ(got.levels[i].pairs_processed, want.levels[i].pairs_processed) << i;
    EXPECT_EQ(got.levels[i].threshold_score, want.levels[i].threshold_score) << i;
  }
  ASSERT_EQ(got.epochs.size(), want.epochs.size());
  for (std::size_t i = 0; i < want.epochs.size(); ++i) {
    EXPECT_EQ(got.epochs[i].kind, want.epochs[i].kind) << "epoch " << i;
    EXPECT_EQ(got.epochs[i].beta_after, want.epochs[i].beta_after) << "epoch " << i;
    EXPECT_EQ(got.epochs[i].pairs_end, want.epochs[i].pairs_end) << "epoch " << i;
  }
}

constexpr std::size_t kBucketCounts[] = {1, 16, 256};
constexpr std::size_t kThreadCounts[] = {1, 2, 8};

TEST(SweepSource, ConcatenatedSortedBucketsEqualFullStableSort) {
  for (const WeightedGraph& graph : all_graphs()) {
    SimilarityMap sorted = build_map(graph, nullptr);
    sorted.sort_by_score();
    for (const std::size_t buckets : kBucketCounts) {
      SCOPED_TRACE(testing::Message() << "buckets=" << buckets);
      SimilarityMap lazy_map = build_map(graph, nullptr);
      BucketSweepSource::Options options;
      options.bucket_count = buckets;
      BucketSweepSource source(lazy_map, options);
      // Materialize everything through the public window API.
      for (std::size_t i = 0; i < source.size();) {
        const auto ready = source.window(i);
        ASSERT_GT(ready.size(), 0u);
        i += ready.size();
      }
      ASSERT_EQ(lazy_map.entries.size(), sorted.entries.size());
      for (std::size_t i = 0; i < sorted.entries.size(); ++i) {
        const SimilarityEntry& a = lazy_map.entries[i];
        const SimilarityEntry& b = sorted.entries[i];
        ASSERT_EQ(a.u, b.u) << "entry " << i;
        ASSERT_EQ(a.v, b.v) << "entry " << i;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(a.score),
                  std::bit_cast<std::uint64_t>(b.score)) << "entry " << i;
        ASSERT_EQ(a.offset, b.offset) << "entry " << i;
        ASSERT_EQ(a.count, b.count) << "entry " << i;
      }
      const SweepSourceStats stats = source.stats();
      EXPECT_EQ(stats.buckets_sorted, stats.bucket_count);
      EXPECT_EQ(stats.buckets_skipped, 0u);
      EXPECT_LE(stats.bucket_count, buckets);
    }
  }
}

TEST(SweepSource, RadixBucketSortMatchesComparatorOnLargeBuckets) {
  // Buckets above the 4096-entry cutoff take the cache-resident LSD radix
  // path in sort_bucket; the permutation must equal the comparator sort's
  // bit for bit (stable radix + builder-order ties realize score_order).
  const WeightedGraph graph =
      graph::erdos_renyi(400, 0.05, {13, graph::WeightPolicy::kUniform});
  SimilarityMap sorted = build_map(graph, nullptr);
  sorted.sort_by_score();
  ASSERT_GT(sorted.entries.size(), 4u * 4096u) << "graph too small for radix buckets";
  SimilarityMap lazy_map = build_map(graph, nullptr);
  BucketSweepSource::Options options;
  options.bucket_count = 4;
  BucketSweepSource source(lazy_map, options);
  for (std::size_t i = 0; i < source.size();) i += source.window(i).size();
  ASSERT_EQ(lazy_map.entries.size(), sorted.entries.size());
  for (std::size_t i = 0; i < sorted.entries.size(); ++i) {
    const SimilarityEntry& a = lazy_map.entries[i];
    const SimilarityEntry& b = sorted.entries[i];
    ASSERT_EQ(a.u, b.u) << "entry " << i;
    ASSERT_EQ(a.v, b.v) << "entry " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.score),
              std::bit_cast<std::uint64_t>(b.score)) << "entry " << i;
    ASSERT_EQ(a.offset, b.offset) << "entry " << i;
    ASSERT_EQ(a.count, b.count) << "entry " << i;
  }
}

TEST(SweepSource, FineSweepMatchesSortedBackend) {
  for (const WeightedGraph& graph : all_graphs()) {
    const EdgeIndex index(graph.edge_count(), EdgeOrder::kShuffled, 42);
    SimilarityMap sorted = build_map(graph, nullptr);
    sorted.sort_by_score();
    const SweepResult reference = sweep(graph, sorted, index);
    for (const std::size_t threads : kThreadCounts) {
      std::unique_ptr<parallel::ThreadPool> pool;
      if (threads > 1) pool = std::make_unique<parallel::ThreadPool>(threads);
      for (const std::size_t buckets : kBucketCounts) {
        SCOPED_TRACE(testing::Message()
                     << "threads=" << threads << " buckets=" << buckets);
        SimilarityMap lazy_map = build_map(graph, pool.get());
        BucketSweepSource::Options options;
        options.bucket_count = buckets;
        options.pool = pool.get();
        BucketSweepSource source(lazy_map, options);
        const SweepResult lazy = sweep(graph, lazy_map, source, index);
        expect_same_sweep(lazy, reference);
      }
    }
  }
}

TEST(SweepSource, CoarseSweepMatchesSortedBackend) {
  CoarseOptions coarse;
  coarse.delta0 = 64;  // small chunks: rollbacks, reuse jumps, many epochs
  coarse.phi = 10;
  for (const WeightedGraph& graph : all_graphs()) {
    const EdgeIndex index(graph.edge_count(), EdgeOrder::kShuffled, 42);
    SimilarityMap sorted = build_map(graph, nullptr);
    sorted.sort_by_score();
    const CoarseResult reference = coarse_sweep(graph, sorted, index, coarse);
    for (const std::size_t threads : kThreadCounts) {
      std::unique_ptr<parallel::ThreadPool> pool;
      if (threads > 1) pool = std::make_unique<parallel::ThreadPool>(threads);
      for (const std::size_t buckets : kBucketCounts) {
        SCOPED_TRACE(testing::Message()
                     << "threads=" << threads << " buckets=" << buckets);
        SimilarityMap lazy_map = build_map(graph, pool.get());
        BucketSweepSource::Options options;
        options.bucket_count = buckets;
        options.pool = pool.get();
        BucketSweepSource source(lazy_map, options);
        const CoarseResult lazy =
            coarse_sweep(graph, lazy_map, source, index, coarse, pool.get());
        expect_same_coarse(lazy, reference);
      }
    }
  }
}

TEST(SweepSource, CoarsePhiStopSkipsTailBuckets) {
  const WeightedGraph graph = er_graph();
  const EdgeIndex index(graph.edge_count(), EdgeOrder::kShuffled, 42);
  CoarseOptions coarse;
  coarse.delta0 = 64;
  coarse.phi = 30;  // stop well before the tail of L
  SimilarityMap map = build_map(graph, nullptr);
  BucketSweepSource::Options options;
  options.bucket_count = 64;
  BucketSweepSource source(map, options);
  (void)coarse_sweep(graph, map, source, index, coarse);
  const SweepSourceStats stats = source.stats();
  EXPECT_GT(stats.buckets_skipped, 0u);
  EXPECT_LT(stats.buckets_sorted, stats.bucket_count);
}

TEST(SweepSource, FineThresholdSkipsTailBuckets) {
  const WeightedGraph graph = er_graph();
  const EdgeIndex index(graph.edge_count(), EdgeOrder::kShuffled, 42);
  SimilarityMap map = build_map(graph, nullptr);
  // Cut at the median score so roughly half the buckets are never reached.
  SimilarityMap probe = build_map(graph, nullptr);
  probe.sort_by_score();
  const double cut = probe.entries[probe.entries.size() / 2].score;
  BucketSweepSource::Options options;
  options.bucket_count = 64;
  BucketSweepSource source(map, options);
  const SweepResult lazy = sweep(graph, map, source, index, {}, cut);
  const SweepResult reference = sweep(graph, probe, index, {}, cut);
  expect_same_sweep(lazy, reference);
  EXPECT_GT(source.stats().buckets_skipped, 0u);
}

TEST(SweepSource, LazyResumeMidListReproducesUninterruptedRun) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "lc_sweep_source_lazy_resume";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const WeightedGraph graph =
      graph::erdos_renyi(60, 0.15, {5, graph::WeightPolicy::kUniform});
  LinkClusterer::Config config;
  const ClusterResult reference = LinkClusterer(config).cluster(graph);

  // interval 0 snapshots at every entry boundary; the cap strands the last
  // snapshot mid-list, a few buckets in, so the resume must skip the sorted
  // prefix's buckets and land inside one.
  LinkClusterer::Config writing = config;
  writing.checkpoint.directory = dir.string();
  writing.checkpoint.interval_ms = 0;
  writing.checkpoint.max_snapshots = reference.k1 / 2;
  (void)LinkClusterer(writing).cluster(graph);

  LinkClusterer::Config resuming = config;
  resuming.checkpoint.directory = dir.string();
  resuming.checkpoint.interval_ms = 3600000;  // no further writes
  resuming.resume = true;
  const StatusOr<ClusterResult> resumed = LinkClusterer(resuming).run(graph);
  ASSERT_TRUE(resumed.ok()) << resumed.status().to_string();
  expect_same_sweep(
      SweepResult{resumed.value().dendrogram, resumed.value().final_labels,
                  resumed.value().stats},
      SweepResult{reference.dendrogram, reference.final_labels, reference.stats});
  // Buckets wholly before the resume position were never sorted.
  EXPECT_GT(resumed.value().sweep_source.buckets_skipped, 0u);
  fs::remove_all(dir);
}

TEST(SweepSource, EmptyMapYieldsEmptySource) {
  graph::GraphBuilder builder(3);
  builder.add_edge(0, 1, 1.0);  // one edge, no wedge: K1 == 0
  const WeightedGraph graph = builder.build();
  SimilarityMap map = build_map(graph, nullptr);
  ASSERT_TRUE(map.entries.empty());
  BucketSweepSource source(map, BucketSweepSource::Options{});
  EXPECT_EQ(source.size(), 0u);
  EXPECT_EQ(source.stats().buckets_sorted, 0u);
}

}  // namespace
}  // namespace lc::core
