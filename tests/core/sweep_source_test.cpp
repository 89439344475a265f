// Equivalence suite for the sorted-L source (core/sweep_source.hpp):
//   - property: materializing every bucket of a BucketSweepSource reads
//     entries byte-identical to the full sort_by_score() order, with L given
//     as one part or as many uneven ones and the scatter serial or
//     pool-parallel — concatenated sorted buckets ARE the global sort;
//   - a bucket is sorted on the caller's thread when a position in it is
//     first read, and no sooner;
//   - runs that stop early (coarse phi, fine min_similarity) and resumes
//     that start late never sort the buckets they never read
//     (buckets_skipped > 0), and the reference sweep's checkpoint resume
//     mid-list reproduces the uninterrupted run bit for bit.
#include "core/sweep_source.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <filesystem>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/coarse.hpp"
#include "core/edge_index.hpp"
#include "core/similarity.hpp"
#include "core/sweep.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "parallel/thread_pool.hpp"
#include "util/run_context.hpp"

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

/// Reads every position of `source` and compares it with `sorted`'s entry
/// there, every field bit for bit.
void expect_reads_sorted(BucketSweepSource& source, const SimilarityMap& sorted) {
  ASSERT_EQ(source.size(), sorted.entries.size());
  for (std::size_t i = 0; i < sorted.entries.size(); ++i) {
    const SimilarityEntry& a = source.at(i);
    const SimilarityEntry& b = sorted.entries[i];
    ASSERT_EQ(a.u, b.u) << "entry " << i;
    ASSERT_EQ(a.v, b.v) << "entry " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.score), std::bit_cast<std::uint64_t>(b.score))
        << "entry " << i;
    ASSERT_EQ(a.offset, b.offset) << "entry " << i;
    ASSERT_EQ(a.count, b.count) << "entry " << i;
  }
}

/// `entries` cut at `cuts` (ascending positions in [0, n], repeats allowed):
/// parts of uneven size, the empty ones included.
std::vector<std::span<const SimilarityEntry>> cut_into_parts(
    std::span<const SimilarityEntry> entries, const std::vector<std::size_t>& cuts) {
  std::vector<std::span<const SimilarityEntry>> parts;
  std::size_t begin = 0;
  for (const std::size_t cut : cuts) {
    parts.push_back(entries.subspan(begin, cut - begin));
    begin = cut;
  }
  parts.push_back(entries.subspan(begin));
  return parts;
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

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

TEST(SweepSource, ConcatenatedSortedBucketsEqualFullStableSort) {
  for (const WeightedGraph& graph : all_graphs()) {
    SimilarityMap sorted = build_map(graph, nullptr);
    sorted.sort_by_score();
    const SimilarityMap map = build_map(graph, nullptr);
    const std::size_t n = map.entries.size();
    ASSERT_GT(n, 8u);
    // One part (the map), then uneven parts with empty ones at the front,
    // in the middle and at the back, and a one-entry part.
    const std::vector<std::vector<std::size_t>> cut_sets = {
        {}, {0, 0, n / 7, n / 7, n / 2, n - 1, n, n}};
    for (const std::vector<std::size_t>& cuts : cut_sets) {
      const std::vector<std::span<const SimilarityEntry>> parts =
          cut_into_parts(map.entries, cuts);
      for (const std::size_t threads : kThreadCounts) {
        SCOPED_TRACE(testing::Message() << "parts=" << parts.size() << " threads=" << threads);
        std::unique_ptr<parallel::ThreadPool> pool;
        if (threads > 1) pool = std::make_unique<parallel::ThreadPool>(threads);
        BucketSweepSource::Options options;
        options.pool = pool.get();
        BucketSweepSource source(parts, options);
        // Materialize everything through the public window API.
        for (std::size_t i = 0; i < source.size();) {
          const auto ready = source.window(i);
          ASSERT_GT(ready.size(), 0u);
          i += ready.size();
        }
        expect_reads_sorted(source, sorted);
        const SweepSourceStats stats = source.stats();
        EXPECT_EQ(stats.buckets_sorted, stats.bucket_count);
        EXPECT_EQ(stats.buckets_skipped, 0u);
      }
    }
  }
}

TEST(SweepSource, FirstReadSortsOnlyItsBucket) {
  // Bucket 0 is sorted when position 0 is first read, on this thread; no
  // other bucket is touched until a position in it is read.
  const WeightedGraph graph = er_graph();
  SimilarityMap map = build_map(graph, nullptr);
  BucketSweepSource source(map);
  ASSERT_GE(source.bucket_count(), 2u);
  (void)source.at(0);
  SweepSourceStats stats = source.stats();
  EXPECT_EQ(stats.buckets_sorted, 1u);
  EXPECT_EQ(stats.buckets_skipped, stats.bucket_count - 1);
  EXPECT_EQ(stats.blocked_ms, stats.bucket_sort_ms);
  const std::size_t ready = source.window(0).size();
  ASSERT_LT(ready, source.size());
  EXPECT_EQ(source.stats().buckets_sorted, 1u);
  (void)source.at(ready);
  stats = source.stats();
  EXPECT_EQ(stats.buckets_sorted, 2u);
  EXPECT_EQ(stats.blocked_ms, stats.bucket_sort_ms);
}

TEST(SweepSource, RadixBucketSortMatchesComparatorOnLargeBuckets) {
  // Buckets above the 4096-entry cutoff take the cache-resident LSD radix
  // path in sort_bucket; the permutation must equal the comparator sort's
  // bit for bit (stable radix + builder-order ties realize score_order).
  const WeightedGraph graph =
      graph::erdos_renyi(400, 0.05, {13, graph::WeightPolicy::kUniform});
  SimilarityMap sorted = build_map(graph, nullptr);
  sorted.sort_by_score();
  const SimilarityMap map = build_map(graph, nullptr);
  const std::size_t n = map.entries.size();
  parallel::ThreadPool pool(2);
  // Build order survives a cut into parts, so the radix path stays open.
  for (const std::vector<std::size_t>& cuts :
       std::vector<std::vector<std::size_t>>{{}, {n / 3, n / 3, 2 * n / 3}}) {
    SCOPED_TRACE(testing::Message() << "cuts=" << cuts.size());
    BucketSweepSource::Options options;
    options.pool = &pool;
    BucketSweepSource source(cut_into_parts(map.entries, cuts), options);
    // The mean bucket is past the cutoff, so the largest one is too.
    ASSERT_GT(source.size(), 4096u * source.bucket_count())
        << "graph too small for radix buckets";
    expect_reads_sorted(source, sorted);
  }
}

TEST(SweepSource, CoarsePhiStopSkipsTailBuckets) {
  const WeightedGraph graph = er_graph();
  const EdgeIndex index(graph.edge_count(), EdgeOrder::kShuffled, 42);
  CoarseOptions coarse;
  coarse.delta0 = 64;
  coarse.phi = 30;  // stop well before the tail of L
  SimilarityMap map = build_map(graph, nullptr);
  BucketSweepSource source(map);
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
  BucketSweepSource source(map);
  BucketSweepSource probe_source(probe);
  const SweepResult lazy = sweep(graph, map, source, index, {}, cut);
  const SweepResult reference = sweep(graph, probe, probe_source, index, {}, cut);
  expect_same_sweep(lazy, reference);
  EXPECT_GT(source.stats().buckets_skipped, 0u);
}

TEST(SweepSource, LazyResumeMidListReproducesUninterruptedRun) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "lc_sweep_source_lazy_resume";
  fs::remove_all(dir);
  fs::create_directories(dir);

  // The reference fine sweep over L: cancel it halfway, let its stop flush
  // write the one kPairs snapshot, and resume it over a fresh source, which
  // must skip the buckets wholly before the stored position and land inside
  // one.
  const WeightedGraph graph = er_graph();
  const EdgeIndex index(graph.edge_count(), EdgeOrder::kShuffled, 42);
  SimilarityMap probe = build_map(graph, nullptr);
  BucketSweepSource probe_source(probe);
  const SweepResult reference = sweep(graph, probe, probe_source, index);

  CheckpointPolicy policy;
  policy.directory = dir.string();
  policy.interval_ms = 3600000;  // only the stop flush writes
  RunFingerprint fingerprint;
  fingerprint.graph_digest = graph_fingerprint(graph);
  {
    SimilarityMap map = build_map(graph, nullptr);
    BucketSweepSource source(map);
    Checkpointer checkpointer(policy, fingerprint);
    RunContext ctx;
    const std::uint64_t halfway = reference.stats.pairs_processed / 2;
    const PairObserver cancel_halfway = [&](std::uint64_t ordinal, std::uint32_t) {
      if (ordinal == halfway) ctx.request_cancel();
    };
    EXPECT_THROW((void)sweep(graph, map, source, index, cancel_halfway,
                             -std::numeric_limits<double>::infinity(), &ctx, &checkpointer),
                 StoppedError);
    ASSERT_EQ(checkpointer.snapshots_written(), 1u);
  }
  const StatusOr<LoadedCheckpoint> loaded =
      load_checkpoint(dir.string(), fingerprint, graph.edge_count());
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  ASSERT_EQ(loaded->fine.list, FineList::kPairs);
  ASSERT_GT(loaded->fine.entry_pos, 0u);

  SimilarityMap map = build_map(graph, nullptr);
  BucketSweepSource source(map);
  const SweepResult resumed =
      sweep(graph, map, source, index, {}, -std::numeric_limits<double>::infinity(),
            nullptr, nullptr, &loaded->fine);
  expect_same_sweep(resumed, reference);
  // Buckets wholly before the resume position were never sorted.
  EXPECT_GT(source.stats().buckets_skipped, 0u);
  fs::remove_all(dir);
}

TEST(SweepSource, EmptyMapYieldsEmptySource) {
  graph::GraphBuilder builder(3);
  builder.add_edge(0, 1, 1.0);  // one edge, no wedge: K1 == 0
  const WeightedGraph graph = builder.build();
  SimilarityMap map = build_map(graph, nullptr);
  ASSERT_TRUE(map.entries.empty());
  BucketSweepSource source(map);
  EXPECT_EQ(source.size(), 0u);
  EXPECT_EQ(source.stats().buckets_sorted, 0u);
}

}  // namespace
}  // namespace lc::core
