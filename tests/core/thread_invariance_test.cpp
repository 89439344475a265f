// Thread-count invariance of LinkClusterer, end to end:
//   - every ClusterResult field except the timings is identical at
//     T in {1, 2, 4, 8}, in fine and in coarse mode, on a pool that really
//     runs in parallel on a multi-core host;
//   - the pinned dendrogram digests of the ER(3000, 0.01) workload hold at
//     every thread count (fine eae690de81aaed71, coarse a382870fe7701dea).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/link_clusterer.hpp"
#include "graph/generators.hpp"

namespace lc::core {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};

/// FNV-1a over the merge-event stream (level, from, into, similarity bits):
/// any difference in merge order, partners or heights changes the digest.
std::uint64_t event_digest(const Dendrogram& dendrogram) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (byte * 8)) & 0xFFu;
      h *= 1099511628211ull;
    }
  };
  for (const MergeEvent& event : dendrogram.events()) {
    mix((static_cast<std::uint64_t>(event.level) << 32) | event.from);
    mix(event.into);
    mix(std::bit_cast<std::uint64_t>(event.similarity));
  }
  return h;
}

void expect_same_stats(const SweepStats& got, const SweepStats& want) {
  EXPECT_EQ(got.pairs_processed, want.pairs_processed);
  EXPECT_EQ(got.merges_effective, want.merges_effective);
  EXPECT_EQ(got.c_accesses, want.c_accesses);
  EXPECT_EQ(got.c_changes, want.c_changes);
}

void expect_same_dendrogram(const Dendrogram& got, const Dendrogram& want) {
  EXPECT_EQ(got.leaf_count(), want.leaf_count());
  ASSERT_EQ(got.events().size(), want.events().size());
  for (std::size_t i = 0; i < want.events().size(); ++i) {
    const MergeEvent& a = got.events()[i];
    const MergeEvent& b = want.events()[i];
    EXPECT_EQ(a.level, b.level) << "event " << i;
    EXPECT_EQ(a.from, b.from) << "event " << i;
    EXPECT_EQ(a.into, b.into) << "event " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.similarity),
              std::bit_cast<std::uint64_t>(b.similarity))
        << "event " << i;
  }
}

/// Every field of `got` except the timings (and the *_ms members of the
/// sweep-source tally, which are timings too) equals `want`.
void expect_same_result(const ClusterResult& got, const ClusterResult& want) {
  expect_same_dendrogram(got.dendrogram, want.dendrogram);
  EXPECT_EQ(got.final_labels, want.final_labels);
  ASSERT_EQ(got.edge_index.size(), want.edge_index.size());
  for (EdgeIdx i = 0; i < want.edge_index.size(); ++i) {
    ASSERT_EQ(got.edge_index.edge_at(i), want.edge_index.edge_at(i)) << i;
  }
  expect_same_stats(got.stats, want.stats);
  EXPECT_EQ(got.k1, want.k1);
  EXPECT_EQ(got.k2, want.k2);
  EXPECT_EQ(got.sweep_source.bucket_count, want.sweep_source.bucket_count);
  EXPECT_EQ(got.sweep_source.buckets_sorted, want.sweep_source.buckets_sorted);
  EXPECT_EQ(got.sweep_source.buckets_skipped, want.sweep_source.buckets_skipped);
  EXPECT_EQ(got.ckpt.has_value(), want.ckpt.has_value());
  ASSERT_EQ(got.coarse.has_value(), want.coarse.has_value());
  if (!want.coarse.has_value()) return;
  const CoarseResult& a = *got.coarse;
  const CoarseResult& b = *want.coarse;
  expect_same_dendrogram(a.dendrogram, b.dendrogram);
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t i = 0; i < b.epochs.size(); ++i) {
    EXPECT_EQ(a.epochs[i].kind, b.epochs[i].kind) << "epoch " << i;
    EXPECT_EQ(a.epochs[i].chunk_size, b.epochs[i].chunk_size) << "epoch " << i;
    EXPECT_EQ(a.epochs[i].beta_before, b.epochs[i].beta_before) << "epoch " << i;
    EXPECT_EQ(a.epochs[i].beta_after, b.epochs[i].beta_after) << "epoch " << i;
    EXPECT_EQ(a.epochs[i].pairs_end, b.epochs[i].pairs_end) << "epoch " << i;
  }
  ASSERT_EQ(a.levels.size(), b.levels.size());
  for (std::size_t i = 0; i < b.levels.size(); ++i) {
    EXPECT_EQ(a.levels[i].level, b.levels[i].level) << "level " << i;
    EXPECT_EQ(a.levels[i].clusters, b.levels[i].clusters) << "level " << i;
    EXPECT_EQ(a.levels[i].pairs_processed, b.levels[i].pairs_processed) << "level " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.levels[i].threshold_score),
              std::bit_cast<std::uint64_t>(b.levels[i].threshold_score))
        << "level " << i;
  }
  EXPECT_EQ(a.final_labels, b.final_labels);
  expect_same_stats(a.stats, b.stats);
  EXPECT_EQ(a.pairs_total, b.pairs_total);
  EXPECT_EQ(a.pairs_processed, b.pairs_processed);
  EXPECT_EQ(a.rollback_count, b.rollback_count);
  EXPECT_EQ(a.reuse_count, b.reuse_count);
  EXPECT_EQ(a.soundness_violations, b.soundness_violations);
}

TEST(ThreadInvariance, FineResultIdenticalAtEveryThreadCount) {
  const graph::WeightedGraph graph =
      graph::erdos_renyi(200, 0.06, {9, graph::WeightPolicy::kUniform});
  LinkClusterer::Config config;
  const ClusterResult reference = LinkClusterer(config).cluster(graph);
  ASSERT_GT(reference.dendrogram.events().size(), 0u);
  for (const std::size_t threads : kThreadCounts) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    config.threads = threads;
    expect_same_result(LinkClusterer(config).cluster(graph), reference);
  }
}

TEST(ThreadInvariance, CoarseResultIdenticalAtEveryThreadCount) {
  // Small chunks on a graph with many chunk boundaries: each chunk runs the
  // parallel application path, and the run rolls back and reuses states.
  const graph::WeightedGraph graph =
      graph::erdos_renyi(200, 0.06, {9, graph::WeightPolicy::kUniform});
  LinkClusterer::Config config;
  config.mode = ClusterMode::kCoarse;
  config.coarse.delta0 = 64;
  config.coarse.phi = 10;
  const ClusterResult reference = LinkClusterer(config).cluster(graph);
  ASSERT_TRUE(reference.coarse.has_value());
  ASSERT_GT(reference.coarse->levels.size(), 1u);
  ASSERT_GT(reference.coarse->rollback_count, 0u);
  for (const std::size_t threads : kThreadCounts) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    config.threads = threads;
    expect_same_result(LinkClusterer(config).cluster(graph), reference);
  }
}

/// The seeded ER(3000, 0.01) workload with uniform weights whose fine and
/// coarse dendrogram digests are pinned.
graph::WeightedGraph pinned_graph() {
  return graph::erdos_renyi(3000, 0.01, {7, graph::WeightPolicy::kUniform});
}

TEST(PinnedDigests, FineAtEveryThreadCount) {
  const graph::WeightedGraph graph = pinned_graph();
  for (const std::size_t threads : kThreadCounts) {
    LinkClusterer::Config config;
    config.threads = threads;
    const ClusterResult result = LinkClusterer(config).cluster(graph);
    EXPECT_EQ(event_digest(result.dendrogram), 0xeae690de81aaed71ull)
        << "threads=" << threads;
  }
}

TEST(PinnedDigests, CoarseAtEveryThreadCount) {
  const graph::WeightedGraph graph = pinned_graph();
  for (const std::size_t threads : kThreadCounts) {
    LinkClusterer::Config config;
    config.mode = ClusterMode::kCoarse;  // default CoarseOptions
    config.threads = threads;
    const ClusterResult result = LinkClusterer(config).cluster(graph);
    EXPECT_EQ(event_digest(result.dendrogram), 0xa382870fe7701deaull)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace lc::core
