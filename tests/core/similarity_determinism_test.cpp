// Determinism and CSR-arena guarantees of the similarity map:
//   - the parallel build sorted into L is byte-identical to the sorted
//     canonical-order reference build (similarity_reference.hpp) at 1, 2
//     and 8 threads, on a seeded Erdős–Rényi graph and on a barbell graph
//     whose bridge path stresses entries near block boundaries;
//   - arena-backed entries match the serial reference scores and common
//     lists exactly (bitwise), and the pre-resolved edge pairs agree with a
//     find_edge oracle;
//   - sweep() and coarse_sweep() perform zero graph.find_edge() calls;
//   - find() binary-searches the key order the build produces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/coarse.hpp"
#include "core/edge_index.hpp"
#include "core/similarity.hpp"
#include "core/sweep.hpp"
#include "core/sweep_source.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "parallel/thread_pool.hpp"
#include "similarity_reference.hpp"

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

TEST(SimilarityDeterminism, ByteIdenticalAcrossThreadCounts) {
  for (const WeightedGraph& graph : {er_graph(), barbell_graph()}) {
    SimilarityMap reference = testing_reference::build_reference_map(graph);
    reference.sort_by_score();
    const std::vector<std::uint64_t> expected = testing_reference::serialize_map(reference);
    ASSERT_FALSE(expected.empty());
    for (std::size_t threads : {1u, 2u, 8u}) {
      parallel::ThreadPool pool(threads);
      SimilarityMap map = build_similarity_map_parallel(graph, pool);
      map.sort_by_score();
      EXPECT_EQ(testing_reference::serialize_map(map), expected)
          << "threads=" << threads << " n=" << graph.vertex_count();
    }
  }
}

TEST(SimilarityArena, ParallelEntriesMatchSerialReferenceExactly) {
  const WeightedGraph graph = er_graph();
  const SimilarityMap serial = build_similarity_map(graph);
  parallel::ThreadPool pool(4);
  const SimilarityMap par = build_similarity_map_parallel(graph, pool);
  ASSERT_EQ(par.entries.size(), serial.entries.size());
  // Both builders emit key-sorted entries, so the maps align index-by-index.
  for (std::size_t i = 0; i < serial.entries.size(); ++i) {
    const SimilarityEntry& s = serial.entries[i];
    const SimilarityEntry& p = par.entries[i];
    ASSERT_EQ(p.u, s.u);
    ASSERT_EQ(p.v, s.v);
    EXPECT_EQ(p.score, s.score) << "scores must be bitwise equal at i=" << i;
    ASSERT_EQ(p.count, s.count);
    const auto sp = serial.pairs(s);
    const auto pp = par.pairs(p);
    EXPECT_TRUE(std::equal(sp.begin(), sp.end(), pp.begin(),
                           [](const EdgePairRef& a, const EdgePairRef& b) {
                             return a.first == b.first && a.second == b.second;
                           }));
  }
}

TEST(SimilarityArena, PairArenaMatchesFindEdgeOracle) {
  for (const WeightedGraph& graph : {er_graph(), barbell_graph()}) {
    const SimilarityMap map = build_similarity_map(graph);
    ASSERT_GT(map.key_count(), 0u);
    for (const SimilarityEntry& entry : map.entries) {
      // The commons ascending, found in the graph independently of the arena.
      std::vector<graph::VertexId> commons;
      for (const graph::VertexId k : graph.neighbors(entry.u)) {
        if (graph.has_edge(entry.v, k)) commons.push_back(k);
      }
      const auto pairs = map.pairs(entry);
      ASSERT_EQ(commons.size(), pairs.size());
      for (std::size_t i = 0; i < commons.size(); ++i) {
        EXPECT_EQ(pairs[i].first, graph.find_edge(entry.u, commons[i]));
        EXPECT_EQ(pairs[i].second, graph.find_edge(entry.v, commons[i]));
        EXPECT_EQ(shared_vertex(graph, pairs[i]), commons[i]);
      }
    }
  }
}

TEST(SimilarityArena, SweepPerformsZeroFindEdgeCalls) {
  const WeightedGraph graph = er_graph();
  SimilarityMap map = build_similarity_map(graph);
  map.sort_by_score();
  BucketSweepSource source(map);
  const EdgeIndex index(graph.edge_count(), EdgeOrder::kShuffled, 42);
  graph::reset_find_edge_calls();
  const SweepResult result = sweep(graph, map, source, index);
  EXPECT_EQ(graph::find_edge_calls(), 0u);
  EXPECT_GT(result.stats.merges_effective, 0u);
}

TEST(SimilarityArena, CoarseSweepPerformsZeroFindEdgeCalls) {
  const WeightedGraph graph = er_graph();
  SimilarityMap map = build_similarity_map(graph);
  map.sort_by_score();
  BucketSweepSource source(map);
  const EdgeIndex index(graph.edge_count(), EdgeOrder::kShuffled, 42);
  graph::reset_find_edge_calls();
  // Serial application path: every operation runs on this thread, so the
  // thread-local counter sees the whole sweep.
  const CoarseResult result = coarse_sweep(graph, map, source, index, {});
  EXPECT_EQ(graph::find_edge_calls(), 0u);
  EXPECT_GT(result.stats.merges_effective, 0u);
}

TEST(SimilarityFind, BinarySearchesBuilderKeyOrder) {
  const WeightedGraph graph = barbell_graph();
  SimilarityMap map = build_similarity_map(graph);
  ASSERT_TRUE(map.keys_sorted());
  for (const SimilarityEntry& entry : map.entries) {
    const SimilarityEntry* hit = map.find(entry.u, entry.v);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->offset, entry.offset);
    const SimilarityEntry* swapped = map.find(entry.v, entry.u);  // order-insensitive
    EXPECT_EQ(swapped, hit);
  }
  EXPECT_EQ(map.find(0, 19), nullptr);  // opposite clique ends share no neighbor
  map.sort_by_score();
  EXPECT_FALSE(map.keys_sorted());  // linear fallback still finds everything
  for (const SimilarityEntry& entry : map.entries) {
    EXPECT_NE(map.find(entry.u, entry.v), nullptr);
  }
}

}  // namespace
}  // namespace lc::core
