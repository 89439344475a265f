// Property suite for the gather build:
//   - the build is byte-identical to the canonical-order reference build
//     (similarity_reference.hpp) — entries, score bits, arena offsets and
//     the pair arena — on every graph shape (seeded ER, barbell bridge,
//     hub-skewed star) serially and at T in {1, 2, 8}, for both measures,
//     including weights at the edges of double precision (subnormals and
//     1e150);
//   - the thresholded map equals the exact map filtered to
//     score >= min_score, including at a threshold equal to an existing
//     key's exact score, which survives;
//   - BuildStats::pairs_exact counts the keys with >= 2 common neighbors;
//   - the memory budget is charged the final map plus the staged entries.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/similarity.hpp"
#include "similarity_reference.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "parallel/thread_pool.hpp"
#include "util/run_context.hpp"

namespace lc::core {
namespace {

using graph::VertexId;
using graph::WeightedGraph;

/// Flattens the observable state of the map except arena offsets — key,
/// score bits, count, edge pairs, in list order — so a filtered map compares
/// against the exact map's surviving entries.
std::vector<std::uint64_t> serialize(const SimilarityMap& map) {
  std::vector<std::uint64_t> out;
  for (const SimilarityEntry& e : map.entries) {
    out.push_back((static_cast<std::uint64_t>(e.u) << 32) | e.v);
    out.push_back(std::bit_cast<std::uint64_t>(e.score));
    out.push_back(e.count);
    for (const EdgePairRef& p : map.pairs(e)) {
      out.push_back((static_cast<std::uint64_t>(p.first) << 32) | p.second);
    }
  }
  return out;
}

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

/// Degree-skew stress: two hubs adjacent to every spoke plus a sparse ring,
/// so hub-spoke keys pair a ~n-long row with length-~4 rows while spoke-spoke
/// keys pair short rows.
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

/// ER topology re-weighted to the edges of double precision: subnormals
/// (5e-324, 1e-308) and huge magnitudes (1e150) interleaved with ordinary
/// weights. Products of subnormals underflow to 0.0 and huge products reach
/// ~1e300 without overflowing; the graph keeps every H2 dominated by a
/// normal-magnitude weight so denominators stay positive.
WeightedGraph extreme_weight_graph() {
  const WeightedGraph base = er_graph();
  graph::GraphBuilder builder(base.vertex_count());
  std::size_t i = 0;
  for (const auto& e : base.edges()) {
    constexpr double kWeights[] = {1.0, 5e-324, 2.0, 1e-308, 0.75, 1e150, 1.25, 3.5};
    builder.add_edge(e.u, e.v, kWeights[i % (sizeof kWeights / sizeof *kWeights)]);
    ++i;
  }
  return builder.build();
}

std::vector<WeightedGraph> property_graphs() {
  std::vector<WeightedGraph> graphs;
  graphs.push_back(er_graph());
  graphs.push_back(barbell_graph());
  graphs.push_back(hub_graph());
  graphs.push_back(extreme_weight_graph());
  return graphs;
}

std::uint64_t multi_common_keys(const SimilarityMap& map) {
  return static_cast<std::uint64_t>(
      std::count_if(map.entries.begin(), map.entries.end(),
                    [](const SimilarityEntry& e) { return e.count >= 2; }));
}

TEST(SimilarityGather, ByteIdenticalToReferenceAcrossThreads) {
  for (const WeightedGraph& graph : property_graphs()) {
    for (const SimilarityMeasure measure :
         {SimilarityMeasure::kTanimoto, SimilarityMeasure::kJaccard}) {
      const std::vector<std::uint64_t> expected = testing_reference::serialize_map(
          testing_reference::build_reference_map(graph, measure));
      ASSERT_FALSE(expected.empty());
      SimilarityMapOptions options;
      options.measure = measure;
      EXPECT_EQ(testing_reference::serialize_map(build_similarity_map(graph, options)),
                expected)
          << "serial n=" << graph.vertex_count();
      for (std::size_t threads : {1u, 2u, 8u}) {
        parallel::ThreadPool pool(threads);
        EXPECT_EQ(testing_reference::serialize_map(
                      build_similarity_map_parallel(graph, pool, nullptr, options)),
                  expected)
            << "threads=" << threads << " n=" << graph.vertex_count();
      }
    }
  }
}

TEST(SimilarityGather, StatsCountersPartitionTheKeys) {
  const WeightedGraph graph = er_graph();
  BuildStats stats;
  SimilarityMapOptions options;
  options.stats = &stats;
  const SimilarityMap map = build_similarity_map(graph, options);
  // pairs_exact counts the multi-common keys; the rest have one common.
  const std::uint64_t multi = multi_common_keys(map);
  EXPECT_GT(multi, 0u);
  EXPECT_LT(multi, map.key_count());
  EXPECT_EQ(stats.pairs_exact, multi);
  EXPECT_GE(stats.pass2_ms, 0.0);
}

class SimilarityGatherPruning : public testing::TestWithParam<SimilarityMeasure> {};

TEST_P(SimilarityGatherPruning, PrunedMapIsExactMapFiltered) {
  for (const WeightedGraph& graph : {er_graph(), hub_graph()}) {
    SimilarityMapOptions exact_options;
    exact_options.measure = GetParam();
    const SimilarityMap exact = build_similarity_map(graph, exact_options);
    // Data-driven thresholds: the midpoint of the observed score range, and
    // the exact score of the median key, which must survive its own
    // threshold. Both keep something and drop something on every
    // graph/measure combination.
    std::vector<SimilarityEntry> by_score(exact.entries.begin(), exact.entries.end());
    std::sort(by_score.begin(), by_score.end(),
              [](const SimilarityEntry& a, const SimilarityEntry& b) { return a.score < b.score; });
    ASSERT_LT(by_score.front().score, by_score.back().score);
    const SimilarityEntry median_key = by_score[by_score.size() / 2];
    const double median = median_key.score;
    const double midpoint = 0.5 * (by_score.front().score + by_score.back().score);
    for (const double min_score : {midpoint, median}) {
      ASSERT_GT(min_score, 0.0);
      // The expectation: the exact map with every key below the threshold
      // dropped, offsets recompacted.
      std::vector<std::uint64_t> expected;
      std::uint64_t kept = 0;
      for (const SimilarityEntry& e : exact.entries) {
        if (e.score < min_score) continue;
        ++kept;
        expected.push_back((static_cast<std::uint64_t>(e.u) << 32) | e.v);
        expected.push_back(std::bit_cast<std::uint64_t>(e.score));
        expected.push_back(e.count);
        for (const EdgePairRef& p : exact.pairs(e)) {
          expected.push_back((static_cast<std::uint64_t>(p.first) << 32) | p.second);
        }
      }
      ASSERT_GT(kept, 0u);
      ASSERT_LT(kept, exact.key_count());  // threshold must actually bite
      for (std::size_t threads : {1u, 2u, 8u}) {
        BuildStats stats;
        SimilarityMapOptions options;
        options.measure = GetParam();
        options.min_score = min_score;
        options.stats = &stats;
        parallel::ThreadPool pool(threads);
        const SimilarityMap filtered =
            build_similarity_map_parallel(graph, pool, nullptr, options);
        EXPECT_EQ(serialize(filtered), expected)
            << "threads=" << threads << " min_score=" << min_score;
        EXPECT_EQ(filtered.key_count(), kept);
        if (min_score == median) {
          // The keys scoring exactly the threshold survive it.
          EXPECT_NE(filtered.find(median_key.u, median_key.v), nullptr);
        }
        // The counter sees every discovered key, filtered or not.
        EXPECT_EQ(stats.pairs_exact, multi_common_keys(exact)) << "threads=" << threads;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Measures, SimilarityGatherPruning,
                         testing::Values(SimilarityMeasure::kTanimoto,
                                         SimilarityMeasure::kJaccard),
                         [](const testing::TestParamInfo<SimilarityMeasure>& param_info) {
                           return param_info.param == SimilarityMeasure::kTanimoto
                                      ? "tanimoto"
                                      : "jaccard";
                         });

// The memory budget sees what the build holds at its peak: the final map
// and, beside it, every staged entry — with or without a floor, serial or
// parallel. The graph keeps K2 / K1 < 4, so the 32-byte staged entries
// outweigh the pairs: a charge that counted pairs in their place would
// read low. The upper bound adds only the per-worker scratch, so
// over-charging fails too.
TEST(SimilarityGather, ChargesStagedEntriesBesideTheFinalMap) {
  const WeightedGraph graph = graph::erdos_renyi(400, 0.03, {7, graph::WeightPolicy::kUniform});
  const SimilarityMap exact = build_similarity_map(graph);
  ASSERT_LT(exact.incident_pair_count(), 4 * exact.key_count());
  std::vector<SimilarityEntry> by_score(exact.entries.begin(), exact.entries.end());
  std::sort(by_score.begin(), by_score.end(),
            [](const SimilarityEntry& a, const SimilarityEntry& b) { return a.score < b.score; });
  const double floor = by_score[by_score.size() / 2].score;
  const std::uint64_t n = graph.vertex_count();
  // GatherScratch: mark, ccount, acc and cursor over n vertices, at most n
  // candidates, and an n-bit bitmap.
  const std::uint64_t scratch_bound = n * (4 + 4 + 8 + 8) + n * 4 + (n + 63) / 64 * 8;
  for (const double min_score : {-std::numeric_limits<double>::infinity(), floor}) {
    for (std::size_t threads : {1u, 4u}) {
      RunContext ctx;
      SimilarityMapOptions options;
      options.ctx = &ctx;
      options.min_score = min_score;
      parallel::ThreadPool pool(threads);
      const SimilarityMap map = build_similarity_map_parallel(graph, pool, nullptr, options);
      ASSERT_GT(map.key_count(), 0u);
      const std::uint64_t staged = map.key_count() * sizeof(SimilarityEntry);
      EXPECT_GE(ctx.memory_peak(), map.memory_bytes() + staged)
          << "threads=" << threads << " min_score=" << min_score;
      EXPECT_LE(ctx.memory_peak(), map.memory_bytes() + staged + threads * scratch_bound + 4096)
          << "threads=" << threads << " min_score=" << min_score;
      // Only the map's own charge outlives the build.
      EXPECT_EQ(ctx.memory_charged(), map.memory_bytes());
    }
  }
}

}  // namespace
}  // namespace lc::core
