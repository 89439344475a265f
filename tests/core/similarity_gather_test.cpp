// Property suite for the gather build:
//   - the build is byte-identical to the canonical-order reference build
//     (similarity_reference.hpp) — entries, score bits, arena offsets and
//     both arenas — on every graph shape (seeded ER, barbell bridge,
//     hub-skewed star) serially and at T in {1, 2, 8}, under every intersect
//     kernel forced through the option, including weights at the edges of
//     double precision (subnormals and 1e150);
//   - the pruned map equals the exact map filtered to score >= min_score,
//     with the pSCAN-style bound actually skipping kernel work
//     (pairs_pruned > 0) and never skipping a surviving key;
//   - BuildStats counters partition the discovered keys.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/similarity.hpp"
#include "similarity_reference.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "numeric/set_intersect.hpp"
#include "parallel/thread_pool.hpp"

namespace lc::core {
namespace {

using graph::VertexId;
using graph::WeightedGraph;

/// Flattens the full observable state of the map — key, score bits, commons,
/// edge pairs, in list order — so equality means byte-identical output.
std::vector<std::uint64_t> serialize(const SimilarityMap& map) {
  std::vector<std::uint64_t> out;
  for (const SimilarityEntry& e : map.entries) {
    out.push_back((static_cast<std::uint64_t>(e.u) << 32) | e.v);
    out.push_back(std::bit_cast<std::uint64_t>(e.score));
    out.push_back(e.count);
    for (VertexId k : map.common(e)) out.push_back(k);
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
/// so intersections pair a ~n-long row against length-~4 rows — deep into
/// the galloping regime — while spoke-spoke keys stay in the merge regime.
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

TEST(SimilarityGather, ByteIdenticalToReferenceAcrossThreadsAndKernels) {
  for (const WeightedGraph& graph : property_graphs()) {
    for (const SimilarityMeasure measure :
         {SimilarityMeasure::kTanimoto, SimilarityMeasure::kJaccard}) {
      const std::vector<std::uint64_t> expected = testing_reference::serialize_map(
          testing_reference::build_reference_map(graph, measure));
      ASSERT_FALSE(expected.empty());
      for (const numeric::IntersectKernel kernel :
           {numeric::IntersectKernel::kAuto, numeric::IntersectKernel::kScalar,
            numeric::IntersectKernel::kGalloping, numeric::IntersectKernel::kSimd}) {
        SimilarityMapOptions options;
        options.measure = measure;
        options.kernel = kernel;
        EXPECT_EQ(testing_reference::serialize_map(build_similarity_map(graph, options)),
                  expected)
            << "serial kernel=" << numeric::kernel_name(kernel)
            << " n=" << graph.vertex_count();
        for (std::size_t threads : {1u, 2u, 8u}) {
          parallel::ThreadPool pool(threads);
          EXPECT_EQ(testing_reference::serialize_map(
                        build_similarity_map_parallel(graph, pool, nullptr, options)),
                    expected)
              << "threads=" << threads << " kernel=" << numeric::kernel_name(kernel)
              << " n=" << graph.vertex_count();
        }
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
  EXPECT_EQ(stats.pairs_pruned, 0u);  // no threshold armed
  EXPECT_GT(stats.pairs_single, 0u);
  EXPECT_GT(stats.pairs_exact, 0u);
  EXPECT_EQ(stats.pairs_single + stats.pairs_exact, map.key_count());
  EXPECT_GE(stats.pass2_ms, 0.0);
}

class SimilarityGatherPruning : public testing::TestWithParam<SimilarityMeasure> {};

TEST_P(SimilarityGatherPruning, PrunedMapIsExactMapFiltered) {
  for (const WeightedGraph& graph : {er_graph(), hub_graph()}) {
    SimilarityMapOptions exact_options;
    exact_options.measure = GetParam();
    const SimilarityMap exact = build_similarity_map(graph, exact_options);
    // A data-driven threshold — the midpoint of the observed score range —
    // guarantees the filter keeps something and drops something on every
    // graph/measure combination.
    const auto [min_it, max_it] = std::minmax_element(
        exact.entries.begin(), exact.entries.end(),
        [](const SimilarityEntry& a, const SimilarityEntry& b) { return a.score < b.score; });
    ASSERT_LT(min_it->score, max_it->score);
    const double min_score = 0.5 * (min_it->score + max_it->score);
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
      for (VertexId k : exact.common(e)) expected.push_back(k);
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
      const SimilarityMap pruned =
          build_similarity_map_parallel(graph, pool, nullptr, options);
      EXPECT_EQ(serialize(pruned), expected) << "threads=" << threads;
      EXPECT_EQ(pruned.key_count(), kept);
      // The bound must do real work: some multi-common keys skipped without
      // an intersection, and the partition must still account for every
      // discovered key.
      EXPECT_GT(stats.pairs_pruned, 0u) << "threads=" << threads;
      EXPECT_EQ(stats.pairs_single + stats.pairs_exact + stats.pairs_pruned,
                exact.key_count())
          << "threads=" << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Measures, SimilarityGatherPruning,
                         testing::Values(SimilarityMeasure::kTanimoto,
                                         SimilarityMeasure::kJaccard),
                         [](const testing::TestParamInfo<SimilarityMeasure>& info) {
                           return info.param == SimilarityMeasure::kTanimoto ? "tanimoto"
                                                                             : "jaccard";
                         });

}  // namespace
}  // namespace lc::core
