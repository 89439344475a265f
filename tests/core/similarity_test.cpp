#include "core/similarity.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/generators.hpp"
#include "graph/stats.hpp"
#include "parallel/thread_pool.hpp"
#include "similarity_reference.hpp"

namespace lc::core {
namespace {

using graph::GeneratorOptions;
using graph::VertexId;
using graph::WeightedGraph;

TEST(SimilarityMap, PaperFigure1Values) {
  // K_{2,4} with unit weights: S(hub pair) = 2/3, S(leaf pair) = 1/2.
  const WeightedGraph graph = graph::paper_figure1_graph();
  const SimilarityMap map = build_similarity_map(graph);
  EXPECT_EQ(map.key_count(), 7u);            // K1
  EXPECT_EQ(map.incident_pair_count(), 16u); // K2

  const SimilarityEntry* hubs = map.find(0, 1);
  ASSERT_NE(hubs, nullptr);
  EXPECT_NEAR(hubs->score, 2.0 / 3.0, 1e-12);
  EXPECT_EQ(hubs->count, 4u);

  for (VertexId a = 2; a < 6; ++a) {
    for (VertexId b = a + 1; b < 6; ++b) {
      const SimilarityEntry* leaves = map.find(a, b);
      ASSERT_NE(leaves, nullptr) << a << "," << b;
      EXPECT_NEAR(leaves->score, 0.5, 1e-12);
      EXPECT_EQ(leaves->count, 2u);
    }
  }
}

TEST(SimilarityMap, KeyCountsMatchGraphStats) {
  for (std::uint64_t seed : {3u, 5u, 8u}) {
    const WeightedGraph graph = graph::erdos_renyi(60, 0.12, {seed, graph::WeightPolicy::kUniform});
    const graph::GraphStats stats = graph::compute_stats(graph);
    const SimilarityMap map = build_similarity_map(graph);
    EXPECT_EQ(map.key_count(), stats.k1);
    EXPECT_EQ(map.incident_pair_count(), stats.k2);
  }
}

TEST(SimilarityMap, EmptyAndEdgelessGraphs) {
  graph::GraphBuilder empty(0);
  EXPECT_EQ(build_similarity_map(empty.build()).key_count(), 0u);
  const WeightedGraph isolated = graph::disjoint_edges(4);
  const SimilarityMap map = build_similarity_map(isolated);
  EXPECT_EQ(map.key_count(), 0u);  // K1 = 0: no common neighbors anywhere
}

TEST(SimilarityMap, SortByScoreOrdersAndBreaksTies) {
  const WeightedGraph graph = graph::paper_figure1_graph();
  SimilarityMap map = build_similarity_map(graph);
  map.sort_by_score();
  for (std::size_t i = 1; i < map.entries.size(); ++i) {
    const auto& a = map.entries[i - 1];
    const auto& b = map.entries[i];
    EXPECT_TRUE(a.score > b.score ||
                (a.score == b.score && (a.u < b.u || (a.u == b.u && a.v < b.v))));
  }
  EXPECT_EQ(map.entries.front().u, 0u);  // hub pair first (2/3 > 1/2)
  EXPECT_EQ(map.entries.front().v, 1u);
}

// Property sweep: every entry's score equals the brute-force Eq. (1)
// computation on the explicit |V|-dimensional vectors, for every common
// neighbor, on varied random topologies.
struct SimilarityCase {
  const char* name;
  WeightedGraph (*make)(std::uint64_t seed);
};

WeightedGraph make_er(std::uint64_t seed) {
  return graph::erdos_renyi(40, 0.15, {seed, graph::WeightPolicy::kUniform});
}
WeightedGraph make_ba(std::uint64_t seed) {
  return graph::barabasi_albert(40, 3, {seed, graph::WeightPolicy::kUniform});
}
WeightedGraph make_complete(std::uint64_t seed) {
  return graph::complete_graph(12, {seed, graph::WeightPolicy::kUniform});
}
WeightedGraph make_regular(std::uint64_t seed) {
  return graph::regular_graph(30, 6, {seed, graph::WeightPolicy::kUniform});
}
WeightedGraph make_ws(std::uint64_t seed) {
  return graph::watts_strogatz(40, 6, 0.2, {seed, graph::WeightPolicy::kUniform});
}

class SimilarityProperty : public testing::TestWithParam<SimilarityCase> {};

TEST_P(SimilarityProperty, MatchesBruteForceEquationOne) {
  for (std::uint64_t seed : {11u, 22u}) {
    const WeightedGraph graph = GetParam().make(seed);
    const SimilarityMap map = build_similarity_map(graph);
    for (const SimilarityEntry& entry : map.entries) {
      for (const EdgePairRef& pair : map.pairs(entry)) {
        const VertexId k = shared_vertex(graph, pair);
        const double expected = tanimoto_similarity_bruteforce(graph, entry.u, entry.v, k);
        ASSERT_NEAR(entry.score, expected, 1e-10)
            << GetParam().name << " seed=" << seed << " pair=(" << entry.u << ","
            << entry.v << ") k=" << k;
      }
    }
  }
}

TEST_P(SimilarityProperty, CoversEveryIncidentPair) {
  const WeightedGraph graph = GetParam().make(7);
  const SimilarityMap map = build_similarity_map(graph);
  std::set<std::pair<VertexId, VertexId>> keys;
  for (const SimilarityEntry& entry : map.entries) {
    EXPECT_LT(entry.u, entry.v);
    EXPECT_TRUE(keys.emplace(entry.u, entry.v).second) << "duplicate key";
  }
  // Every two-path (i-k, j-k) must be keyed by (i, j).
  for (VertexId k = 0; k < graph.vertex_count(); ++k) {
    const auto adj = graph.neighbors(k);
    for (std::size_t a = 0; a < adj.size(); ++a) {
      for (std::size_t b = a + 1; b < adj.size(); ++b) {
        EXPECT_TRUE(keys.count({adj[a], adj[b]}) == 1)
            << "missing key (" << adj[a] << "," << adj[b] << ") via " << k;
      }
    }
  }
}

TEST_P(SimilarityProperty, MatchesReferenceBuild) {
  // The canonical per-entry summation order makes the build bitwise equal
  // to the reference: entries, score bits, arena offsets and both arenas.
  const WeightedGraph graph = GetParam().make(5);
  EXPECT_EQ(testing_reference::serialize_map(build_similarity_map(graph)),
            testing_reference::serialize_map(testing_reference::build_reference_map(graph)));
}

TEST_P(SimilarityProperty, ParallelMatchesSerial) {
  const WeightedGraph graph = GetParam().make(13);
  SimilarityMap serial = build_similarity_map(graph);
  serial.sort_by_score();
  for (std::size_t threads : {1u, 2u, 3u, 4u, 6u}) {
    parallel::ThreadPool pool(threads);
    SimilarityMap par = build_similarity_map_parallel(graph, pool);
    par.sort_by_score();
    ASSERT_EQ(par.entries.size(), serial.entries.size()) << "T=" << threads;
    for (std::size_t i = 0; i < serial.entries.size(); ++i) {
      EXPECT_EQ(par.entries[i].u, serial.entries[i].u);
      EXPECT_EQ(par.entries[i].v, serial.entries[i].v);
      EXPECT_EQ(par.entries[i].score, serial.entries[i].score)
          << "T=" << threads << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, SimilarityProperty,
                         testing::Values(SimilarityCase{"erdos_renyi", make_er},
                                         SimilarityCase{"barabasi_albert", make_ba},
                                         SimilarityCase{"complete", make_complete},
                                         SimilarityCase{"regular", make_regular},
                                         SimilarityCase{"watts_strogatz", make_ws}),
                         [](const testing::TestParamInfo<SimilarityCase>& param_info) {
                           return param_info.param.name;
                         });

TEST(SimilarityParallel, LedgerRecordsAllPhases) {
  const WeightedGraph graph = make_er(3);
  parallel::ThreadPool pool(4);
  sim::WorkLedger ledger;
  build_similarity_map_parallel(graph, pool, &ledger);
  ASSERT_GE(ledger.phases().size(), 4u);
  EXPECT_GT(ledger.total_work(), 0u);
  EXPECT_LE(ledger.critical_path(), ledger.total_work());
}

// examples/parallel_scaling's default-seed ER(300, 0.2): every build phase
// is a balanced parallel round, so the simulated initialization speedup at
// T = 2 is near 2x. A serial copy of the block outputs after the gather
// once held it at 0.99x.
TEST(SimilarityParallel, LedgerSpeedupAtTwoThreads) {
  const WeightedGraph graph =
      graph::erdos_renyi(300, 0.2, GeneratorOptions{3, graph::WeightPolicy::kUniform});
  const auto ledger_at = [&graph](std::size_t threads) {
    parallel::ThreadPool pool(threads);
    sim::WorkLedger ledger;
    build_similarity_map_parallel(graph, pool, &ledger);
    return ledger;
  };
  const std::uint64_t serial_work = ledger_at(1).total_work();
  const sim::WorkLedger two = ledger_at(2);
  EXPECT_EQ(two.total_work(), serial_work);
  EXPECT_GE(two.speedup_vs(serial_work), 1.8);
}

TEST(SimilarityBruteForce, RequiresIncidentEdges) {
  const WeightedGraph graph = graph::paper_figure1_graph();
  EXPECT_DEATH(tanimoto_similarity_bruteforce(graph, 0, 1, 0), "must exist");
}

}  // namespace
}  // namespace lc::core
