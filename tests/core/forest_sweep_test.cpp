// Differential oracle for the fine pipeline (core/forest.hpp). LinkClusterer's
// fine mode merges only one spanning tree of pairs per common neighbor; it
// must still write the reference sweep's merge list (Algorithm 2 over the
// full sorted list L, core/sweep.hpp) byte for byte, on seeded random graphs
// and on tie-heavy ones, for both measures, every thread count and a
// similarity floor. Also here: the forest's size and shape, checkpoint and
// resume on the forest path, its memory charges, the passes a memory budget
// splits the score triangles into, and coarse mode on the forest, checked
// against the reference coarse sweep.
#include "core/forest.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/coarse.hpp"
#include "core/dendrogram_io.hpp"
#include "core/dsu.hpp"
#include "core/link_clusterer.hpp"
#include "core/similarity.hpp"
#include "core/sweep.hpp"
#include "core/sweep_source.hpp"
#include "graph/generators.hpp"
#include "graph/stats.hpp"
#include "util/fault_inject.hpp"
#include "util/rng.hpp"
#include "util/run_context.hpp"

namespace lc::core {
namespace {

using graph::VertexId;
using graph::WeightedGraph;

constexpr double kNoFloor = -std::numeric_limits<double>::infinity();

/// R-MAT with the Graph500 corner probabilities. Unit weights drop repeated
/// draws; otherwise repeats accumulate weight, as the benchmark's R-MAT does.
WeightedGraph rmat(std::size_t scale, std::size_t edge_factor, std::uint64_t seed,
                   bool unit_weights) {
  const std::size_t n = std::size_t{1} << scale;
  Rng rng(seed);
  graph::GraphBuilder builder(n);
  std::set<std::pair<VertexId, VertexId>> seen;
  for (std::size_t e = 0; e < n * edge_factor; ++e) {
    VertexId u = 0;
    VertexId v = 0;
    for (std::size_t level = 0; level < scale; ++level) {
      const double r = rng.next_double();
      u = (u << 1) | (r >= 0.76 ? 1u : 0u);
      v = (v << 1) | ((r >= 0.57 && r < 0.76) || r >= 0.95 ? 1u : 0u);
    }
    if (u == v) continue;
    if (unit_weights && !seen.insert(std::minmax(u, v)).second) continue;
    builder.add_edge(u, v, 1.0);
  }
  return builder.build();
}

WeightedGraph star(std::size_t leaves) {
  graph::GraphBuilder builder(leaves + 1);
  for (VertexId leaf = 1; leaf <= leaves; ++leaf) builder.add_edge(0, leaf, 1.0);
  return builder.build();
}

WeightedGraph path(std::size_t vertices) {
  graph::GraphBuilder builder(vertices);
  for (VertexId v = 1; v < vertices; ++v) builder.add_edge(v - 1, v, 0.5 + 0.1 * (v % 3));
  return builder.build();
}

/// An ER graph on the even vertices only: every odd vertex is isolated.
WeightedGraph with_isolated_vertices() {
  const WeightedGraph core =
      graph::erdos_renyi(60, 0.12, {17, graph::WeightPolicy::kUniform});
  graph::GraphBuilder builder(2 * core.vertex_count() + 1);
  for (const graph::Edge& edge : core.edges()) {
    builder.add_edge(2 * edge.u, 2 * edge.v, edge.weight);
  }
  return builder.build();
}

struct NamedGraph {
  std::string name;
  WeightedGraph graph;
};

const std::vector<NamedGraph>& oracle_graphs() {
  static const std::vector<NamedGraph> graphs = [] {
    std::vector<NamedGraph> out;
    out.push_back({"er", graph::erdos_renyi(150, 0.06, {3, graph::WeightPolicy::kUniform})});
    out.push_back({"rmat", rmat(8, 6, 5, false)});
    out.push_back({"watts_strogatz",
                   graph::watts_strogatz(120, 8, 0.2, {9, graph::WeightPolicy::kUniform})});
    out.push_back({"er_unit", graph::erdos_renyi(150, 0.06, {4})});
    out.push_back({"rmat_unit", rmat(8, 6, 6, true)});
    out.push_back({"k40", graph::complete_graph(40)});
    out.push_back({"star", star(30)});
    out.push_back({"path", path(40)});
    out.push_back({"isolated", with_isolated_vertices()});
    out.push_back({"empty", graph::GraphBuilder(5).build()});
    return out;
  }();
  return graphs;
}

/// The k-range bounds of a single pass over every triangle.
std::vector<VertexId> one_range(const WeightedGraph& graph) {
  return {0, static_cast<VertexId>(graph.vertex_count())};
}

std::uint64_t forest_pair_count(const WeightedGraph& graph) {
  std::uint64_t count = 0;
  for (VertexId k = 0; k < graph.vertex_count(); ++k) {
    if (graph.degree(k) > 0) count += graph.degree(k) - 1;
  }
  return count;
}

/// Algorithm 2 over the full sorted L, with LinkClusterer's edge enumeration.
SweepResult reference_sweep(const WeightedGraph& graph, SimilarityMeasure measure,
                            double min_similarity) {
  SimilarityMapOptions options;
  options.measure = measure;
  SimilarityMap map = build_similarity_map(graph, options);
  map.sort_by_score();
  BucketSweepSource source(map);
  const LinkClusterer::Config defaults;
  const EdgeIndex index(graph.edge_count(), defaults.edge_order, defaults.seed);
  return sweep(graph, map, source, index, {}, min_similarity);
}

/// The median key score: a floor that cuts the sweep about halfway.
double median_score(const WeightedGraph& graph, SimilarityMeasure measure) {
  SimilarityMapOptions options;
  options.measure = measure;
  const SimilarityMap map = build_similarity_map(graph, options);
  std::vector<double> scores;
  for (const SimilarityEntry& entry : map.entries) scores.push_back(entry.score);
  if (scores.empty()) return 0.0;
  const auto middle = scores.begin() + static_cast<std::ptrdiff_t>(scores.size() / 2);
  std::nth_element(scores.begin(), middle, scores.end());
  return *middle;
}

void expect_same_events(const Dendrogram& got, const Dendrogram& want) {
  ASSERT_EQ(got.events().size(), want.events().size());
  for (std::size_t i = 0; i < want.events().size(); ++i) {
    const MergeEvent& a = got.events()[i];
    const MergeEvent& b = want.events()[i];
    ASSERT_EQ(a.level, b.level) << "event " << i;
    ASSERT_EQ(a.from, b.from) << "event " << i;
    ASSERT_EQ(a.into, b.into) << "event " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.similarity),
              std::bit_cast<std::uint64_t>(b.similarity))
        << "event " << i;
  }
}

TEST(ForestSweep, MergeListEqualsTheReferenceSweep) {
  for (const NamedGraph& named : oracle_graphs()) {
    for (const SimilarityMeasure measure :
         {SimilarityMeasure::kTanimoto, SimilarityMeasure::kJaccard}) {
      for (const double floor : {kNoFloor, median_score(named.graph, measure)}) {
        const SweepResult want = reference_sweep(named.graph, measure, floor);
        const std::string want_text = to_merge_list(want.dendrogram);
        for (const std::size_t threads :
             {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{8}}) {
          SCOPED_TRACE(testing::Message()
                       << named.name << " measure=" << static_cast<int>(measure)
                       << " floor=" << floor << " threads=" << threads);
          LinkClusterer::Config config;
          config.threads = threads;
          config.measure = measure;
          config.min_similarity = floor;
          const ClusterResult got = LinkClusterer(config).cluster(named.graph);
          EXPECT_EQ(to_merge_list(got.dendrogram), want_text);
          expect_same_events(got.dendrogram, want.dendrogram);
          EXPECT_EQ(got.final_labels, want.final_labels);
          EXPECT_EQ(got.stats.merges_effective, want.stats.merges_effective);
        }
      }
    }
  }
}

TEST(ForestSweep, KeepsOneSpanningTreePerCommonNeighbor) {
  parallel::ThreadPool pool(3);
  for (const NamedGraph& named : oracle_graphs()) {
    SCOPED_TRACE(named.name);
    const WeightedGraph& graph = named.graph;
    const SpanningForest serial = spanning_forest(graph, one_range(graph));
    const SpanningForest pooled = spanning_forest(graph, one_range(graph), &pool);
    ASSERT_EQ(serial.pairs.size(), forest_pair_count(graph));
    EXPECT_TRUE(std::is_sorted(serial.pairs.begin(), serial.pairs.end(), sweep_order));

    // Per k: d_k − 1 pairs of k's own edges that join all d_k of them, so a
    // spanning tree of clique k.
    std::vector<std::vector<const ForestPair*>> by_k(graph.vertex_count());
    for (const ForestPair& pair : serial.pairs) by_k[pair.k].push_back(&pair);
    for (VertexId k = 0; k < graph.vertex_count(); ++k) {
      const std::size_t d = graph.degree(k);
      ASSERT_EQ(by_k[k].size(), d == 0 ? 0 : d - 1) << "k=" << k;
      MinDsu tree(graph.edge_count());
      for (const ForestPair* pair : by_k[k]) {
        EXPECT_LT(pair->u, pair->v);
        EXPECT_EQ(pair->first, graph.find_edge(pair->u, k));
        EXPECT_EQ(pair->second, graph.find_edge(pair->v, k));
        EXPECT_TRUE(tree.unite(pair->first, pair->second)) << "cycle in clique " << k;
      }
    }

    ASSERT_EQ(pooled.pairs.size(), serial.pairs.size());
    for (std::size_t i = 0; i < serial.pairs.size(); ++i) {
      const ForestPair& a = serial.pairs[i];
      const ForestPair& b = pooled.pairs[i];
      ASSERT_TRUE(std::bit_cast<std::uint64_t>(a.score) ==
                      std::bit_cast<std::uint64_t>(b.score) &&
                  a.u == b.u && a.v == b.v && a.k == b.k && a.first == b.first &&
                  a.second == b.second)
          << "pair " << i << " differs between T = 1 and T = 3";
    }
  }
}

TEST(ForestSweep, TrianglesHoldTheMapScoresAndCounts) {
  const WeightedGraph graph =
      graph::erdos_renyi(120, 0.08, {21, graph::WeightPolicy::kUniform});
  for (const double floor : {kNoFloor, median_score(graph, SimilarityMeasure::kTanimoto)}) {
    SimilarityMapOptions options;
    options.min_score = floor;
    const SimilarityMap map = build_similarity_map(graph, options);
    const ScoreTriangles triangles = TriangleBuilder(graph, nullptr, nullptr, options)
                                         .build(0, static_cast<VertexId>(graph.vertex_count()));
    EXPECT_EQ(triangles.key_count, map.key_count());
    EXPECT_EQ(triangles.incident_pairs, map.incident_pair_count());
    EXPECT_EQ(triangles.scores.size(), graph::compute_stats(graph).k2);
    // Every pair of every surviving key sits at (pos_k(u), pos_k(v)) of its
    // triangle with the key's exact score bits.
    for (const SimilarityEntry& entry : map.entries) {
      for (const EdgePairRef& pair : map.pairs(entry)) {
        const VertexId k = shared_vertex(graph, pair);
        const std::span<const VertexId> row = graph.neighbors(k);
        const auto i = static_cast<std::uint64_t>(
            std::lower_bound(row.begin(), row.end(), entry.u) - row.begin());
        const auto j = static_cast<std::uint64_t>(
            std::lower_bound(row.begin(), row.end(), entry.v) - row.begin());
        ASSERT_EQ(std::bit_cast<std::uint64_t>(
                      triangles.triangle(k)[ScoreTriangles::slot(i, j, row.size())]),
                  std::bit_cast<std::uint64_t>(entry.score));
      }
    }
  }
}

TEST(ForestSweep, StatsCountTheForestPairs) {
  const WeightedGraph graph =
      graph::erdos_renyi(150, 0.06, {3, graph::WeightPolicy::kUniform});
  const ClusterResult full = LinkClusterer().cluster(graph);
  EXPECT_EQ(full.stats.pairs_processed, forest_pair_count(graph));
  EXPECT_EQ(full.stats.merges_effective, full.dendrogram.events().size());
  EXPECT_EQ(full.stats.c_changes, full.stats.merges_effective);
  EXPECT_EQ(full.stats.c_accesses,
            2 * full.stats.pairs_processed + full.stats.merges_effective);

  // A floor stops the merge pass early: fewer pairs, the same prefix.
  LinkClusterer::Config floored;
  floored.min_similarity = median_score(graph, SimilarityMeasure::kTanimoto);
  const ClusterResult cut = LinkClusterer(floored).cluster(graph);
  EXPECT_LT(cut.stats.pairs_processed, full.stats.pairs_processed);
  ASSERT_LT(cut.dendrogram.events().size(), full.dendrogram.events().size());
  for (std::size_t i = 0; i < cut.dendrogram.events().size(); ++i) {
    EXPECT_EQ(cut.dendrogram.events()[i].from, full.dendrogram.events()[i].from);
  }
}

class ForestCheckpoint : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("lc_forest_" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    fault::disarm();
    std::filesystem::remove_all(dir_);
  }

  std::filesystem::path dir_;
};

const WeightedGraph& checkpoint_graph() {
  static const WeightedGraph graph =
      graph::erdos_renyi(120, 0.08, {9, graph::WeightPolicy::kUniform});
  return graph;
}

TEST_F(ForestCheckpoint, KillAtEntryThenResumeReproducesTheRun) {
  const WeightedGraph& graph = checkpoint_graph();
  const std::uint64_t kill_at = forest_pair_count(graph) / 2;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    std::filesystem::remove_all(dir_);
    LinkClusterer::Config config;
    config.threads = threads;
    const ClusterResult reference = LinkClusterer(config).cluster(graph);

    // Snapshot at every pair boundary, then die at pair `kill_at`: an
    // injected throw is not a stop, so nothing is flushed — the last
    // snapshot is the boundary before the kill.
    LinkClusterer::Config writing = config;
    writing.checkpoint.directory = dir_.string();
    writing.checkpoint.interval_ms = 0;
    fault::arm("sweep.entry", fault::FaultKind::kThrow, kill_at);
    const StatusOr<ClusterResult> killed = LinkClusterer(writing).run(graph);
    fault::disarm();
    ASSERT_FALSE(killed.ok());
    EXPECT_EQ(killed.status().code(), StatusCode::kInternal);

    const StatusOr<LoadedCheckpoint> loaded = load_checkpoint(
        dir_.string(), LinkClusterer::fingerprint(graph, writing), graph.edge_count());
    ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
    EXPECT_EQ(loaded->fine.list, FineList::kForest);
    EXPECT_EQ(loaded->fine.entry_pos, kill_at);

    LinkClusterer::Config resuming = config;
    resuming.checkpoint.directory = dir_.string();
    resuming.checkpoint.interval_ms = 3600000;
    resuming.resume = true;
    const StatusOr<ClusterResult> resumed = LinkClusterer(resuming).run(graph);
    ASSERT_TRUE(resumed.ok()) << resumed.status().to_string();
    EXPECT_EQ(to_merge_list(resumed->dendrogram), to_merge_list(reference.dendrogram));
    expect_same_events(resumed->dendrogram, reference.dendrogram);
    EXPECT_EQ(resumed->final_labels, reference.final_labels);
    EXPECT_EQ(resumed->stats.pairs_processed, reference.stats.pairs_processed);
    EXPECT_EQ(resumed->stats.merges_effective, reference.stats.merges_effective);
    EXPECT_EQ(resumed->stats.c_accesses, reference.stats.c_accesses);
    EXPECT_EQ(resumed->stats.c_changes, reference.stats.c_changes);
  }
}

TEST_F(ForestCheckpoint, RefusesASnapshotOfTheFullPairList) {
  // The reference sweep's snapshot indexes L, not the forest: a fine run
  // must refuse it rather than misread its position.
  const WeightedGraph& graph = checkpoint_graph();
  LinkClusterer::Config config;
  config.checkpoint.directory = dir_.string();
  config.checkpoint.interval_ms = 0;
  config.checkpoint.max_snapshots = 1;
  const RunFingerprint fp = LinkClusterer::fingerprint(graph, config);
  {
    SimilarityMap map = build_similarity_map(graph);
    map.sort_by_score();
    BucketSweepSource source(map);
    const EdgeIndex index(graph.edge_count(), config.edge_order, config.seed);
    Checkpointer checkpointer(config.checkpoint, fp);
    (void)sweep(graph, map, source, index, {}, kNoFloor, nullptr, &checkpointer);
    ASSERT_EQ(checkpointer.snapshots_written(), 1u);
  }
  const StatusOr<LoadedCheckpoint> loaded =
      load_checkpoint(dir_.string(), fp, graph.edge_count());
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded->fine.list, FineList::kPairs);

  config.resume = true;
  const StatusOr<ClusterResult> resumed = LinkClusterer(config).run(graph);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(resumed.status().message().find("full pair list"), std::string::npos)
      << resumed.status().message();
}

/// Bytes of k's score triangle: C(d_k, 2) doubles.
std::uint64_t triangle_bytes(const WeightedGraph& graph, VertexId k) {
  const std::uint64_t d = graph.degree(k);
  return (d < 2 ? 0 : d * (d - 1) / 2) * sizeof(double);
}

std::uint64_t largest_triangle_bytes(const WeightedGraph& graph) {
  std::uint64_t largest = 0;
  for (VertexId k = 0; k < graph.vertex_count(); ++k) {
    largest = std::max(largest, triangle_bytes(graph, k));
  }
  return largest;
}

/// A budget that holds the forest pairs, the gather scratch at T = `threads`
/// and `room` bytes of score triangles.
std::uint64_t budget_with_room(const WeightedGraph& graph, std::size_t threads,
                               std::uint64_t room) {
  return forest_pair_count(graph) * sizeof(ForestPair) +
         gather_scratch_bytes(graph.vertex_count(), threads) + room;
}

TEST(ForestMemory, BudgetBelowOnePassFailsWithTheBytesNeeded) {
  const WeightedGraph graph =
      graph::erdos_renyi(300, 0.05, {11, graph::WeightPolicy::kUniform});
  const ClusterResult unbudgeted = LinkClusterer().cluster(graph);
  const std::uint64_t needed = budget_with_room(graph, 1, largest_triangle_bytes(graph));
  {
    // One byte short of the forest, the scratch and the largest triangle:
    // refused up front, before anything is charged.
    RunContext ctx;
    ctx.set_memory_budget(needed - 1);
    LinkClusterer::Config config;
    config.ctx = &ctx;
    const StatusOr<ClusterResult> run = LinkClusterer(config).run(graph);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(run.status().message().find(std::to_string(needed) + " bytes"),
              std::string::npos)
        << run.status().message();
    EXPECT_EQ(ctx.memory_peak(), 0u);
  }
  {
    // Exactly enough: the run fits, one triangle's worth per pass at worst,
    // and writes the unbudgeted dendrogram.
    RunContext ctx;
    ctx.set_memory_budget(needed);
    LinkClusterer::Config config;
    config.ctx = &ctx;
    const StatusOr<ClusterResult> run = LinkClusterer(config).run(graph);
    ASSERT_TRUE(run.ok()) << run.status().to_string();
    EXPECT_GT(run->passes, 1u);
    EXPECT_LE(ctx.memory_peak(), needed);
    EXPECT_EQ(to_merge_list(run->dendrogram), to_merge_list(unbudgeted.dendrogram));
  }
}

TEST(ForestMemory, ChargesTrianglesAndPairsAndReleasesThem) {
  const WeightedGraph graph =
      graph::erdos_renyi(300, 0.05, {11, graph::WeightPolicy::kUniform});
  const std::uint64_t triangle_bytes = graph::compute_stats(graph).k2 * sizeof(double);
  const std::uint64_t pair_bytes = forest_pair_count(graph) * sizeof(ForestPair);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    RunContext ctx;
    LinkClusterer::Config config;
    config.threads = threads;
    config.ctx = &ctx;
    ASSERT_TRUE(LinkClusterer(config).run(graph).ok());
    // The forest is built while the triangles are alive.
    EXPECT_GE(ctx.memory_peak(), triangle_bytes + pair_bytes);
    EXPECT_EQ(ctx.memory_charged(), 0u);

    RunContext fits;
    fits.set_memory_budget(ctx.memory_peak());
    config.ctx = &fits;
    EXPECT_TRUE(LinkClusterer(config).run(graph).ok());
  }
}

// ---------------------------------------------------------------------------
// Passes: the triangles built one k-range at a time must give the same forest
// and the same merge list for every split and every thread count.

/// Bounds cutting [0, n) into `parts` runs of nearly equal vertex count;
/// parts = n puts one k in each range.
std::vector<VertexId> even_ranges(std::size_t n, std::size_t parts) {
  std::vector<VertexId> bounds;
  for (std::size_t r = 0; r <= parts; ++r) bounds.push_back(static_cast<VertexId>(r * n / parts));
  return bounds;
}

/// FNV-1a over the merge-event stream, as the pinned digests are computed.
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

TEST(ForestPasses, EveryRangeSplitGivesTheSameForestAndMergeList) {
  std::vector<NamedGraph> graphs;
  graphs.push_back({"er", graph::erdos_renyi(300, 0.04, {5, graph::WeightPolicy::kUniform})});
  graphs.push_back({"rmat_hubs", rmat(10, 8, 3, false)});
  graphs.push_back({"er_unit", graph::erdos_renyi(300, 0.04, {6})});
  graphs.push_back({"k200", graph::complete_graph(200)});
  const LinkClusterer::Config defaults;
  for (const NamedGraph& named : graphs) {
    const WeightedGraph& graph = named.graph;
    const std::size_t n = graph.vertex_count();
    const EdgeIndex index(graph.edge_count(), defaults.edge_order, defaults.seed);
    const SpanningForest want = spanning_forest(graph, one_range(graph));
    const std::string want_text = to_merge_list(forest_sweep(want, index).dendrogram);
    for (const std::size_t passes : {std::size_t{1}, std::size_t{2}, std::size_t{4}, n}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE(testing::Message()
                     << named.name << " passes=" << passes << " threads=" << threads);
        std::unique_ptr<parallel::ThreadPool> pool;
        if (threads > 1) pool = std::make_unique<parallel::ThreadPool>(threads);
        const SpanningForest got = spanning_forest(graph, even_ranges(n, passes), pool.get());
        ASSERT_EQ(got.pairs.size(), want.pairs.size());
        for (std::size_t i = 0; i < want.pairs.size(); ++i) {
          const ForestPair& a = got.pairs[i];
          const ForestPair& b = want.pairs[i];
          ASSERT_TRUE(std::bit_cast<std::uint64_t>(a.score) ==
                          std::bit_cast<std::uint64_t>(b.score) &&
                      a.u == b.u && a.v == b.v && a.k == b.k && a.first == b.first &&
                      a.second == b.second)
              << "pair " << i;
        }
        EXPECT_EQ(got.key_count, want.key_count);
        EXPECT_EQ(got.incident_pairs, want.incident_pairs);
        EXPECT_EQ(to_merge_list(forest_sweep(got, index).dendrogram), want_text);
      }
    }
  }
}

TEST(ForestPasses, RangesPackGreedilyUnderTheBudget) {
  const WeightedGraph graph = rmat(9, 8, 4, false);
  const auto n = static_cast<VertexId>(graph.vertex_count());
  // No context, no budget, or room for every triangle: one range.
  EXPECT_EQ(triangle_ranges(graph, 1, nullptr), one_range(graph));
  RunContext unlimited;
  EXPECT_EQ(triangle_ranges(graph, 1, &unlimited), one_range(graph));
  const std::uint64_t all = graph::compute_stats(graph).k2 * sizeof(double);
  RunContext roomy;
  roomy.set_memory_budget(budget_with_room(graph, 1, all));
  EXPECT_EQ(triangle_ranges(graph, 1, &roomy), one_range(graph));

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const std::uint64_t room = std::max(all / 5, largest_triangle_bytes(graph));
    RunContext ctx;
    ctx.set_memory_budget(budget_with_room(graph, threads, room));
    const std::vector<VertexId> bounds = triangle_ranges(graph, threads, &ctx);
    // Every range holds at most `room` of the `all` bytes.
    ASSERT_GE(bounds.size() - 1, (all + room - 1) / room);
    ASSERT_GE(bounds.size(), 3u);
    EXPECT_EQ(bounds.front(), 0u);
    EXPECT_EQ(bounds.back(), n);
    for (std::size_t r = 0; r + 1 < bounds.size(); ++r) {
      ASSERT_LT(bounds[r], bounds[r + 1]);
      std::uint64_t held = 0;
      for (VertexId k = bounds[r]; k < bounds[r + 1]; ++k) held += triangle_bytes(graph, k);
      EXPECT_LE(held, room) << "range " << r;
      // Greedy: the next range's first triangle did not fit in this one.
      if (r + 2 < bounds.size()) {
        EXPECT_GT(held + triangle_bytes(graph, bounds[r + 1]), room) << "range " << r;
      }
    }
  }
}

TEST(ForestPasses, PinnedFineDigestHoldsUnderFourOrMorePasses) {
  const WeightedGraph graph =
      graph::erdos_renyi(3000, 0.01, {7, graph::WeightPolicy::kUniform});
  const std::uint64_t all = graph::compute_stats(graph).k2 * sizeof(double);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    RunContext ctx;
    const std::uint64_t budget = budget_with_room(graph, threads, all / 4);
    ctx.set_memory_budget(budget);
    LinkClusterer::Config config;
    config.threads = threads;
    config.ctx = &ctx;
    const StatusOr<ClusterResult> run = LinkClusterer(config).run(graph);
    ASSERT_TRUE(run.ok()) << run.status().to_string();
    EXPECT_GE(run->passes, 4u);
    EXPECT_LE(ctx.memory_peak(), budget);
    EXPECT_EQ(event_digest(run->dendrogram), 0xeae690de81aaed71ull);
  }
}

TEST_F(ForestCheckpoint, SnapshotWrittenInOnePassResumesUnderMany) {
  const WeightedGraph& graph = checkpoint_graph();
  const ClusterResult reference = LinkClusterer().cluster(graph);
  ASSERT_EQ(reference.passes, 1u);

  LinkClusterer::Config writing;
  writing.checkpoint.directory = dir_.string();
  writing.checkpoint.interval_ms = 0;
  fault::arm("sweep.entry", fault::FaultKind::kThrow, forest_pair_count(graph) / 2);
  ASSERT_FALSE(LinkClusterer(writing).run(graph).ok());
  fault::disarm();

  // The budget is not part of the fingerprint: the snapshot loads, and the
  // rebuilt forest it indexes is the same however many passes built it.
  const std::uint64_t all = graph::compute_stats(graph).k2 * sizeof(double);
  RunContext ctx;
  ctx.set_memory_budget(
      budget_with_room(graph, 1, std::max(all / 3, largest_triangle_bytes(graph))));
  LinkClusterer::Config resuming;
  resuming.checkpoint.directory = dir_.string();
  resuming.checkpoint.interval_ms = 3600000;
  resuming.resume = true;
  resuming.ctx = &ctx;
  const StatusOr<ClusterResult> resumed = LinkClusterer(resuming).run(graph);
  ASSERT_TRUE(resumed.ok()) << resumed.status().to_string();
  EXPECT_GT(resumed->passes, 1u);
  EXPECT_EQ(to_merge_list(resumed->dendrogram), to_merge_list(reference.dendrogram));
  EXPECT_EQ(resumed->final_labels, reference.final_labels);
  EXPECT_EQ(resumed->stats.pairs_processed, reference.stats.pairs_processed);
}

TEST(ForestMemory, TrianglePassChargesNoArenaCursors) {
  // Only the map build's walk 2 reads the per-worker arena cursors, so a
  // triangle pass charges T · n · 8 B less gather scratch. With a 1-byte
  // budget the scratch is the first charge of either build, and the error
  // names the bytes it tried to hold.
  const WeightedGraph graph =
      graph::erdos_renyi(300, 0.05, {11, graph::WeightPolicy::kUniform});
  const std::uint64_t n = graph.vertex_count();
  const auto scratch_charged = [](const std::function<void(SimilarityMapOptions&)>& build) {
    RunContext ctx;
    ctx.set_memory_budget(1);
    SimilarityMapOptions options;
    options.ctx = &ctx;
    try {
      build(options);
    } catch (const StoppedError& stopped) {
      const std::string& message = stopped.status().message();
      EXPECT_NE(message.find("sim.gather.scratch"), std::string::npos) << message;
      return std::stoull(message.substr(message.find('(') + 1));
    }
    ADD_FAILURE() << "the 1-byte budget did not trip";
    return 0ull;
  };
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    parallel::ThreadPool pool(threads);
    const std::uint64_t map_scratch = scratch_charged([&](SimilarityMapOptions& options) {
      (void)build_similarity_map_parallel(graph, pool, nullptr, options);
    });
    const std::uint64_t triangle_scratch = scratch_charged([&](SimilarityMapOptions& options) {
      const TriangleBuilder builder(graph, &pool, nullptr, options);
    });
    EXPECT_EQ(triangle_scratch, gather_scratch_bytes(n, threads));
    EXPECT_EQ(map_scratch - triangle_scratch, threads * n * sizeof(std::uint64_t));
  }
}

// ---------------------------------------------------------------------------
// Coarse mode: the §V sweep over L uniting only each chunk's forest pairs
// must reproduce the reference coarse sweep (every incident pair of each
// chunk, from the map's arena, over sort_by_score()) in every field but the
// pair-count stats.

/// The reference coarse sweep over the map built with `floor`, with
/// LinkClusterer's edge enumeration.
CoarseResult reference_coarse(const WeightedGraph& graph, const CoarseOptions& options,
                              double floor) {
  SimilarityMapOptions map_options;
  map_options.min_score = floor;
  SimilarityMap map = build_similarity_map(graph, map_options);
  map.sort_by_score();
  BucketSweepSource source(map);
  const LinkClusterer::Config defaults;
  const EdgeIndex index(graph.edge_count(), defaults.edge_order, defaults.seed);
  return coarse_sweep(graph, map, source, index, options);
}

void expect_same_coarse(const CoarseResult& got, const CoarseResult& want) {
  EXPECT_EQ(to_merge_list(got.dendrogram), to_merge_list(want.dendrogram));
  expect_same_events(got.dendrogram, want.dendrogram);
  ASSERT_EQ(got.levels.size(), want.levels.size());
  for (std::size_t i = 0; i < want.levels.size(); ++i) {
    EXPECT_EQ(got.levels[i].level, want.levels[i].level) << "level " << i;
    EXPECT_EQ(got.levels[i].clusters, want.levels[i].clusters) << "level " << i;
    EXPECT_EQ(got.levels[i].pairs_processed, want.levels[i].pairs_processed) << "level " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.levels[i].threshold_score),
              std::bit_cast<std::uint64_t>(want.levels[i].threshold_score))
        << "level " << i;
  }
  ASSERT_EQ(got.epochs.size(), want.epochs.size());
  for (std::size_t i = 0; i < want.epochs.size(); ++i) {
    EXPECT_EQ(got.epochs[i].kind, want.epochs[i].kind) << "epoch " << i;
    EXPECT_EQ(got.epochs[i].chunk_size, want.epochs[i].chunk_size) << "epoch " << i;
    EXPECT_EQ(got.epochs[i].beta_before, want.epochs[i].beta_before) << "epoch " << i;
    EXPECT_EQ(got.epochs[i].beta_after, want.epochs[i].beta_after) << "epoch " << i;
    EXPECT_EQ(got.epochs[i].pairs_end, want.epochs[i].pairs_end) << "epoch " << i;
  }
  EXPECT_EQ(got.rollback_count, want.rollback_count);
  EXPECT_EQ(got.reuse_count, want.reuse_count);
  EXPECT_EQ(got.soundness_violations, want.soundness_violations);
  EXPECT_EQ(got.pairs_processed, want.pairs_processed);
  EXPECT_EQ(got.pairs_total, want.pairs_total);
  EXPECT_EQ(got.final_labels, want.final_labels);
  EXPECT_EQ(got.stats.merges_effective, want.stats.merges_effective);
}

/// Small chunks and a tight gamma: many levels, rollbacks and reuse jumps.
CoarseOptions tight_coarse(std::size_t phi) {
  CoarseOptions options;
  options.delta0 = 16;
  options.gamma = 1.2;
  options.phi = phi;
  return options;
}

TEST(CoarseForest, MatchesTheReferenceCoarseSweep) {
  std::size_t rollbacks = 0;
  std::size_t reuses = 0;
  for (const NamedGraph& named : oracle_graphs()) {
    for (const double floor :
         {kNoFloor, median_score(named.graph, SimilarityMeasure::kTanimoto)}) {
      for (const std::size_t phi : {std::size_t{1}, std::size_t{100}}) {
        const CoarseOptions options = tight_coarse(phi);
        const CoarseResult want = reference_coarse(named.graph, options, floor);
        rollbacks += want.rollback_count;
        reuses += want.reuse_count;
        for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
          SCOPED_TRACE(testing::Message() << named.name << " floor=" << floor
                                          << " phi=" << phi << " threads=" << threads);
          LinkClusterer::Config config;
          config.mode = ClusterMode::kCoarse;
          config.coarse = options;
          config.threads = threads;
          config.min_similarity = floor;
          const ClusterResult got = LinkClusterer(config).cluster(named.graph);
          ASSERT_TRUE(got.coarse.has_value());
          expect_same_coarse(*got.coarse, want);
          EXPECT_EQ(got.final_labels, want.final_labels);
          EXPECT_EQ(got.k2, want.pairs_total);
        }
      }
    }
  }
  // The settings really drove the mode machine through both of its jumps.
  EXPECT_GT(rollbacks, 0u);
  EXPECT_GT(reuses, 0u);
}

TEST(CoarseForest, ListIsTheMapsEntries) {
  // The first triangle pass stages L exactly as the map build's phase A:
  // the same entries, offsets included, in build order, at every T.
  const WeightedGraph graph = rmat(9, 6, 8, false);
  for (const double floor : {kNoFloor, median_score(graph, SimilarityMeasure::kTanimoto)}) {
    SimilarityMapOptions options;
    options.min_score = floor;
    const SimilarityMap map = build_similarity_map(graph, options);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(testing::Message() << "floor=" << floor << " threads=" << threads);
      std::unique_ptr<parallel::ThreadPool> pool;
      if (threads > 1) pool = std::make_unique<parallel::ThreadPool>(threads);
      SimilarityMap list;
      const SpanningForest forest =
          spanning_forest(graph, even_ranges(graph.vertex_count(), 3), pool.get(), nullptr,
                          options, &list);
      EXPECT_TRUE(list.keys_sorted());
      EXPECT_TRUE(list.pair_arena.empty());
      EXPECT_EQ(forest.key_count, list.key_count());
      ASSERT_EQ(list.entries.size(), map.entries.size());
      for (std::size_t i = 0; i < map.entries.size(); ++i) {
        const SimilarityEntry& a = list.entries[i];
        const SimilarityEntry& b = map.entries[i];
        ASSERT_TRUE(a.u == b.u && a.v == b.v && a.count == b.count && a.offset == b.offset &&
                    std::bit_cast<std::uint64_t>(a.score) ==
                        std::bit_cast<std::uint64_t>(b.score))
            << "entry " << i;
      }
    }
  }
}

/// A coarse budget: the fine one plus twice the bound K1 <= min(K2, C(n, 2))
/// on L's bytes.
std::uint64_t coarse_budget_with_room(const WeightedGraph& graph, std::size_t threads,
                                      std::uint64_t room) {
  const std::uint64_t n = graph.vertex_count();
  const std::uint64_t keys = std::min(graph::compute_stats(graph).k2, n * (n - 1) / 2);
  return budget_with_room(graph, threads, room) + 2 * keys * sizeof(SimilarityEntry);
}

TEST(CoarseForest, BudgetPassesGiveTheReferenceSweep) {
  std::vector<NamedGraph> graphs;
  graphs.push_back({"er", graph::erdos_renyi(300, 0.04, {5, graph::WeightPolicy::kUniform})});
  graphs.push_back({"rmat_hubs", rmat(10, 8, 3, false)});
  graphs.push_back({"er_unit", graph::erdos_renyi(300, 0.04, {6})});
  for (const NamedGraph& named : graphs) {
    const WeightedGraph& graph = named.graph;
    const CoarseOptions options = tight_coarse(10);
    const CoarseResult want = reference_coarse(graph, options, kNoFloor);
    const std::uint64_t all = graph::compute_stats(graph).k2 * sizeof(double);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(testing::Message() << named.name << " threads=" << threads);
      RunContext ctx;
      const std::uint64_t budget = coarse_budget_with_room(
          graph, threads, std::max(all / 3, largest_triangle_bytes(graph)));
      ctx.set_memory_budget(budget);
      LinkClusterer::Config config;
      config.mode = ClusterMode::kCoarse;
      config.coarse = options;
      config.threads = threads;
      config.ctx = &ctx;
      const StatusOr<ClusterResult> run = LinkClusterer(config).run(graph);
      ASSERT_TRUE(run.ok()) << run.status().to_string();
      EXPECT_GE(run->passes, 2u);
      EXPECT_LE(ctx.memory_peak(), budget);
      expect_same_coarse(*run->coarse, want);
    }
  }
}

}  // namespace
}  // namespace lc::core
