// Micro-benchmarks of the core kernels (google-benchmark): Algorithm-1
// similarity construction, the MERGE procedure's chain traversal, the §VI-B
// corrected array merge, and the text pipeline's stemmer/tokenizer.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/cluster_array.hpp"
#include "core/edge_index.hpp"
#include "core/similarity.hpp"
#include "core/sweep.hpp"
#include "core/sweep_source.hpp"
#include "graph/generators.hpp"
#include "graph/stats.hpp"
#include "text/porter.hpp"
#include "text/tokenizer.hpp"
#include "util/rng.hpp"

namespace {

void BM_SimilarityBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto graph = lc::graph::erdos_renyi(n, 0.1, {3, lc::graph::WeightPolicy::kUniform});
  for (auto _ : state) {
    benchmark::DoNotOptimize(lc::core::build_similarity_map(graph));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(lc::graph::count_incident_edge_pairs(graph)));
}
BENCHMARK(BM_SimilarityBuild)->Arg(200)->Arg(600)->Arg(1200);

void BM_SweepFull(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto graph = lc::graph::erdos_renyi(n, 0.1, {3, lc::graph::WeightPolicy::kUniform});
  auto map = lc::core::build_similarity_map(graph);
  map.sort_by_score();
  lc::core::BucketSweepSource source(map);
  const lc::core::EdgeIndex index(graph.edge_count(), lc::core::EdgeOrder::kShuffled, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lc::core::sweep(graph, map, source, index));
  }
}
BENCHMARK(BM_SweepFull)->Arg(200)->Arg(600);

void BM_ArrayMergeFromCorrected(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  lc::Rng rng(5);
  lc::core::ClusterArray a(n);
  lc::core::ClusterArray b(n);
  for (std::size_t i = 0; i < n / 2; ++i) {
    a.merge(static_cast<lc::core::EdgeIdx>(rng.next_below(n)),
            static_cast<lc::core::EdgeIdx>(rng.next_below(n)));
    b.merge(static_cast<lc::core::EdgeIdx>(rng.next_below(n)),
            static_cast<lc::core::EdgeIdx>(rng.next_below(n)));
  }
  const auto snapshot = a.snapshot();
  for (auto _ : state) {
    a.restore(snapshot);
    benchmark::DoNotOptimize(a.merge_from(b, /*corrected=*/true));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ArrayMergeFromCorrected)->Arg(10000)->Arg(100000);

void BM_PorterStem(benchmark::State& state) {
  const std::vector<std::string> words = {
      "generalizations", "clustering", "networks", "communities", "effectiveness",
      "operator", "probate", "controlling", "relational", "hierarchical"};
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lc::text::porter_stem(words[i % words.size()]));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PorterStem);

void BM_Tokenize(benchmark::State& state) {
  const std::string tweet =
      "RT @user123: Clustering the word association networks of #tweets "
      "reveals overlapping communities! https://t.co/abc123";
  for (auto _ : state) {
    benchmark::DoNotOptimize(lc::text::tokenize(tweet));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Tokenize);

}  // namespace

BENCHMARK_MAIN();
