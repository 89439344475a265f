// Ablation (DESIGN.md): the paper's min-relink chain structure (array C with
// full chain rewriting to the minimum, §IV-B) versus a classic union-find
// with union-by-min and path compression. The paper's structure rewrites
// whole chains so that min{F(i)} is always reachable without amortized
// arguments (Theorem 2 bounds the total), while the DSU compresses lazily.
// This benchmark quantifies the gap on random merge workloads.
#include <benchmark/benchmark.h>

#include "core/cluster_array.hpp"
#include "core/dsu.hpp"
#include "util/rng.hpp"

namespace {

std::vector<std::pair<std::uint32_t, std::uint32_t>> random_pairs(std::size_t n,
                                                                  std::size_t count,
                                                                  std::uint64_t seed) {
  lc::Rng rng(seed);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  pairs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto a = static_cast<std::uint32_t>(rng.next_below(n));
    auto b = static_cast<std::uint32_t>(rng.next_below(n));
    if (a == b) b = static_cast<std::uint32_t>((b + 1) % n);
    pairs.emplace_back(a, b);
  }
  return pairs;
}

void BM_PaperClusterArray(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto pairs = random_pairs(n, 2 * n, 42);
  for (auto _ : state) {
    lc::core::ClusterArray clusters(n);
    for (const auto& [a, b] : pairs) {
      benchmark::DoNotOptimize(clusters.merge(a, b));
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(pairs.size()));
}
BENCHMARK(BM_PaperClusterArray)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_ClassicMinDsu(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto pairs = random_pairs(n, 2 * n, 42);
  for (auto _ : state) {
    lc::core::MinDsu dsu(n);
    for (const auto& [a, b] : pairs) {
      benchmark::DoNotOptimize(dsu.unite(a, b));
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(pairs.size()));
}
BENCHMARK(BM_ClassicMinDsu)->Arg(1000)->Arg(10000)->Arg(100000);

// Query-side comparison: root lookups after the merges are done.
void BM_PaperRootLabels(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  lc::core::ClusterArray clusters(n);
  for (const auto& [a, b] : random_pairs(n, 2 * n, 7)) clusters.merge(a, b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(clusters.root_labels());
  }
}
BENCHMARK(BM_PaperRootLabels)->Arg(10000)->Arg(100000);

void BM_DsuLabels(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  lc::core::MinDsu base(n);
  for (const auto& [a, b] : random_pairs(n, 2 * n, 7)) base.unite(a, b);
  for (auto _ : state) {
    lc::core::MinDsu dsu = base;  // labels() compresses, so copy per iteration
    benchmark::DoNotOptimize(dsu.labels());
  }
}
BENCHMARK(BM_DsuLabels)->Arg(10000)->Arg(100000);

}  // namespace

BENCHMARK_MAIN();
