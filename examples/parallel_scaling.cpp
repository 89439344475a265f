// Parallel scaling demo: run the §VI multi-threaded phases with 1..T threads
// and report wall-clock times plus the work/span simulated speedups (what the
// same run would achieve with that many real cores — see DESIGN.md §2 on the
// single-core substitution).
//
//   $ ./examples/parallel_scaling [--vertices 400] [--p 0.3] [--max-threads 6]
//
// Initialization (Algorithm 1) scales near-linearly. The coarse sweep is
// serial at every T: each chunk unites only its spanning-forest pairs, fewer
// than 2|E| over a run (DESIGN.md §10), so the demo reports its work once.
#include <cstdio>

#include "linkcluster.hpp"
#include "util/cli.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  lc::CliFlags flags;
  flags.add_int("vertices", 400, "graph size");
  flags.add_double("p", 0.3, "edge probability");
  flags.add_int("max-threads", 6, "largest thread count to try");
  flags.add_int("seed", 3, "graph seed");
  if (!flags.parse(argc, argv)) return 1;

  const lc::graph::WeightedGraph graph = lc::graph::erdos_renyi(
      static_cast<std::size_t>(flags.get_int("vertices")), flags.get_double("p"),
      {static_cast<std::uint64_t>(flags.get_int("seed")), lc::graph::WeightPolicy::kUniform});
  std::printf("graph: %zu vertices, %zu edges\n", graph.vertex_count(), graph.edge_count());

  const lc::core::EdgeIndex index(graph.edge_count(), lc::core::EdgeOrder::kShuffled, 42);
  std::uint64_t init_serial_work = 0;
  double init_serial_wall = 0.0;
  lc::core::SimilarityMap map;

  std::printf("\n%-8s %-12s %-10s %-16s\n", "threads", "init wall", "init x",
              "init simulated");
  for (std::size_t threads = 1;
       threads <= static_cast<std::size_t>(flags.get_int("max-threads"));
       threads = threads == 1 ? 2 : threads + 2) {
    lc::parallel::ThreadPool pool(threads);

    lc::sim::WorkLedger init_ledger;
    lc::Stopwatch watch;
    map = lc::core::build_similarity_map_parallel(graph, pool, &init_ledger);
    const double init_wall = watch.seconds();

    if (threads == 1) {
      init_serial_work = init_ledger.total_work();
      init_serial_wall = init_wall;
    }
    std::printf("%-8zu %-12s %-10s %-16s\n", threads, lc::format_seconds(init_wall).c_str(),
                lc::strprintf("%.2fx", init_serial_wall / std::max(init_wall, 1e-9)).c_str(),
                lc::strprintf("%.2fx", init_ledger.speedup_vs(init_serial_work)).c_str());
  }
  std::printf("\n(wall speedup reflects this host's real core count; the simulated column is\n"
              " the work/span prediction for a machine with that many cores)\n");

  map.sort_by_score();
  lc::core::BucketSweepSource source(map);
  lc::sim::WorkLedger sweep_ledger;
  const lc::core::CoarseResult coarse =
      lc::core::coarse_sweep(graph, map, source, index, {}, nullptr, &sweep_ledger);
  std::printf("coarse sweep: serial at every thread count, %llu work units, %zu levels\n",
              static_cast<unsigned long long>(sweep_ledger.total_work()),
              coarse.levels.size());
  return 0;
}
