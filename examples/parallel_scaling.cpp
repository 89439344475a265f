// Parallel scaling demo: run the §VI multi-threaded phases with 1..T threads
// and report wall-clock times plus the work/span simulated speedups (what the
// same run would achieve with that many real cores — see DESIGN.md §2 on the
// single-core substitution).
//
//   $ ./examples/parallel_scaling [--vertices 400] [--p 0.3] [--max-threads 6]
//
// Initialization (Algorithm 1) scales near-linearly; chunk-parallel sweeping
// only pays off when chunks dwarf |E| (see bench/fig6_scaling for the full
// analysis), so its simulated column is honest about the overhead.
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
  std::uint64_t sweep_serial_work = 0;
  double init_serial_wall = 0.0;

  std::printf("\n%-8s %-12s %-10s %-16s %-16s\n", "threads", "init wall", "init x",
              "init simulated", "sweep simulated");
  for (std::size_t threads = 1;
       threads <= static_cast<std::size_t>(flags.get_int("max-threads"));
       threads = threads == 1 ? 2 : threads + 2) {
    lc::parallel::ThreadPool pool(threads);

    lc::sim::WorkLedger init_ledger;
    lc::Stopwatch watch;
    lc::core::SimilarityMap map =
        lc::core::build_similarity_map_parallel(graph, pool, &init_ledger);
    const double init_wall = watch.seconds();
    map.sort_by_score();

    lc::sim::WorkLedger sweep_ledger;
    lc::core::coarse_sweep(graph, map, index, {}, &pool, &sweep_ledger);

    if (threads == 1) {
      init_serial_work = init_ledger.total_work();
      sweep_serial_work = sweep_ledger.total_work();
      init_serial_wall = init_wall;
    }
    std::printf("%-8zu %-12s %-10s %-16s %-16s\n", threads,
                lc::format_seconds(init_wall).c_str(),
                lc::strprintf("%.2fx", init_serial_wall / std::max(init_wall, 1e-9)).c_str(),
                lc::strprintf("%.2fx", init_ledger.speedup_vs(init_serial_work)).c_str(),
                lc::strprintf("%.2fx", sweep_ledger.speedup_vs(sweep_serial_work)).c_str());
  }
  std::printf("\n(wall speedup reflects this host's real core count; simulated columns are\n"
              " the work/span predictions for a machine with that many cores)\n");
  return 0;
}
