// Parallel scaling demo: run LinkClusterer's coarse mode with 1..T threads
// and report the initialization's wall-clock times plus its work/span
// simulated speedups (what the same run would achieve with that many real
// cores — see DESIGN.md §2).
//
//   $ ./examples/parallel_scaling [--vertices 400] [--p 0.3] [--max-threads 6]
//
// Initialization — the build passes and Prim, with the forest sort and L's
// bucket partition serial — scales near-linearly on dense graphs. The coarse
// sweep is serial at every T: each chunk unites only its spanning-forest
// pairs, fewer than 2|E| over a run (DESIGN.md §10), so the demo reports its
// work once.
#include <cstdio>

#include "linkcluster.hpp"
#include "util/cli.hpp"
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

  std::uint64_t init_serial_work = 0;
  double init_serial_wall = 0.0;
  lc::core::ClusterResult result;
  lc::sim::WorkLedger ledger;

  std::printf("\n%-8s %-12s %-10s %-16s\n", "threads", "init wall", "init x",
              "init simulated");
  for (std::size_t threads = 1;
       threads <= static_cast<std::size_t>(flags.get_int("max-threads"));
       threads = threads == 1 ? 2 : threads + 2) {
    ledger.clear();
    lc::core::LinkClusterer::Config config;
    config.mode = lc::core::ClusterMode::kCoarse;
    config.threads = threads;
    config.ledger = &ledger;
    result = lc::core::LinkClusterer(config).cluster(graph);
    const lc::sim::WorkLedger init_ledger = ledger.phases_with_prefix("init.");
    const double init_wall = result.timings.initialization_seconds;

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

  std::printf("coarse sweep: serial at every thread count, %llu work units, %zu levels\n",
              static_cast<unsigned long long>(ledger.phases_with_prefix("sweep.").total_work()),
              result.coarse->levels.size());
  return 0;
}
