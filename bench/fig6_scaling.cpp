// Fig. 6: strong scaling of the multi-threaded initialization (panel 1) and
// coarse-grained sweeping (panel 2) for T in {1, 2, 4, 6}, as LinkClusterer's
// coarse mode runs them. The paper measured wall-clock speedups on a 6-core
// Xeon E5649: initialization ~2.0 at T=2, 3.5-4.0 at T=4, 4.5-5.0 at T=6,
// with sweeping scaling somewhat lower.
//
// This reproduction reports BOTH:
//   - wall-clock speedup (meaningful only when the host has at least T free
//     cores), and
//   - simulated speedup from the run's work/span ledger: serial work divided
//     by the instrumented critical path of the T-thread run — what this exact
//     code would achieve with T real cores (see DESIGN.md §2 substitution
//     table). Initialization is the ledger's "init." phases: the build
//     passes, Prim, the forest sort and L's bucket partition, the last two
//     charged as serial.
//
// Sweeping-phase note: the coarse sweep is serial. Each chunk unites only its
// spanning-forest pairs, fewer than 2|E| over a run (DESIGN.md §10), so the
// sweep rows read 1.00x simulated at every T.
#include <algorithm>
#include <cstdio>

#include "core/link_clusterer.hpp"
#include "sim/work_ledger.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  lc::CliFlags flags;
  lc::bench::register_workload_flags(flags);
  flags.add_int("barrier", 0, "work units charged per parallel round (sync cost)");
  flags.add_string("csv", "", "also write the table to this CSV path");
  if (!flags.parse(argc, argv)) return 1;

  lc::bench::WorkloadOptions options = lc::bench::workload_options_from_flags(flags);
  // The paper ignores its smallest fraction (trivial serial time); keep the
  // largest three for the word-graph rows.
  if (options.alphas.size() > 3) {
    options.alphas.erase(options.alphas.begin(), options.alphas.end() - 3);
  }
  const auto workloads = lc::bench::build_workloads(options);

  const auto barrier = static_cast<std::uint64_t>(flags.get_int("barrier"));
  const std::size_t thread_counts[] = {1, 2, 4, 6};

  std::printf("== Fig. 6: strong scaling, initialization and sweeping ==\n");
  std::printf("(simulated speedup = work/span prediction; wall speedup depends on host cores)\n\n");
  lc::Table table({"workload", "T", "init sim speedup", "init wall", "sweep sim speedup",
                   "sweep wall"});
  bool init_scales = true;

  for (const auto& w : workloads) {
    const std::string name = lc::strprintf("alpha=%g", w.alpha);
    std::uint64_t init_serial_work = 0;
    std::uint64_t sweep_serial_work = 0;
    double init_serial_wall = 0.0;
    double sweep_serial_wall = 0.0;
    double prev_init_sim = 0.0;

    for (std::size_t threads : thread_counts) {
      lc::sim::WorkLedger ledger;
      lc::core::LinkClusterer::Config config;
      config.mode = lc::core::ClusterMode::kCoarse;
      config.coarse.delta0 = w.delta0;
      config.threads = threads;
      config.ledger = &ledger;
      const lc::core::ClusterTimings timings =
          lc::core::LinkClusterer(config).cluster(w.graph).timings;
      const lc::sim::WorkLedger init_ledger = ledger.phases_with_prefix("init.");
      const lc::sim::WorkLedger sweep_ledger = ledger.phases_with_prefix("sweep.");
      const double init_wall = timings.initialization_seconds;
      const double sweep_wall = timings.sweeping_seconds;

      if (threads == 1) {
        init_serial_work = init_ledger.total_work();
        sweep_serial_work = sweep_ledger.total_work();
        init_serial_wall = init_wall;
        sweep_serial_wall = sweep_wall;
      }
      const double init_sim = init_ledger.speedup_vs(init_serial_work, barrier);
      const double sweep_sim = sweep_ledger.speedup_vs(sweep_serial_work, barrier);
      table.add_row({name, std::to_string(threads), lc::strprintf("%.2fx", init_sim),
                     lc::strprintf("%.2fx", init_serial_wall / std::max(init_wall, 1e-9)),
                     lc::strprintf("%.2fx", sweep_sim),
                     lc::strprintf("%.2fx", sweep_serial_wall / std::max(sweep_wall, 1e-9))});
      if (threads > 1 && init_sim < prev_init_sim - 0.05) init_scales = false;
      prev_init_sim = init_sim;
    }
  }
  table.print();
  std::printf("\nshape check: simulated init speedup grows with T: %s "
              "(paper: ~2.0 / 3.5-4.0 / 4.5-5.0 at T=2/4/6)\n",
              init_scales ? "yes" : "NO");

  const std::string csv = flags.get_string("csv");
  if (!csv.empty() && !table.write_csv(csv)) return 1;
  return 0;
}
