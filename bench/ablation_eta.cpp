// Ablation (DESIGN.md): the head-mode chunk growth factor eta0 (the paper
// fixes eta0 = 8). Larger eta leaves the head phase in fewer epochs but
// overshoots more often (rollbacks); smaller eta takes more epochs to ramp
// up. This sweep shows the trade-off on one workload.
#include <cstdio>

#include "core/link_clusterer.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  lc::CliFlags flags;
  lc::bench::register_workload_flags(flags);
  flags.add_double("alpha", 0.05, "fraction of top words for the measured graph");
  if (!flags.parse(argc, argv)) return 1;

  lc::bench::WorkloadOptions options = lc::bench::workload_options_from_flags(flags);
  options.alphas = {flags.get_double("alpha")};
  const auto workloads = lc::bench::build_workloads(options);
  const auto& w = workloads.front();

  std::printf("== Ablation: head-mode growth factor eta0 (paper: 8) ==\n");
  lc::Table table({"eta0", "levels", "epochs", "rollbacks", "reused", "pairs processed",
                   "time"});
  for (double eta0 : {2.0, 4.0, 8.0, 16.0}) {
    lc::core::LinkClusterer::Config config;
    config.mode = lc::core::ClusterMode::kCoarse;
    config.coarse.delta0 = w.delta0;
    config.coarse.eta0 = eta0;
    const lc::core::ClusterResult run = lc::core::LinkClusterer(config).cluster(w.graph);
    const lc::core::CoarseResult& result = *run.coarse;
    const double seconds = run.timings.sweeping_seconds;
    table.add_row({lc::strprintf("%g", eta0), std::to_string(result.levels.size()),
                   std::to_string(result.epochs.size()),
                   std::to_string(result.rollback_count), std::to_string(result.reuse_count),
                   lc::strprintf("%.1f%%", 100.0 * static_cast<double>(result.pairs_processed) /
                                               static_cast<double>(
                                                   std::max<std::uint64_t>(1, result.pairs_total))),
                   lc::format_seconds(seconds)});
  }
  table.print();
  return 0;
}
