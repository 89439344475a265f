// Fig. 5(2): execution time and memory of coarse-grained sweeping vs the
// fine-grained sweeping algorithm across the alpha sweep, as LinkClusterer's
// two modes run them (the times are each mode's sweep; "sweep mem" is the
// peak bytes the fine run charges). The paper's counter-intuitive
// observation to reproduce: the coarse algorithm is *faster* despite its
// rollbacks, because stopping at phi clusters skips the long tail of
// incident pairs (only 55.1% processed at its alpha = 0.005).
#include <cstdio>

#include "core/link_clusterer.hpp"
#include "util/run_context.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  lc::CliFlags flags;
  lc::bench::register_workload_flags(flags);
  flags.add_double("gamma", 2.0, "soundness threshold");
  flags.add_int("phi", 100, "stop threshold on cluster count");
  flags.add_string("csv", "", "also write the table to this CSV path");
  if (!flags.parse(argc, argv)) return 1;

  const auto workloads = lc::bench::build_workloads(lc::bench::workload_options_from_flags(flags));

  std::printf("== Fig. 5(2): coarse-grained vs fine-grained sweeping ==\n");
  lc::Table table({"alpha", "sweep time", "coarse time", "pairs processed", "sweep mem",
                   "coarse levels", "rollbacks"});
  std::size_t coarse_wins = 0;
  bool tail_skipped = false;
  for (const auto& w : workloads) {
    lc::RunContext ctx;
    lc::core::LinkClusterer::Config config;
    config.ctx = &ctx;
    const double fine_seconds =
        lc::core::LinkClusterer(config).cluster(w.graph).timings.sweeping_seconds;

    config.mode = lc::core::ClusterMode::kCoarse;
    config.ctx = nullptr;
    config.coarse.gamma = flags.get_double("gamma");
    config.coarse.phi = static_cast<std::size_t>(flags.get_int("phi"));
    config.coarse.delta0 = w.delta0;
    const lc::core::ClusterResult coarse_run = lc::core::LinkClusterer(config).cluster(w.graph);
    const lc::core::CoarseResult& coarse = *coarse_run.coarse;
    const double coarse_seconds = coarse_run.timings.sweeping_seconds;

    if (coarse_seconds <= fine_seconds) ++coarse_wins;
    const double processed_pct =
        coarse.pairs_total == 0 ? 100.0
                                : 100.0 * static_cast<double>(coarse.pairs_processed) /
                                      static_cast<double>(coarse.pairs_total);
    if (processed_pct < 99.0) tail_skipped = true;
    table.add_row({lc::strprintf("%g", w.alpha), lc::format_seconds(fine_seconds),
                   lc::format_seconds(coarse_seconds),
                   lc::strprintf("%.1f%%", processed_pct),
                   lc::format_kb(static_cast<double>(ctx.memory_peak()) / 1024.0),
                   std::to_string(coarse.levels.size()),
                   std::to_string(coarse.rollback_count)});
  }
  table.print();
  std::printf("\nshape check: coarse is at least as fast on most settings: %zu/%zu\n",
              coarse_wins, workloads.size());
  std::printf("shape check: coarse skips a tail of unprocessed pairs: %s (paper: 55.1%% "
              "processed at alpha=0.005)\n",
              tail_skipped ? "yes" : "NO");

  const std::string csv = flags.get_string("csv");
  if (!csv.empty() && !table.write_csv(csv)) return 1;
  return 0;
}
