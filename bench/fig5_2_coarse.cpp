// Fig. 5(2): execution time and memory of coarse-grained sweeping vs the
// fine-grained sweeping algorithm across the alpha sweep. The paper's
// counter-intuitive observation to reproduce: the coarse algorithm is
// *faster* despite its rollbacks, because stopping at phi clusters skips the
// long tail of incident pairs (only 55.1% processed at its alpha = 0.005).
#include <cstdio>

#include "core/coarse.hpp"
#include "core/similarity.hpp"
#include "core/sweep.hpp"
#include "core/sweep_source.hpp"
#include "util/stopwatch.hpp"
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
    lc::core::SimilarityMap map = lc::core::build_similarity_map(w.graph);
    map.sort_by_score();
    lc::core::BucketSweepSource source(map);
    const lc::core::EdgeIndex index(w.graph.edge_count(), lc::core::EdgeOrder::kShuffled, 42);

    lc::Stopwatch watch;
    const lc::core::SweepResult fine = lc::core::sweep(w.graph, map, source, index);
    const double fine_seconds = watch.lap();
    (void)fine;

    lc::core::CoarseOptions coarse_options;
    coarse_options.gamma = flags.get_double("gamma");
    coarse_options.phi = static_cast<std::size_t>(flags.get_int("phi"));
    coarse_options.delta0 = w.delta0;
    watch.reset();
    const lc::core::CoarseResult coarse =
        lc::core::coarse_sweep(w.graph, map, source, index, coarse_options);
    const double coarse_seconds = watch.lap();

    if (coarse_seconds <= fine_seconds) ++coarse_wins;
    const double processed_pct =
        coarse.pairs_total == 0 ? 100.0
                                : 100.0 * static_cast<double>(coarse.pairs_processed) /
                                      static_cast<double>(coarse.pairs_total);
    if (processed_pct < 99.0) tail_skipped = true;
    table.add_row({lc::strprintf("%g", w.alpha), lc::format_seconds(fine_seconds),
                   lc::format_seconds(coarse_seconds),
                   lc::strprintf("%.1f%%", processed_pct),
                   lc::format_kb(static_cast<double>(map.memory_bytes()) / 1024.0),
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
