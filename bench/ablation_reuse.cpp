// Ablation (DESIGN.md): the L_rollback reuse optimization of §V-A. When a
// rollback's saved state later satisfies the soundness ratio, the paper jumps
// to it instead of recomputing the span. Disabling the saved-state list
// (rollback_capacity = 0) forces full recomputation after every rollback;
// this sweep measures what reuse buys across gamma settings (stricter gamma
// means more rollbacks and more reuse opportunities).
#include <cstdio>

#include "core/coarse.hpp"
#include "core/similarity.hpp"
#include "core/sweep_source.hpp"
#include "util/stopwatch.hpp"
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

  lc::core::SimilarityMap map = lc::core::build_similarity_map(w.graph);
  map.sort_by_score();
  lc::core::BucketSweepSource source(map);
  const lc::core::EdgeIndex index(w.graph.edge_count(), lc::core::EdgeOrder::kShuffled, 42);

  std::printf("== Ablation: L_rollback state reuse (paper §V-A) ==\n");
  lc::Table table({"gamma", "reuse", "levels", "rollbacks", "reused", "pairs applied",
                   "time"});
  for (double gamma : {1.2, 1.5, 2.0}) {
    for (bool reuse : {true, false}) {
      lc::core::CoarseOptions coarse;
      coarse.gamma = gamma;
      coarse.delta0 = w.delta0;
      coarse.rollback_capacity = reuse ? 64 : 0;
      lc::Stopwatch watch;
      const lc::core::CoarseResult result =
          lc::core::coarse_sweep(w.graph, map, source, index, coarse);
      const double seconds = watch.seconds();
      table.add_row({lc::strprintf("%g", gamma), reuse ? "on" : "off",
                     std::to_string(result.levels.size()),
                     std::to_string(result.rollback_count),
                     std::to_string(result.reuse_count),
                     // Work actually performed, including rolled-back chunks.
                     lc::with_commas(result.stats.pairs_processed),
                     lc::format_seconds(seconds)});
    }
  }
  table.print();
  std::printf("\n('pairs applied' counts merge work including rolled-back chunks, so the\n"
              " reuse-on rows show the recomputation the saved states avoid)\n");
  return 0;
}
