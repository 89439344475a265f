// Fig. 4(3): virtual memory usage of the standard algorithm vs the sweeping
// algorithm across the alpha sweep. The paper's headline point: at its
// alpha = 0.001 the standard algorithm needs 19.9 GB (dense |E|^2 float
// matrix) while sweeping uses 881.2 MB, and sweeping finishes even its
// largest setting in 29 GB while the standard algorithm cannot run at all.
//
// We report three views per setting: the peak bytes LinkClusterer's fine
// mode charges to its RunContext (the score triangles, the spanning-forest
// pairs and the gather scratch), the analytic/measured matrix footprint of
// the standard algorithm, and the process VmPeak, plus the standard/sweeping
// ratio — the figure's shape.
#include <cstdio>

#include "baseline/edge_similarity_matrix.hpp"
#include "baseline/memory_model.hpp"
#include "core/link_clusterer.hpp"
#include "util/memory.hpp"
#include "util/run_context.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  lc::CliFlags flags;
  lc::bench::register_workload_flags(flags);
  flags.add_string("csv", "", "also write the table to this CSV path");
  if (!flags.parse(argc, argv)) return 1;

  const auto workloads = lc::bench::build_workloads(lc::bench::workload_options_from_flags(flags));

  std::printf("== Fig. 4(3): memory usage, standard vs sweeping ==\n");
  lc::Table table({"alpha", "edges", "sweeping (measured)", "standard (matrix)",
                   "ratio", "model sweep", "model standard"});
  bool ratio_grows = true;
  double prev_ratio = 0.0;
  for (const auto& w : workloads) {
    lc::RunContext ctx;
    lc::core::LinkClusterer::Config config;
    config.ctx = &ctx;
    (void)lc::core::LinkClusterer(config).cluster(w.graph);
    const std::uint64_t edges = w.stats.edges;
    const std::uint64_t sweep_bytes = ctx.memory_peak();
    const std::uint64_t standard_bytes =
        lc::baseline::EdgeSimilarityMatrix::predicted_bytes(edges);
    const lc::baseline::MemoryModel model =
        lc::baseline::predict_memory(edges, w.stats.k1, w.stats.k2);
    const double ratio = sweep_bytes == 0
                             ? 0.0
                             : static_cast<double>(standard_bytes) /
                                   static_cast<double>(sweep_bytes);
    if (ratio < prev_ratio) ratio_grows = false;
    prev_ratio = ratio;
    table.add_row({lc::strprintf("%g", w.alpha), lc::with_commas(edges),
                   lc::format_kb(static_cast<double>(sweep_bytes) / 1024.0),
                   lc::format_kb(static_cast<double>(standard_bytes) / 1024.0),
                   lc::strprintf("%.1fx", ratio),
                   lc::format_kb(static_cast<double>(model.sweeping_bytes) / 1024.0),
                   lc::format_kb(static_cast<double>(model.standard_bytes) / 1024.0)});
  }
  table.print();

  const lc::MemoryUsage usage = lc::read_memory_usage();
  std::printf("\nprocess VmPeak: %s, VmRSS peak: %s\n",
              lc::format_kb(static_cast<double>(usage.vm_peak_kb)).c_str(),
              lc::format_kb(static_cast<double>(usage.rss_peak_kb)).c_str());
  std::printf("shape check: standard/sweeping memory ratio grows with graph size: %s\n",
              ratio_grows ? "yes (paper: 19.9 GB vs 881.2 MB at alpha=0.001)" : "NO");

  const std::string csv = flags.get_string("csv");
  if (!csv.empty() && !table.write_csv(csv)) return 1;
  return 0;
}
