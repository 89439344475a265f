// Fig. 4(2): serial execution time vs fraction alpha, three series —
// initialization (Algorithm 1), the standard O(|E|^2) NBM baseline, and the
// sweeping algorithm (Algorithm 2). The paper reports sweeping speedups of
// 2.0 / 40.0 / 74.2 over the standard algorithm on its three smallest
// fractions, with the standard algorithm unable to finish the larger two; the
// shape to reproduce is the widening gap and the baseline DNFs.
#include <cstdio>

#include "baseline/edge_similarity_matrix.hpp"
#include "baseline/nbm.hpp"
#include "bench_json.hpp"
#include "core/similarity.hpp"
#include "core/sweep.hpp"
#include "core/sweep_source.hpp"
#include "util/memory.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  lc::CliFlags flags;
  lc::bench::register_workload_flags(flags);
  flags.add_int("baseline-max-edges", 16000,
                "run the standard algorithm only below this edge count");
  flags.add_string("csv", "", "also write the table to this CSV path");
  flags.add_string("json", "", "also write per-alpha timings to this JSON path");
  if (!flags.parse(argc, argv)) return 1;

  const auto workloads = lc::bench::build_workloads(lc::bench::workload_options_from_flags(flags));
  const auto baseline_cap = static_cast<std::size_t>(flags.get_int("baseline-max-edges"));

  std::printf("== Fig. 4(2): serial execution time vs fraction alpha ==\n");
  lc::Table table({"alpha", "edges", "initialization", "sweeping", "standard (NBM)",
                   "speedup (std/sweep)"});
  double prev_speedup = 0.0;
  bool speedup_grows = true;
  bool baseline_dnf = false;
  std::vector<lc::bench::BenchRun> json_runs;

  for (const auto& w : workloads) {
    lc::Stopwatch watch;
    lc::core::SimilarityMap map = lc::core::build_similarity_map(w.graph);
    map.sort_by_score();
    lc::core::BucketSweepSource source(map);
    const double init_seconds = watch.lap();

    const lc::core::EdgeIndex index(w.graph.edge_count(), lc::core::EdgeOrder::kShuffled, 42);
    watch.reset();
    const lc::core::SweepResult sweep_result = lc::core::sweep(w.graph, map, source, index);
    const double sweep_seconds = watch.lap();
    (void)sweep_result;

    std::string standard_text = "DNF (matrix too large)";
    std::string speedup_text = "-";
    if (w.graph.edge_count() <= baseline_cap) {
      watch.reset();
      const auto matrix = lc::baseline::EdgeSimilarityMatrix::build(
          w.graph, map, index, baseline_cap);
      if (matrix.has_value()) {
        const lc::baseline::NbmResult nbm = lc::baseline::nbm_cluster(*matrix);
        (void)nbm;
        const double standard_seconds = watch.lap();
        standard_text = lc::format_seconds(standard_seconds);
        const double speedup = standard_seconds / (sweep_seconds > 1e-9 ? sweep_seconds : 1e-9);
        speedup_text = lc::strprintf("%.1fx", speedup);
        if (speedup < prev_speedup) speedup_grows = false;
        prev_speedup = speedup;
      }
    } else {
      baseline_dnf = true;
    }

    table.add_row({lc::strprintf("%g", w.alpha), lc::with_commas(w.stats.edges),
                   lc::format_seconds(init_seconds), lc::format_seconds(sweep_seconds),
                   standard_text, speedup_text});

    lc::bench::BenchRun run;  // serial figure: one record per alpha, threads = 1
    run.threads = 1;
    run.wall_ms = (init_seconds + sweep_seconds) * 1e3;
    run.peak_bytes = lc::read_memory_usage().rss_peak_kb * 1024;
    run.extra = lc::strprintf("\"alpha\": %g, \"edges\": %zu, \"init_ms\": %.3f, \"sweep_ms\": %.3f",
                              w.alpha, w.graph.edge_count(), init_seconds * 1e3,
                              sweep_seconds * 1e3);
    json_runs.push_back(run);
  }
  table.print();
  std::printf("\nshape check: standard/sweeping speedup grows with graph size: %s\n",
              speedup_grows ? "yes (paper: 2.0 -> 40.0 -> 74.2)" : "NO");
  std::printf("shape check: standard algorithm DNFs on the large fractions: %s\n",
              baseline_dnf ? "yes (paper: DNF above alpha=0.001)" : "NO");

  const std::string csv = flags.get_string("csv");
  if (!csv.empty() && !table.write_csv(csv)) return 1;
  const std::string json = flags.get_string("json");
  if (!json.empty() &&
      !lc::bench::write_bench_json(json, "fig4_2_serial_time", "text-pipeline alpha sweep",
                                   json_runs)) {
    return 1;
  }
  return 0;
}
