// Appendix study: the paper proves that on a complete graph K_n the sweeping
// algorithm runs in O(|V|^3.5) while SLINK/NBM need O(|E|^2) = O(|V|^4) — a
// sqrt(|V|) asymptotic win. This bench measures the instrumented array-C
// traffic across growing K_n and fits the log-log growth exponent, printing
// it next to the theoretical 3.5 and the baseline's 4.0.
#include <cmath>
#include <cstdio>

#include "core/similarity.hpp"
#include "core/sweep.hpp"
#include "core/sweep_source.hpp"
#include "graph/generators.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  lc::CliFlags flags;
  flags.add_int("max-n", 56, "largest complete-graph size");
  if (!flags.parse(argc, argv)) return 1;

  std::printf("== Appendix: sweep work growth on complete graphs K_n ==\n");
  lc::Table table({"n", "edges", "K2", "C accesses", "n^3.5 (scaled)", "n^4 (scaled)"});

  std::vector<double> log_n;
  std::vector<double> log_accesses;
  double first_accesses = 0;
  double first_n = 0;
  const auto max_n = static_cast<std::size_t>(flags.get_int("max-n"));
  for (std::size_t n = 14; n <= max_n; n *= 2) {
    const lc::graph::WeightedGraph graph =
        lc::graph::complete_graph(n, {3, lc::graph::WeightPolicy::kUniform});
    lc::core::SimilarityMap map = lc::core::build_similarity_map(graph);
    map.sort_by_score();
    lc::core::BucketSweepSource source(map);
    const lc::core::EdgeIndex index(graph.edge_count(), lc::core::EdgeOrder::kShuffled, 42);
    const lc::core::SweepResult result = lc::core::sweep(graph, map, source, index);

    const double nd = static_cast<double>(n);
    if (first_accesses == 0) {
      first_accesses = static_cast<double>(result.stats.c_accesses);
      first_n = nd;
    }
    const double scale35 = first_accesses * std::pow(nd / first_n, 3.5);
    const double scale40 = first_accesses * std::pow(nd / first_n, 4.0);
    table.add_row({std::to_string(n), lc::with_commas(graph.edge_count()),
                   lc::with_commas(map.incident_pair_count()),
                   lc::with_commas(result.stats.c_accesses),
                   lc::with_commas(static_cast<std::uint64_t>(scale35)),
                   lc::with_commas(static_cast<std::uint64_t>(scale40))});
    log_n.push_back(std::log(nd));
    log_accesses.push_back(std::log(static_cast<double>(result.stats.c_accesses)));
  }
  table.print();

  // Least-squares slope of log(accesses) vs log(n).
  const std::size_t m = log_n.size();
  double mean_x = 0;
  double mean_y = 0;
  for (std::size_t i = 0; i < m; ++i) {
    mean_x += log_n[i];
    mean_y += log_accesses[i];
  }
  mean_x /= static_cast<double>(m);
  mean_y /= static_cast<double>(m);
  double num = 0;
  double den = 0;
  for (std::size_t i = 0; i < m; ++i) {
    num += (log_n[i] - mean_x) * (log_accesses[i] - mean_y);
    den += (log_n[i] - mean_x) * (log_n[i] - mean_x);
  }
  const double slope = num / den;
  std::printf("\nmeasured growth exponent: %.2f (theory: sweep <= 3.5, standard = 4.0)\n",
              slope);
  std::printf("shape check: sweep exponent below the baseline's 4.0: %s\n",
              slope < 3.9 ? "yes (Appendix corollary)" : "NO");
  return 0;
}
