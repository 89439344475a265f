// Fig. 2(1): number of changes on array C per chunk of incident edge pairs
// (chunk size 1000, as in the paper's §V experiment) against the normalized
// level identifier. The paper's observation: most changes occur in the lower
// half of the levels.
#include <cstdio>

#include <vector>

#include "core/similarity.hpp"
#include "core/sweep.hpp"
#include "core/sweep_source.hpp"
#include "numeric/series.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  lc::CliFlags flags;
  lc::bench::register_workload_flags(flags);
  flags.add_double("alpha", 0.05, "fraction of top words for the measured graph");
  flags.add_int("chunk", 1000, "incident pairs per chunk (paper: 1000)");
  flags.add_int("rows", 20, "downsampled rows to print");
  flags.add_string("csv", "", "also write the full series to this CSV path");
  if (!flags.parse(argc, argv)) return 1;

  lc::bench::WorkloadOptions options = lc::bench::workload_options_from_flags(flags);
  options.alphas = {flags.get_double("alpha")};
  const auto workloads = lc::bench::build_workloads(options);
  const auto& w = workloads.front();
  const auto chunk = static_cast<std::uint64_t>(flags.get_int("chunk"));

  lc::core::SimilarityMap map = lc::core::build_similarity_map(w.graph);
  map.sort_by_score();
  lc::core::BucketSweepSource source(map);
  const lc::core::EdgeIndex index(w.graph.edge_count(), lc::core::EdgeOrder::kShuffled, 42);

  std::vector<std::uint64_t> changes_per_chunk;
  lc::core::sweep(w.graph, map, source, index,
                  [&](std::uint64_t ordinal, std::uint32_t changes) {
                    const std::size_t level = static_cast<std::size_t>(ordinal / chunk);
                    if (changes_per_chunk.size() <= level) changes_per_chunk.resize(level + 1, 0);
                    changes_per_chunk[level] += changes;
                  });

  const std::size_t levels = changes_per_chunk.size();
  std::printf("== Fig. 2(1): changes on array C per chunk (alpha=%g, chunk=%llu) ==\n",
              w.alpha, static_cast<unsigned long long>(chunk));
  std::printf("levels: %zu (K2 = %llu incident pairs)\n\n", levels,
              static_cast<unsigned long long>(w.stats.k2));

  lc::numeric::Series series;
  for (std::size_t l = 0; l < levels; ++l) {
    series.x.push_back(levels <= 1 ? 0.0
                                   : static_cast<double>(l) / static_cast<double>(levels - 1));
    series.y.push_back(static_cast<double>(changes_per_chunk[l]));
  }
  const lc::numeric::Series sampled =
      lc::numeric::downsample(series, static_cast<std::size_t>(flags.get_int("rows")));
  lc::Table table({"normalized level id", "changes on C"});
  for (std::size_t i = 0; i < sampled.size(); ++i) {
    table.add_row({lc::strprintf("%.3f", sampled.x[i]),
                   lc::with_commas(static_cast<std::uint64_t>(sampled.y[i]))});
  }
  table.print();

  std::uint64_t lower_half = 0;
  std::uint64_t upper_half = 0;
  for (std::size_t l = 0; l < levels; ++l) {
    (l < levels / 2 ? lower_half : upper_half) += changes_per_chunk[l];
  }
  std::printf("\nlower-half changes: %s, upper-half changes: %s\n",
              lc::with_commas(lower_half).c_str(), lc::with_commas(upper_half).c_str());
  std::printf("shape check: most changes occur in the lower half levels: %s\n",
              lower_half > upper_half ? "yes (matches paper)" : "NO");

  const std::string csv = flags.get_string("csv");
  if (!csv.empty()) {
    lc::Table full({"normalized_level", "changes"});
    for (std::size_t i = 0; i < series.size(); ++i) {
      full.add_row({lc::strprintf("%.6f", series.x[i]), lc::strprintf("%.0f", series.y[i])});
    }
    if (!full.write_csv(csv)) return 1;
  }
  return 0;
}
