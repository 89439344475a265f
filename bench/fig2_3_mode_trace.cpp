// Fig. 2(3): the mode transition machine of coarse-grained clustering,
// reproduced as an execution trace. The paper's figure is a state diagram
// over predicates C1 (beta' <= |E|/2), C2 (beta/beta' <= gamma) and C3
// (beta' <= phi); this bench runs the machine on a real workload and prints
// every epoch with its mode, predicates and transition, demonstrating each
// edge of the diagram that fires.
#include <cstdio>

#include "core/link_clusterer.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workloads.hpp"

namespace {

const char* kind_name(lc::core::EpochKind kind) {
  switch (kind) {
    case lc::core::EpochKind::kHeadFresh:
      return "head/fresh";
    case lc::core::EpochKind::kTailFresh:
      return "tail/fresh";
    case lc::core::EpochKind::kRollback:
      return "rollback";
    case lc::core::EpochKind::kReused:
      return "reused";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  lc::CliFlags flags;
  lc::bench::register_workload_flags(flags);
  flags.add_double("alpha", 0.01, "fraction of top words for the traced graph");
  flags.add_double("gamma", 2.0, "soundness threshold");
  flags.add_int("phi", 100, "stop threshold on cluster count");
  flags.add_int("delta0", 100, "initial chunk size");
  flags.add_int("max-rows", 40, "max epochs to print");
  if (!flags.parse(argc, argv)) return 1;

  lc::bench::WorkloadOptions options = lc::bench::workload_options_from_flags(flags);
  options.alphas = {flags.get_double("alpha")};
  const auto workloads = lc::bench::build_workloads(options);
  const auto& w = workloads.front();

  lc::core::LinkClusterer::Config config;
  config.mode = lc::core::ClusterMode::kCoarse;
  lc::core::CoarseOptions& coarse = config.coarse;
  coarse.gamma = flags.get_double("gamma");
  coarse.phi = static_cast<std::size_t>(flags.get_int("phi"));
  coarse.delta0 = static_cast<std::uint64_t>(flags.get_int("delta0"));
  const lc::core::CoarseResult result = *lc::core::LinkClusterer(config).cluster(w.graph).coarse;

  const std::size_t edges = w.graph.edge_count();
  std::printf("== Fig. 2(3): mode transition machine trace (alpha=%g, gamma=%g, phi=%zu) ==\n",
              w.alpha, coarse.gamma, coarse.phi);
  std::printf("|E| = %zu, |E|/2 = %zu\n\n", edges, edges / 2);

  lc::Table table({"epoch", "mode", "chunk", "beta before", "beta after", "C1", "C2", "C3"});
  const auto max_rows = static_cast<std::size_t>(flags.get_int("max-rows"));
  for (std::size_t i = 0; i < result.epochs.size(); ++i) {
    if (i >= max_rows && i + 1 < result.epochs.size()) continue;  // keep the last row
    const lc::core::EpochRecord& epoch = result.epochs[i];
    const bool c1 = epoch.beta_after <= edges / 2;
    const bool c2 = static_cast<double>(epoch.beta_before) <=
                    coarse.gamma * static_cast<double>(epoch.beta_after);
    const bool c3 = epoch.beta_after <= coarse.phi;
    table.add_row({std::to_string(i + 1), kind_name(epoch.kind),
                   lc::with_commas(epoch.chunk_size), lc::with_commas(epoch.beta_before),
                   lc::with_commas(epoch.beta_after), c1 ? "T" : "F", c2 ? "T" : "F",
                   c3 ? "T" : "F"});
  }
  if (result.epochs.size() > max_rows) {
    std::printf("(showing first %zu of %zu epochs, plus the final one)\n", max_rows,
                result.epochs.size());
  }
  table.print();

  // Which machine transitions fired?
  bool head_seen = false;
  bool tail_seen = false;
  bool rollback_seen = false;
  for (const auto& epoch : result.epochs) {
    head_seen = head_seen || epoch.kind == lc::core::EpochKind::kHeadFresh;
    tail_seen = tail_seen || epoch.kind == lc::core::EpochKind::kTailFresh;
    rollback_seen = rollback_seen || epoch.kind == lc::core::EpochKind::kRollback;
  }
  std::printf("\ntransitions exercised: head=%s tail=%s rollback=%s reuse=%s\n",
              head_seen ? "yes" : "no", tail_seen ? "yes" : "no",
              rollback_seen ? "yes" : "no", result.reuse_count > 0 ? "yes" : "no");
  std::printf("levels=%zu rollbacks=%zu reuses=%zu processed=%s/%s pairs\n",
              result.levels.size(), result.rollback_count, result.reuse_count,
              lc::with_commas(result.pairs_processed).c_str(),
              lc::with_commas(result.pairs_total).c_str());
  return 0;
}
