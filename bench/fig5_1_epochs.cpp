// Fig. 5(1): breakdown of coarse-grained epochs into head/fresh, tail/fresh,
// rollback, and reused, across the alpha sweep, with the paper's parameters
// (gamma = 2, phi = 100, eta0 = 8, delta0 scaled with alpha). The shape to
// reproduce: only a small fraction of epochs are head epochs (exponential
// chunk growth ends the head phase quickly; most pairs live in the tail).
#include <cstdio>

#include "core/link_clusterer.hpp"
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

  std::printf("== Fig. 5(1): epoch breakdown (gamma=%g, phi=%lld, eta0=8) ==\n",
              flags.get_double("gamma"), static_cast<long long>(flags.get_int("phi")));
  lc::Table table({"alpha", "delta0", "head/fresh", "tail/fresh", "rollback", "reused",
                   "total epochs"});
  std::size_t total_head = 0;
  std::size_t total_epochs = 0;
  for (const auto& w : workloads) {
    lc::core::LinkClusterer::Config config;
    config.mode = lc::core::ClusterMode::kCoarse;
    config.coarse.gamma = flags.get_double("gamma");
    config.coarse.phi = static_cast<std::size_t>(flags.get_int("phi"));
    config.coarse.delta0 = w.delta0;
    const lc::core::CoarseResult result =
        *lc::core::LinkClusterer(config).cluster(w.graph).coarse;

    std::size_t head = 0;
    std::size_t tail = 0;
    std::size_t rollback = 0;
    std::size_t reused = 0;
    for (const lc::core::EpochRecord& epoch : result.epochs) {
      switch (epoch.kind) {
        case lc::core::EpochKind::kHeadFresh:
          ++head;
          break;
        case lc::core::EpochKind::kTailFresh:
          ++tail;
          break;
        case lc::core::EpochKind::kRollback:
          ++rollback;
          break;
        case lc::core::EpochKind::kReused:
          ++reused;
          break;
      }
    }
    const std::size_t total = result.epochs.size();
    total_head += head;
    total_epochs += total;
    table.add_row({lc::strprintf("%g", w.alpha), lc::with_commas(w.delta0),
                   std::to_string(head), std::to_string(tail), std::to_string(rollback),
                   std::to_string(reused), std::to_string(total)});
  }
  table.print();
  // The paper: "only a small fraction of epochs are in the head mode" —
  // exponential chunk growth leaves the head phase after a handful of
  // epochs, and the bulk of the pairs is processed in the tail.
  std::printf("\nshape check: head epochs are a small fraction overall: %zu/%zu = %.0f%% %s\n",
              total_head, total_epochs,
              total_epochs == 0 ? 0.0
                                : 100.0 * static_cast<double>(total_head) /
                                      static_cast<double>(total_epochs),
              (total_head * 3 <= total_epochs) ? "(matches paper)" : "NO");

  const std::string csv = flags.get_string("csv");
  if (!csv.empty() && !table.write_csv(csv)) return 1;
  return 0;
}
