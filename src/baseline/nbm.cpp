#include "baseline/nbm.hpp"

#include <algorithm>

#include "core/dsu.hpp"
#include "util/check.hpp"
#include "util/fault_inject.hpp"
#include "util/run_context.hpp"

namespace lc::baseline {

NbmResult nbm_cluster(const EdgeSimilarityMatrix& matrix, const NbmOptions& options) {
  const std::size_t n = matrix.size();
  NbmResult result;
  result.dendrogram = core::Dendrogram(n);
  if (n == 0) return result;
  if (n == 1) {
    result.final_labels = {0};
    return result;
  }

  // Working copy of the matrix rows (mutated by max-merging); released when
  // clustering finishes.
  fault::maybe_fire("baseline.nbm");
  MemoryCharge copy_charge(options.ctx, EdgeSimilarityMatrix::predicted_bytes(n),
                           "baseline.nbm_copy");
  EdgeSimilarityMatrix sim = matrix;

  std::vector<bool> active(n, true);
  std::vector<core::EdgeIdx> label(n);  // canonical (minimum) cluster label per row
  for (std::size_t i = 0; i < n; ++i) label[i] = static_cast<core::EdgeIdx>(i);

  struct Best {
    float sim = 0.0f;
    std::size_t j = 0;
  };
  std::vector<Best> nbm(n);
  for (std::size_t i = 0; i < n; ++i) {
    Best best;
    best.j = (i == 0) ? 1 : 0;
    best.sim = sim.at(i, best.j);
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      if (sim.at(i, j) > best.sim) {
        best.sim = sim.at(i, j);
        best.j = j;
      }
    }
    nbm[i] = best;
  }

  std::uint32_t level = 0;
  for (std::size_t step = 0; step + 1 < n; ++step) {
    // Each step is already an O(|E|) chunk of work: poll once per step so a
    // stop lands within one row scan.
    check_stop(options.ctx);
    // Find the globally best pair via the NBM array (O(n)).
    std::size_t i = n;
    float best_sim = -1.0f;
    for (std::size_t k = 0; k < n; ++k) {
      if (active[k] && nbm[k].sim > best_sim) {
        best_sim = nbm[k].sim;
        i = k;
      }
    }
    LC_CHECK(i < n);
    const std::size_t j = nbm[i].j;
    LC_DCHECK(active[j] && j != i);
    if (options.stop_at_zero && best_sim <= 0.0f) break;

    // Record the merge with canonical labels.
    const core::EdgeIdx la = label[i];
    const core::EdgeIdx lb = label[j];
    const core::EdgeIdx into = std::min(la, lb);
    const core::EdgeIdx from = std::max(la, lb);
    ++level;
    result.dendrogram.add_event(level, from, into, static_cast<double>(best_sim));

    // Merge row j into row i (single linkage: max), deactivate j.
    active[j] = false;
    label[i] = into;
    for (std::size_t k = 0; k < n; ++k) {
      if (!active[k] || k == i) continue;
      const float merged = std::max(sim.at(i, k), sim.at(j, k));
      sim.set(i, k, merged);
    }
    // Refresh NBM entries: single linkage keeps them valid with O(1) fixes,
    // except row i which is recomputed by scan.
    {
      Best best;
      bool first = true;
      for (std::size_t k = 0; k < n; ++k) {
        if (!active[k] || k == i) continue;
        if (first || sim.at(i, k) > best.sim) {
          best.sim = sim.at(i, k);
          best.j = k;
          first = false;
        }
      }
      if (!first) nbm[i] = best;
    }
    for (std::size_t k = 0; k < n; ++k) {
      if (!active[k] || k == i) continue;
      if (nbm[k].j == j || nbm[k].j == i) {
        // The merged cluster's similarity to k only grew (max-linkage), so it
        // remains k's best; just repoint and refresh the value.
        nbm[k].j = i;
        nbm[k].sim = sim.at(i, k);
      } else if (sim.at(i, k) > nbm[k].sim) {
        nbm[k].j = i;
        nbm[k].sim = sim.at(i, k);
      }
    }
  }

  result.final_labels = result.dendrogram.labels_after(result.dendrogram.events().size());
  return result;
}

}  // namespace lc::baseline
