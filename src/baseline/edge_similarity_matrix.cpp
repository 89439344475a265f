#include "baseline/edge_similarity_matrix.hpp"

#include "util/check.hpp"
#include "util/fault_inject.hpp"
#include "util/logging.hpp"
#include "util/run_context.hpp"

namespace lc::baseline {

std::optional<EdgeSimilarityMatrix> EdgeSimilarityMatrix::build(
    const graph::WeightedGraph& graph, const core::SimilarityMap& map,
    const core::EdgeIndex& index, std::size_t max_edges, lc::RunContext* ctx) {
  const std::size_t n = graph.edge_count();
  if (n > max_edges) {
    LC_LOG(kWarn) << "EdgeSimilarityMatrix: refusing " << n << " edges (cap " << max_edges
                  << ", would need " << predicted_bytes(n) / (1024 * 1024) << " MiB)";
    return std::nullopt;
  }
  fault::maybe_fire("baseline.matrix");
  // The matrix lives on in the returned value: committed charge.
  MemoryCharge matrix_charge(ctx, predicted_bytes(n), "baseline.matrix");
  matrix_charge.commit();
  EdgeSimilarityMatrix matrix(n);
  PollTicker ticker(ctx);
  for (const core::SimilarityEntry& entry : map.entries) {
    ticker.checkpoint(1 + entry.count);
    for (const core::EdgePairRef& pair : map.pairs(entry)) {
      matrix.set(index.index_of(pair.first), index.index_of(pair.second),
                 static_cast<float>(entry.score));
    }
  }
  return matrix;
}

}  // namespace lc::baseline
