// Fig. 1: the paper's example graph and the data structure built from it —
// list L with, per vertex pair, the similarity score and the list of shared
// neighbors. The quoted property K1 = 7 < K2 = 16 < K3 = 28 identifies the
// example graph as K_{2,4}; this bench prints the reconstructed structure.
#include <cstdio>

#include "core/similarity.hpp"
#include "graph/generators.hpp"
#include "graph/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main() {
  const lc::graph::WeightedGraph graph = lc::graph::paper_figure1_graph();
  const lc::graph::GraphStats stats = lc::graph::compute_stats(graph);
  std::printf("== Fig. 1: example graph and its data structure ==\n");
  std::printf("graph: K_{2,4} — |V|=%zu |E|=%zu; K1=%llu K2=%llu K3=%llu "
              "(paper quotes K1=7 < K2=16 < K3=28)\n\n",
              stats.vertices, stats.edges, static_cast<unsigned long long>(stats.k1),
              static_cast<unsigned long long>(stats.k2),
              static_cast<unsigned long long>(stats.k3));

  lc::core::SimilarityMap map = lc::core::build_similarity_map(graph);
  map.sort_by_score();
  lc::Table table({"vertex pair", "similarity", "shared neighbors"});
  for (const lc::core::SimilarityEntry& entry : map.entries) {
    std::string commons;
    for (const lc::core::EdgePairRef& pair : map.pairs(entry)) {
      if (!commons.empty()) commons += ", ";
      commons += std::to_string(lc::core::shared_vertex(graph, pair));
    }
    table.add_row({lc::strprintf("(%u, %u)", entry.u, entry.v),
                   lc::strprintf("%.4f", entry.score), "{" + commons + "}"});
  }
  table.print();
  std::printf("\nlist L holds %zu vertex pairs covering %llu incident edge pairs\n",
              map.key_count(), static_cast<unsigned long long>(map.incident_pair_count()));
  return 0;
}
