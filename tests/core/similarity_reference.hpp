// Canonical-order reference build of map M, the test oracle for
// build_similarity_map and build_similarity_map_parallel.
//
// Deliberately naive and independent of core/similarity.cpp: keys are
// enumerated by a wedge walk and sorted, and each key's commons come from a
// two-pointer merge of the two sorted adjacency rows — the set intersection
// the build itself replaces with accumulation during its wedge walk. Every
// recorded edge pair is checked to share the common it was merged on. The
// summation order is
// the canonical one every build must reproduce bit for bit: the products
// w_uk * w_vk in ascending-common order, then the pass-3 term
// (H1[u] + H1[v]) * w_uv (0.0 when u and v are not adjacent) added last.
// Entries are in packed-key order and own consecutive arena slices.
//
// The brute-force similarities below build the full |V|-dimensional vectors
// of Eq. (1) instead: the oracle for single scores.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "core/similarity.hpp"
#include "graph/graph.hpp"
#include "util/check.hpp"

namespace lc::core::testing_reference {

inline SimilarityMap build_reference_map(
    const graph::WeightedGraph& graph,
    SimilarityMeasure measure = SimilarityMeasure::kTanimoto) {
  using graph::VertexId;
  const std::size_t n = graph.vertex_count();

  // Pass 1: H1 = mean incident weight, H2 = H1^2 + sum of squared weights.
  std::vector<double> h1(n, 0.0);
  std::vector<double> h2(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto weights = graph.neighbor_weights(static_cast<VertexId>(i));
    if (weights.empty()) continue;
    double sum = 0.0;
    double sum_sq = 0.0;
    for (const double w : weights) {
      sum += w;
      sum_sq += w * w;
    }
    h1[i] = sum / static_cast<double>(weights.size());
    h2[i] = h1[i] * h1[i] + sum_sq;
  }

  SimilarityMap map;
  std::vector<VertexId> partners;
  for (std::size_t ui = 0; ui < n; ++ui) {
    const auto u = static_cast<VertexId>(ui);
    const auto row_u = graph.neighbors(u);
    const auto w_u = graph.neighbor_weights(u);
    const auto e_u = graph.neighbor_edge_ids(u);
    partners.clear();
    for (const VertexId k : row_u) {
      for (const VertexId v : graph.neighbors(k)) {
        if (v > u) partners.push_back(v);
      }
    }
    std::sort(partners.begin(), partners.end());
    partners.erase(std::unique(partners.begin(), partners.end()), partners.end());
    for (const VertexId v : partners) {
      const auto row_v = graph.neighbors(v);
      const auto w_v = graph.neighbor_weights(v);
      const auto e_v = graph.neighbor_edge_ids(v);
      SimilarityEntry entry;
      entry.u = u;
      entry.v = v;
      entry.offset = map.pair_arena.size();
      double p = 0.0;
      std::size_t a = 0;
      std::size_t b = 0;
      while (a < row_u.size() && b < row_v.size()) {
        if (row_u[a] < row_v[b]) {
          ++a;
        } else if (row_v[b] < row_u[a]) {
          ++b;
        } else {
          map.pair_arena.push_back(EdgePairRef{e_u[a], e_v[b]});
          LC_CHECK_MSG(shared_vertex(graph, map.pair_arena.back()) == row_u[a],
                       "an edge pair must share the common it was merged on");
          p += w_u[a] * w_v[b];
          ++a;
          ++b;
        }
      }
      entry.count = static_cast<std::uint32_t>(map.pair_arena.size() - entry.offset);
      const auto uv = std::lower_bound(row_u.begin(), row_u.end(), v);
      const bool adjacent = uv != row_u.end() && *uv == v;
      if (measure == SimilarityMeasure::kJaccard) {
        // |N+(u) ∩ N+(v)| = |commons| + 2·[u ~ v]; |N+(x)| = degree + 1.
        const double both = static_cast<double>(entry.count) + (adjacent ? 2.0 : 0.0);
        const double total =
            static_cast<double>(row_u.size() + 1 + row_v.size() + 1) - both;
        entry.score = both / total;
      } else {
        const double w_uv =
            adjacent ? w_u[static_cast<std::size_t>(uv - row_u.begin())] : 0.0;
        p += adjacent ? (h1[u] + h1[v]) * w_uv : 0.0;
        entry.score = p / (h2[u] + h2[v] - p);
      }
      map.entries.push_back(entry);
    }
  }
  map.set_keys_sorted(true);
  return map;
}

/// The full observable state of a map in list order: key, score bits,
/// count, arena offset and edge pairs. Equal vectors mean byte-identical
/// maps, arena layout included.
inline std::vector<std::uint64_t> serialize_map(const SimilarityMap& map) {
  std::vector<std::uint64_t> out;
  for (const SimilarityEntry& e : map.entries) {
    out.push_back((static_cast<std::uint64_t>(e.u) << 32) | e.v);
    out.push_back(std::bit_cast<std::uint64_t>(e.score));
    out.push_back(e.count);
    out.push_back(e.offset);
    for (const EdgePairRef& p : map.pairs(e)) {
      out.push_back((static_cast<std::uint64_t>(p.first) << 32) | p.second);
    }
  }
  out.push_back(map.pair_arena.size());
  return out;
}

/// Brute-force Eq. (1) for one incident edge pair (e_ik, e_jk), building the
/// full |V|-dimensional vectors a_i, a_j. O(|V|) per call.
inline double tanimoto_similarity_bruteforce(const graph::WeightedGraph& graph,
                                             graph::VertexId i, graph::VertexId j,
                                             graph::VertexId k) {
  LC_CHECK_MSG(graph.has_edge(i, k) && graph.has_edge(j, k),
               "edges (i,k) and (j,k) must exist for an incident pair");
  const std::size_t n = graph.vertex_count();
  auto vector_of = [&](graph::VertexId x) {
    std::vector<double> a(n, 0.0);
    const std::span<const graph::VertexId> adj = graph.neighbors(x);
    const std::span<const double> weights = graph.neighbor_weights(x);
    double sum = 0.0;
    for (std::size_t p = 0; p < adj.size(); ++p) {
      a[adj[p]] = weights[p];
      sum += weights[p];
    }
    a[x] = adj.empty() ? 0.0 : sum / static_cast<double>(adj.size());
    return a;
  };
  const std::vector<double> ai = vector_of(i);
  const std::vector<double> aj = vector_of(j);
  double dot = 0.0;
  double ni = 0.0;
  double nj = 0.0;
  for (std::size_t p = 0; p < n; ++p) {
    dot += ai[p] * aj[p];
    ni += ai[p] * ai[p];
    nj += aj[p] * aj[p];
  }
  return dot / (ni + nj - dot);
}

/// Brute-force Jaccard of inclusive neighborhoods for one incident pair.
inline double jaccard_similarity_bruteforce(const graph::WeightedGraph& graph,
                                            graph::VertexId i, graph::VertexId j,
                                            graph::VertexId k) {
  LC_CHECK_MSG(graph.has_edge(i, k) && graph.has_edge(j, k),
               "edges (i,k) and (j,k) must exist for an incident pair");
  auto inclusive = [&](graph::VertexId x) {
    std::vector<bool> member(graph.vertex_count(), false);
    for (graph::VertexId w : graph.neighbors(x)) member[w] = true;
    member[x] = true;
    return member;
  };
  const std::vector<bool> a = inclusive(i);
  const std::vector<bool> b = inclusive(j);
  std::size_t both = 0;
  std::size_t either = 0;
  for (std::size_t x = 0; x < a.size(); ++x) {
    if (a[x] && b[x]) ++both;
    if (a[x] || b[x]) ++either;
  }
  return static_cast<double>(both) / static_cast<double>(either);
}

}  // namespace lc::core::testing_reference
