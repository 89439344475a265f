// The paper's map M (Algorithm 1), the reference build (lc_reference).
//
// A key of M is a vertex pair (u, v), u < v, with at least one common
// neighbor; the value carries (a) the Tanimoto similarity shared by *every*
// incident edge pair (e_uk, e_vk) whose non-shared endpoints are u and v and
// (b) those incident edge pairs, one per common neighbor k, k ascending. The
// scores are the triangle build's (core/score_triangles.hpp), bit for bit:
// both run the same gather (core/gather.hpp).
//
// Storage is CSR-style: entries carry (offset, count) into one shared
// `pair_arena` of pre-resolved edge-id pairs (e_uk, e_vk), so the reference
// sweeps and the baselines never call graph.find_edge(); k is the endpoint
// the pair's two edges share (shared_vertex()). The build stages each
// block's surviving entries, fixes every block's output slots by prefix
// sums, and then writes every pair once, straight into the final arena, so
// the map is byte-identical at every thread count (DESIGN.md §12).
//
// LinkClusterer builds no map. The map, the reference sweeps over it
// (core/sweep.hpp) and ClusterArray are the oracles the shipped pipeline is
// tested against, and what the benches that count the paper's internal work
// run.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/score_triangles.hpp"
#include "graph/graph.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/work_ledger.hpp"

namespace lc::core {

/// One incident edge pair (e_uk, e_vk), resolved to edge ids by the build.
/// No member initialisers: the build sizes the arena without writing it, and
/// walk 2 writes every slot once.
struct EdgePairRef {
  graph::EdgeId first;   ///< id of edge (u, k)
  graph::EdgeId second;  ///< id of edge (v, k)
};

class SimilarityMap {
 public:
  std::vector<SimilarityEntry, DefaultInitAllocator<SimilarityEntry>> entries;
  /// Shared CSR arena: entry e owns [e.offset, e.offset + e.count), ordered
  /// by common neighbor ascending.
  std::vector<EdgePairRef, DefaultInitAllocator<EdgePairRef>> pair_arena;

  /// The pre-resolved incident edge pairs (e_uk, e_vk) of entry e, one per
  /// common neighbor k, k ascending.
  [[nodiscard]] std::span<const EdgePairRef> pairs(const SimilarityEntry& e) const {
    return {pair_arena.data() + e.offset, e.count};
  }

  /// Total incident edge pairs covered == K2.
  [[nodiscard]] std::uint64_t incident_pair_count() const { return pair_arena.size(); }

  /// K1: the number of keys.
  [[nodiscard]] std::size_t key_count() const { return entries.size(); }

  /// Sorts entries by score_order (score non-increasing, ties by (u, v)
  /// ascending) with one serial std::sort, producing the paper's list L in
  /// full: the reference order for the baselines. BucketSweepSource
  /// (core/sweep_source.hpp) produces the same order lazily.
  void sort_by_score();

  /// Approximate heap bytes held (entries + arena).
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Looks up the entry for pair (u, v); returns nullptr if absent. Binary
  /// search while the builder's key order holds (see keys_sorted()); falls
  /// back to a linear scan after sort_by_score() reorders the list.
  [[nodiscard]] const SimilarityEntry* find(graph::VertexId u, graph::VertexId v) const;

  /// True while entries are ordered by packed key (u << 32 | v) ascending —
  /// the order the build produces. Cleared by sort_by_score().
  [[nodiscard]] bool keys_sorted() const { return keys_sorted_; }
  void set_keys_sorted(bool sorted) { keys_sorted_ = sorted; }

 private:
  bool keys_sorted_ = false;
};

/// The common neighbor k of an incident pair (e_uk, e_vk): the endpoint its
/// two edges share.
[[nodiscard]] inline graph::VertexId shared_vertex(const graph::WeightedGraph& graph,
                                                   const EdgePairRef& pair) {
  const graph::Edge& a = graph.edge(pair.first);
  const graph::Edge& b = graph.edge(pair.second);
  return (a.u == b.u || a.u == b.v) ? a.u : a.v;
}

/// Serial Algorithm 1 (the gather build on one block).
SimilarityMap build_similarity_map(const graph::WeightedGraph& graph,
                                   const SimilarityMapOptions& options = {});

/// Multi-threaded Algorithm 1: the gather build with one wedge-balanced
/// vertex block per pool thread (see the header comment). Bitwise-identical
/// to the serial build — entries, scores, and arena layout — at every thread
/// count. When `ledger` is non-null, per-round per-thread work units are
/// recorded for simulated-scaling analysis.
SimilarityMap build_similarity_map_parallel(const graph::WeightedGraph& graph,
                                            parallel::ThreadPool& pool,
                                            sim::WorkLedger* ledger = nullptr,
                                            const SimilarityMapOptions& options = {});

}  // namespace lc::core
