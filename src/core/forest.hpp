// Both modes' sweeps read one maximum spanning forest per common neighbor
// (DESIGN.md §16): fine mode in one ordered union-find pass, coarse mode
// chunk by chunk (core/coarse.hpp).
//
// Two edges are similar only if they share a vertex k, so the graph whose
// nodes are the edges of G and whose links are the incident pairs
// (e_uk, e_vk) is the edge-disjoint union of one clique per k (Krausz). The
// reference sweep (core/sweep.hpp) visits every pair in a strict total
// order — score descending, then (u, v) ascending, then k ascending — and
// merges the pair's two clusters unless they are already one: Kruskal's
// algorithm, which merges exactly along the unique maximum spanning forest
// of the pair graph under that order. A pair outside the maximum spanning
// tree of its own clique closes a cycle of earlier pairs of that clique, so
// its edges are joined before it is reached and it never merges. Kruskal
// over the Σ_k (d_k − 1) clique-tree pairs therefore makes the same merges,
// in the same sequence, as the reference sweep over all K2 pairs — on every
// prefix of the order too, so a min_similarity cut ends both at the same
// event.
//
// spanning_forest() runs a dense Prim per k over the ScoreTriangles on the
// pool and sorts the survivors into the sweep order; forest_sweep() is the
// serial merge pass that emits the fine dendrogram. Under a memory budget
// the triangles are built one k-range at a time (triangle_ranges()). In
// coarse mode the first pass also stages the list L, one part per gather
// block, which BucketSweepSource (core/sweep_source.hpp) scatters into its
// own buffer.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/dendrogram.hpp"
#include "core/edge_index.hpp"
#include "core/score_triangles.hpp"
#include "graph/graph.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/work_ledger.hpp"
#include "util/run_context.hpp"

namespace lc::core {

class Checkpointer;     // core/checkpoint.hpp
struct FineCheckpoint;  // core/checkpoint.hpp

/// Work counters of a sweep. The C-traffic pair is defined per sweep:
///   - reference fine sweep (Algorithm 2 over ClusterArray, core/sweep.hpp):
///     c_accesses counts the chain elements MERGE visits (Theorem 2),
///     c_changes the C entries it rewrites (Fig. 2(1)).
///   - every other sweep, what the paper's array C would read and write for
///     the same merges: each applied pair reads two slots and each union
///     (one journal loser) writes one, so c_accesses = 2 * pairs + unions
///     and c_changes = unions, never counting the DSU's path compression.
///     Fine mode's pairs are the forest pairs visited, Σ_k (d_k − 1) on a
///     full run; coarse mode's are every applied chunk and reuse replay,
///     rolled-back ones included: the forest pairs in the production sweep,
///     all incident pairs in the reference one (core/coarse.hpp).
struct SweepStats {
  std::uint64_t pairs_processed = 0;  ///< incident edge pairs visited
  std::uint64_t merges_effective = 0; ///< dendrogram events (levels in fine mode)
  std::uint64_t c_accesses = 0;       ///< C slots read/visited (Theorem 2 metric)
  std::uint64_t c_changes = 0;        ///< C entries rewritten (Fig. 2(1) metric)
};

/// What a fine sweep returns, the merge pass below or the reference sweep.
struct SweepResult {
  Dendrogram dendrogram;
  std::vector<EdgeIdx> final_labels;  ///< canonical label per edge index
  SweepStats stats;
};

/// One surviving incident pair (e_uk, e_vk). No member initialisers: the
/// forest is sized without being written, and Prim writes every slot once.
struct ForestPair {
  double score;
  graph::VertexId u;       ///< u < v, the endpoints the two edges do not share
  graph::VertexId v;
  graph::VertexId k;       ///< the common neighbor
  graph::EdgeId first;     ///< id of edge (u, k)
  graph::EdgeId second;    ///< id of edge (v, k)
};

/// The reference sweep's strict total order on incident pairs: score
/// descending, then (u, v) ascending, then k ascending.
[[nodiscard]] inline bool sweep_order(const ForestPair& a, const ForestPair& b) {
  if (a.score != b.score) return a.score > b.score;
  if (a.u != b.u) return a.u < b.u;
  if (a.v != b.v) return a.v < b.v;
  return a.k < b.k;
}

struct SpanningForest {
  /// Σ_k max(d_k − 1, 0) pairs in sweep_order.
  std::vector<ForestPair, DefaultInitAllocator<ForestPair>> pairs;
  MemoryCharge charge;               ///< the pairs, charged before allocation
  std::uint64_t key_count = 0;       ///< K1 at or above the build's min_score
  std::uint64_t incident_pairs = 0;  ///< K2 of those keys
  /// Coarse mode's list L, as the first pass staged it: one part per gather
  /// block, in build order. Empty unless spanning_forest() was asked to
  /// stage it; the caller frees it once BucketSweepSource has copied it.
  std::vector<StagedBlock> list;
};

/// The fewest contiguous k-ranges, as bounds 0 = b_0, ..., b_P = n, whose
/// score triangles (Σ_{k∈R} C(d_k, 2) × 8 B each) fit in what the memory
/// budget of `ctx` leaves once the forest pairs, the gather scratch of
/// T = `t_count` blocks and, `with_list` (coarse mode), twice min(K2, C(n, 2))
/// entries of L (the staged keys and the sweep source's copy) are charged: a greedy
/// packing over k. One range without a context or a budget, or when every
/// triangle fits at once. Throws StoppedError (kResourceExhausted), naming the
/// bytes needed, when those and the largest triangle exceed the budget.
[[nodiscard]] std::vector<graph::VertexId> triangle_ranges(const graph::WeightedGraph& graph,
                                                           std::size_t t_count,
                                                           lc::RunContext* ctx,
                                                           bool with_list = false);

/// Charges and sizes the forest pairs, then for each k-range
/// [ranges[r], ranges[r + 1]): a TriangleBuilder pass fills the range's
/// triangles, Prim runs per k of the range (one contiguous sub-range per
/// pool thread, balanced by d_k²), and the triangles are freed. One sort of
/// the survivors follows. Each k writes its d_k − 1 tree pairs at a
/// prefix-sum offset, so the forest is the same at every thread count and
/// for every choice of ranges. `options` is the build's (ctx, measure,
/// min_score for K1/K2); its ctx is polled per k. With `stage_list` (coarse
/// mode) the first pass also stages L, the keys at or above min_score, into
/// SpanningForest::list. `ledger` (optional) gets Prim as one round of T
/// slots per k-range, at 1 + d_k² units per k, and the sort as serial work.
[[nodiscard]] SpanningForest spanning_forest(const graph::WeightedGraph& graph,
                                             std::span<const graph::VertexId> ranges,
                                             parallel::ThreadPool* pool = nullptr,
                                             sim::WorkLedger* ledger = nullptr,
                                             const SimilarityMapOptions& options = {},
                                             bool stage_list = false);

/// The merge pass: visits `forest` head to tail, stops at the first pair
/// below `min_similarity`, and unites each pair's two clusters in a MinDsu
/// over edge indices, whose labels are set minima — so every event's `from`
/// and `into` are the reference sweep's. Stats: pairs_processed counts the
/// pairs visited, merges_effective the events, and c_accesses / c_changes
/// are 2 · pairs + unions and unions (see SweepStats).
///
/// `ctx` (optional) is polled as the pass runs; `checkpointer` (optional)
/// snapshots its progress, and `resume` continues from a snapshot whose
/// FineCheckpoint::entry_pos indexes `forest` (FineList::kForest).
SweepResult forest_sweep(const SpanningForest& forest, const EdgeIndex& index,
                         double min_similarity = -std::numeric_limits<double>::infinity(),
                         lc::RunContext* ctx = nullptr,
                         Checkpointer* checkpointer = nullptr,
                         const FineCheckpoint* resume = nullptr);

}  // namespace lc::core
