// Phase I of the paper's algorithm (Algorithm 1) as LinkClusterer runs it:
// every key's score, written into per-vertex score triangles.
//
// A key is a vertex pair (u, v), u < v, with at least one common neighbor.
// Every incident edge pair (e_uk, e_vk) whose non-shared endpoints are u and
// v has the same Tanimoto similarity — the paper's key observation is that
// Eq. (1) does not depend on the shared vertex k. Three passes over G(V, E):
//   pass 1: H1[i] = average incident weight of v_i (the diagonal entry of
//           a_i); H2[i] = H1[i]^2 + sum_j w_ij^2 = |a_i|^2.
//   pass 2: for every vertex i and neighbor pair (j, k), accumulate
//           w_ij * w_ik into the key (j, k).
//   pass 3: for every edge (i, j) that is a key, add (H1[i] + H1[j]) * w_ij
//           — the inner-product terms at coordinates i and j.
// Finalize: score = P / (H2[u] + H2[v] - P) where P = a_u · a_v.
//
// Passes 2 and 3 run as one per-vertex gather over the wedges
// u -> k -> v (core/gather.hpp, DESIGN.md §12), whose walk 2 here writes
// each score into the triangle of every common neighbor k (ScoreTriangles);
// core/forest.hpp keeps one maximum spanning forest per k (DESIGN.md §16).
// Every score is summed in one canonical order, so the output is
// byte-identical at every thread count. The paper's map M (a pair arena per
// key) is the reference build in core/similarity.hpp, over the same gather.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/work_ledger.hpp"
#include "util/run_context.hpp"

namespace lc::core {

/// std::allocator whose value-less construct() default-initialises, so
/// resize() leaves trivially constructible elements unwritten instead of
/// zero-filling them.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  using std::allocator<T>::allocator;
  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// One key of the pair list L. No member initialisers: buffers of entries
/// are sized without being written, and every entry is copied in once.
struct SimilarityEntry {
  graph::VertexId u;     ///< first vertex of the key (u < v)
  graph::VertexId v;
  double score;          ///< Tanimoto similarity of any incident pair keyed here
  /// Start of this key's slice in the reference map's pair arena; relative
  /// to its gather block in a StagedBlock.
  std::uint64_t offset;
  std::uint32_t count;   ///< number of common neighbors
};

/// The strict total order of the sorted pair list L: score descending, ties
/// broken by (u, v) ascending. The bucketed sweep source
/// (core/sweep_source.hpp) reproduces the exact global order bucket by
/// bucket — any correct sort under a strict total order yields the same
/// unique permutation.
[[nodiscard]] inline bool score_order(const SimilarityEntry& a, const SimilarityEntry& b) {
  if (a.score != b.score) return a.score > b.score;
  if (a.u != b.u) return a.u < b.u;
  return a.v < b.v;
}

/// The flipped IEEE-754 bits of a (non-negative) score: ascending key order
/// is exactly descending score order, with -0.0 collapsed onto 0.0 so the
/// two zero encodings share a key. The bucketed sweep source partitions L on
/// these bits, so its bucket ranges nest inside the sorted order, and radix
/// sorts each bucket on them.
[[nodiscard]] inline std::uint64_t flipped_score_key(double score) {
  return ~std::bit_cast<std::uint64_t>(score == 0.0 ? 0.0 : score);
}

/// Which edge-pair similarity Eq. (1) is instantiated with.
enum class SimilarityMeasure {
  /// Weighted Tanimoto coefficient over the a_i vectors (the paper's Eq. 1).
  kTanimoto,
  /// Unweighted Jaccard of inclusive neighborhoods N+(i) = N(i) ∪ {i} (the
  /// original Ahn et al. similarity for unweighted graphs). On unit-weight
  /// graphs the a_i vectors are exactly the N+(i) indicators, so Tanimoto
  /// and Jaccard coincide — a property the tests exploit.
  kJaccard,
};

/// Sub-phase timings and a gather counter, filled when
/// SimilarityMapOptions::stats is set. The map build's timings partition it:
///   pass1_ms: the H1/H2 norm pass (all a TriangleBuilder fills).
///   pass2_ms: the wedge counts, walk 1 and scoring (with the fused pass-3
///             edge term), which stage the surviving entries.
///   pass3_ms: the fill — the staged entries copied to their final slots and
///             walk 2 writing every pair into the final arena.
struct BuildStats {
  double pass1_ms = 0.0;
  double pass2_ms = 0.0;
  double pass3_ms = 0.0;
  /// Discovered keys with >= 2 common neighbors, counted before the
  /// min_score filter.
  std::uint64_t pairs_exact = 0;
};

/// The options of a similarity build: the triangle build and the reference
/// map build read the same ones.
struct SimilarityMapOptions {
  SimilarityMeasure measure = SimilarityMeasure::kTanimoto;
  /// Optional cooperative run control (not owned), polled at chunk
  /// granularity in every pass: a pending stop unwinds the build by throwing
  /// lc::StoppedError. Null has no effect on the output.
  lc::RunContext* ctx = nullptr;
  /// Score threshold: every key whose exact score compares below it is
  /// dropped, so the result is the exact one filtered to score >= min_score.
  /// The default (-inf) keeps every key.
  double min_score = -std::numeric_limits<double>::infinity();
  /// When non-null, receives sub-phase timings and gather counters.
  BuildStats* stats = nullptr;
};

/// Heap bytes of the per-worker gather scratch a triangle build on
/// T = `t_count` blocks charges for an n-vertex graph: T sets of n-sized
/// arrays. The map build charges T · n · 8 B more, for walk 2's arena
/// cursors.
[[nodiscard]] std::uint64_t gather_scratch_bytes(std::size_t n, std::size_t t_count);

/// One gather block's staged keys, phase A's output: the keys of its u
/// range at or above min_score, in packed-key order, each `offset` relative
/// to the block's first arena slot, and the block's pair count. The map
/// build stages every block so, and so does coarse mode's first triangle
/// pass, whose blocks concatenate to the map's entries, offsets aside: its
/// list L.
struct StagedBlock {
  std::vector<SimilarityEntry> entries;
  std::uint64_t pairs = 0;
  std::uint64_t pairs_exact = 0;  ///< keys with >= 2 commons (BuildStats)
  MemoryCharge charge;            ///< the staged entries, grown as they are written

  /// Stages key (u, v) if its score is at or above `min_score`; returns
  /// whether it was kept.
  bool stage(graph::VertexId u, graph::VertexId v, std::uint32_t c, double score,
             double min_score) {
    if (c > 1) ++pairs_exact;
    if (score < min_score) return false;
    entries.push_back(SimilarityEntry{u, v, score, pairs, c});
    pairs += c;
    return true;
  }
};

/// Fine mode's score store for the vertices k in [first, last): one strict
/// upper triangle per k holding the score of every incident pair around k.
/// Row k of the graph is sorted, so positions i < j in it name the pair
/// (e_uk, e_vk) with u = row_k[i] < v = row_k[j], and its score sits at
/// scores[offset[k - first] + slot(i, j, d_k)]. Row i of a triangle holds
/// the pairs (i, j), j > i, contiguously: that is exactly what walk 2 writes
/// for one (u, k), so its writes run sequentially instead of striding across
/// rows. Sized from degrees alone — Σ_k C(d_k, 2) slots, K2 over the whole
/// vertex range, left unwritten by the allocation — and every slot is
/// written once, by walk 2 of u's block.
struct ScoreTriangles {
  graph::VertexId first = 0;
  graph::VertexId last = 0;
  std::vector<std::uint64_t> offset;  ///< last - first + 1 prefix sums of C(d_k, 2)
  std::vector<double, DefaultInitAllocator<double>> scores;
  /// K1 and K2 at or above min_score, over every key: each pass scores all
  /// of them, whatever its range.
  std::uint64_t key_count = 0;
  std::uint64_t incident_pairs = 0;
  MemoryCharge charge;               ///< the scores, charged before allocation
  /// Coarse mode's list L, one part per gather block, when the pass was
  /// asked to stage it; empty otherwise.
  std::vector<StagedBlock> list;

  /// Slot of the pair at row positions i < j within the triangle of a
  /// degree-d vertex.
  [[nodiscard]] static constexpr std::uint64_t slot(std::uint64_t i, std::uint64_t j,
                                                    std::uint64_t d) {
    return i * (2 * d - i - 1) / 2 + (j - i - 1);
  }
  [[nodiscard]] const double* triangle(graph::VertexId k) const {
    return scores.data() + offset[k - first];
  }
};

/// The spanning forests' build: pass 1, walk 1 and scoring exactly as the
/// map builds run them (the same score bits), with walk 2 writing each score
/// into ScoreTriangles. Construction runs pass 1 and the wedge counts and
/// charges the gather scratch (gather_scratch_bytes) to options.ctx; each
/// build() then runs pass 2 over every u again and fills the triangles of
/// one k-range, so a memory budget buys more passes over the same scores.
/// options.min_score only filters the K1/K2 counts and the staged list,
/// because every slot is needed for the spanning forests. T =
/// pool->thread_count() blocks, one without a pool; the output is the same at
/// every T. options.stats gets pass1_ms only.
class TriangleBuilder {
 public:
  TriangleBuilder(const graph::WeightedGraph& graph, parallel::ThreadPool* pool = nullptr,
                  sim::WorkLedger* ledger = nullptr,
                  const SimilarityMapOptions& options = {});
  ~TriangleBuilder();
  TriangleBuilder(const TriangleBuilder&) = delete;
  TriangleBuilder& operator=(const TriangleBuilder&) = delete;

  /// The triangles of k in [first, last), their bytes charged to options.ctx
  /// before they are allocated. Walk 2 of u writes only the k of row u in
  /// the range, one contiguous sub-span of the sorted row. With
  /// `stage_list` (coarse mode's first pass), walk 1 and scoring also stage
  /// every key at or above min_score into the result's `list`.
  [[nodiscard]] ScoreTriangles build(graph::VertexId first, graph::VertexId last,
                                     bool stage_list = false);

 private:
  struct State;
  std::unique_ptr<State> state_;
};

}  // namespace lc::core
