// Phase I of the paper's algorithm (Algorithm 1): build map M.
//
// A key of M is a vertex pair (u, v), u < v, with at least one common
// neighbor; the value carries (a) the Tanimoto similarity shared by *every*
// incident edge pair (e_uk, e_vk) whose non-shared endpoints are u and v —
// the paper's key observation is that Eq. (1) does not depend on the shared
// vertex k — and (b) those incident edge pairs, one per common neighbor k.
//
// Three passes over G(V, E):
//   pass 1: H1[i] = average incident weight of v_i (the diagonal entry of
//           a_i); H2[i] = H1[i]^2 + sum_j w_ij^2 = |a_i|^2.
//   pass 2: for every vertex i and neighbor pair (j, k), accumulate
//           w_ij * w_ik into M(j, k) and record the edge pair.
//   pass 3: for every edge (i, j) that is a key of M, add
//           (H1[i] + H1[j]) * w_ij — the inner-product terms at coordinates
//           i and j.
// Finalize: score = P / (H2[u] + H2[v] - P) where P = a_u · a_v.
//
// Storage is CSR-style: entries carry (offset, count) into one shared
// `pair_arena` instead of owning per-key heap vectors. It holds, for each
// common neighbor k, the pre-resolved edge-id pair (e_uk, e_vk). The build
// sees both incident edge ids for free (they are parallel to the adjacency
// slots it enumerates), so consumers of the map — the sweep, the coarse mode
// machine, the baselines — never need to call graph.find_edge() again. k
// itself is not stored: it is the endpoint the pair's two edges share
// (shared_vertex()). Within every entry the slice is ordered by k ascending.
//
// Passes 2 and 3 run as one per-vertex *gather* (DESIGN.md §12). Instead of
// every common neighbor k scattering a contribution into the key (u, v),
// every first vertex u gathers its keys with two walks over its wedges
// u -> k -> v (v > u). Walk 1 counts each key's commons and sums the
// products w_uk * w_kv into a dense per-worker accumulator; the keys are then
// scored in ascending v, with the pass-3 edge term fused in and the optional
// min_score filter applied exactly; walk 2 writes each surviving key's edge
// pairs into its slice. Keys emerge in packed-key order by construction, so
// there is no hashing and no key sort. Every score is summed in one
// canonical order — products by ascending common neighbor, then the pass-3
// term — so the serial build and the parallel build at any thread count
// produce byte-identical maps: entries, score bits and the arena. The build
// cuts the vertex range into contiguous blocks balanced by wedge count, one
// per pool thread (one for the serial build). Each block stages its
// surviving entries; prefix sums over the blocks fix where each block's
// entries and pairs start in the final map; then each block copies its
// entries there and walk 2 writes every pair once, straight into the final
// arena.
//
// LinkClusterer builds no map: TriangleBuilder runs the same pass 1, walk 1
// and scoring, and its walk 2 writes each key's score into the triangle of
// every common neighbor k in one k-range (ScoreTriangles), from which
// core/forest.hpp keeps one maximum spanning forest per k (DESIGN.md §16).
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/work_ledger.hpp"
#include "util/run_context.hpp"

namespace lc::core {

/// One incident edge pair (e_uk, e_vk), resolved to edge ids during the
/// build so the sweep merges clusters without any graph lookups.
///
/// No member initialisers: the build sizes the arena without writing it (see
/// DefaultInitAllocator), and walk 2 writes every slot once.
struct EdgePairRef {
  graph::EdgeId first;   ///< id of edge (u, k)
  graph::EdgeId second;  ///< id of edge (v, k)
};

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

/// No member initialisers, like EdgePairRef: the build sizes the entry array
/// without writing it and copies every entry in once.
struct SimilarityEntry {
  graph::VertexId u;     ///< first vertex of the key (u < v)
  graph::VertexId v;
  double score;          ///< Tanimoto similarity of any incident pair keyed here
  std::uint64_t offset;  ///< start of this key's slice in the shared arenas
  std::uint32_t count;   ///< number of common neighbors (slice length)
};

/// The strict total order sort_by_score() establishes over the pair list L:
/// score descending, ties broken by (u, v) ascending. Exposed so the bucketed
/// sweep source (core/sweep_source.hpp) can reproduce the exact global order
/// bucket by bucket — any correct sort under a strict total order yields the
/// same unique permutation.
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

/// Sub-phase timings and a gather counter, filled by the map builds when
/// SimilarityMapOptions::stats is set. Timings partition the build:
///   pass1_ms: the H1/H2 norm pass.
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

struct SimilarityMapOptions {
  SimilarityMeasure measure = SimilarityMeasure::kTanimoto;
  /// Optional cooperative run control (not owned): cancellation, deadline,
  /// and memory budget are checked at chunk granularity inside every build
  /// pass; a pending stop unwinds the build by throwing lc::StoppedError
  /// (rethrown from worker tasks by the pool). Null = uncontrolled, and the
  /// build is bitwise-identical to one with an idle context.
  lc::RunContext* ctx = nullptr;
  /// Score threshold: every key whose exact score compares below it is
  /// dropped before its edge pairs are written, so the result is the exact
  /// map filtered to score >= min_score. The default (-inf) keeps every key.
  double min_score = -std::numeric_limits<double>::infinity();
  /// When non-null, receives sub-phase timings and gather counters.
  BuildStats* stats = nullptr;
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
  /// full. Coarse mode orders L lazily through BucketSweepSource
  /// (core/sweep_source.hpp) instead, and fine mode never builds L; this is
  /// the reference order for the baselines, the figure benches, the tests,
  /// SortedSweepSource and the reference fine sweep (core/sweep.hpp).
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

/// Heap bytes of the per-worker gather scratch a triangle build on
/// T = `t_count` blocks charges for an n-vertex graph: T sets of n-sized
/// arrays. The map build charges T · n · 8 B more, for walk 2's arena
/// cursors.
[[nodiscard]] std::uint64_t gather_scratch_bytes(std::size_t n, std::size_t t_count);

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
/// options.min_score only filters the K1/K2 counts, because every slot is
/// needed for the spanning forests. T = pool->thread_count() blocks, one
/// without a pool; the output is the same at every T. options.stats gets
/// pass1_ms only.
/// With `stage_list` (coarse mode), the first build() also stages every key
/// at or above min_score as the map build's phase A does, for take_list().
class TriangleBuilder {
 public:
  TriangleBuilder(const graph::WeightedGraph& graph, parallel::ThreadPool* pool = nullptr,
                  sim::WorkLedger* ledger = nullptr,
                  const SimilarityMapOptions& options = {}, bool stage_list = false);
  ~TriangleBuilder();
  TriangleBuilder(const TriangleBuilder&) = delete;
  TriangleBuilder& operator=(const TriangleBuilder&) = delete;

  /// The triangles of k in [first, last), their bytes charged to options.ctx
  /// before they are allocated. Walk 2 of u writes only the k of row u in
  /// the range, one contiguous sub-span of the sorted row.
  [[nodiscard]] ScoreTriangles build(graph::VertexId first, graph::VertexId last);

  /// Ends the builder: frees the gather scratch and returns the staged keys
  /// as coarse mode's L — the map build's `entries` byte for byte, no arena.
  [[nodiscard]] SimilarityMap take_list();

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// Brute-force Eq. (1) for one incident edge pair (e_ik, e_jk), building the
/// full |V|-dimensional vectors a_i, a_j. O(|V|) per call; tests only.
double tanimoto_similarity_bruteforce(const graph::WeightedGraph& graph, graph::VertexId i,
                                      graph::VertexId j, graph::VertexId k);

/// Brute-force Jaccard of inclusive neighborhoods for one incident pair.
/// Tests only.
double jaccard_similarity_bruteforce(const graph::WeightedGraph& graph, graph::VertexId i,
                                     graph::VertexId j, graph::VertexId k);

}  // namespace lc::core
