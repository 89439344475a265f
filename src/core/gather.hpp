// Internal to the similarity builds: the gather that the triangle build
// (core/similarity.cpp, lc_core) and the reference map build
// (core/similarity_map.cpp, lc_reference) share, and run_blocks, which Prim
// (core/forest.cpp) runs on too. Not part of the public API.
//
// Every first vertex u gathers its keys (u, v), v > u, over its wedges
// u -> k -> v (DESIGN.md §12): walk 1 counts |N(u) ∩ N(v)| and sums w_uk ·
// w_kv into a dense per-worker accumulator, and scoring visits the
// candidates in ascending v with the fused pass-3 term. Row u is sorted, so
// every score is summed in one canonical order and keys emerge in
// packed-key order per block, at every thread count.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "core/score_triangles.hpp"
#include "graph/graph.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/work_ledger.hpp"
#include "util/check.hpp"
#include "util/run_context.hpp"
#include "util/stopwatch.hpp"

namespace lc::core::detail {

/// Runs block(t) for every t in [0, T) — inline without a pool (T = 1), else
/// as one pool batch with T = pool->thread_count() — and records each
/// block's returned work units as one ledger round of `phase`.
template <typename BlockFn>
void run_blocks(parallel::ThreadPool* pool, sim::WorkLedger* ledger, const char* phase,
                BlockFn block) {
  const std::size_t t_count = (pool == nullptr) ? 1 : pool->thread_count();
  if (ledger != nullptr) {
    ledger->begin_phase(phase);
    ledger->begin_round(t_count);
  }
  const auto run = [&](std::size_t t) {
    const std::uint64_t work = block(t);
    if (ledger != nullptr) ledger->add_work(t, work);
  };
  if (pool == nullptr) {
    run(0);
    return;
  }
  std::vector<std::function<void()>> tasks;
  for (std::size_t t = 0; t < t_count; ++t) tasks.push_back([&run, t] { run(t); });
  pool->run_batch(tasks);
}

/// Calls visit(p, row_k, first) for every neighbor k = row_u[p] of u with p
/// in [p_begin, p_end) (all of row u by default), where row_k[first..] are
/// the wedge ends v > u and u itself sits at first - 1.
template <typename Visit>
void for_each_wedge_row(const graph::WeightedGraph& graph, graph::VertexId u, Visit visit,
                        std::size_t p_begin = 0,
                        std::size_t p_end = std::numeric_limits<std::size_t>::max()) {
  const std::span<const graph::VertexId> row_u = graph.neighbors(u);
  for (std::size_t p = p_begin; p < std::min(p_end, row_u.size()); ++p) {
    const std::span<const graph::VertexId> row_k = graph.neighbors(row_u[p]);
    visit(p, row_k,
          static_cast<std::size_t>(std::upper_bound(row_k.begin(), row_k.end(), u) -
                                   row_k.begin()));
  }
}

/// Per-worker gather state, sized once on the calling thread so workers
/// never allocate: glibc gives each worker thread its own malloc arena, and
/// arena memory retained at a worker's allocation peak stays resident for
/// the life of the process, so worker-side allocation would scale peak RSS
/// with T across repeated builds.
struct GatherScratch {
  std::vector<std::uint32_t> mark;    ///< epoch (u+1) while v is a live candidate
  std::vector<std::uint32_t> ccount;  ///< |N(u) ∩ N(v)| while marked
  /// Σ w_uk · w_kv while marked; the triangle build's sink overwrites it
  /// with the key's score for walk 2 to read.
  std::vector<double> acc;
  std::vector<graph::VertexId> cand;     ///< distinct candidates v of the current u
  std::vector<std::uint64_t> cand_bits;  ///< scratch bitmap over v (see gather_vertex)
};

/// Read-only inputs shared by every gather worker.
struct GatherJob {
  const graph::WeightedGraph& graph;
  const std::vector<double>& h1;
  const std::vector<double>& h2;
  SimilarityMeasure measure;
};

/// Jaccard of inclusive neighborhoods from the key's own statistics:
/// |N+(u) ∩ N+(v)| = |common| + 2·[u ~ v]; |N+| = degree + 1.
inline double jaccard_score(const graph::WeightedGraph& graph, graph::VertexId u,
                            graph::VertexId v, std::size_t common_count) {
  const double both = static_cast<double>(common_count) + (graph.has_edge(u, v) ? 2.0 : 0.0);
  const double total = static_cast<double>(graph.degree(u) + 1 + graph.degree(v) + 1) - both;
  LC_DCHECK(total > 0.0);
  return both / total;
}

/// Walk 1 and scoring for one vertex: calls keep(v, c, score) for every key
/// (u, v), v > u, in ascending v, with its common-neighbor count c and its
/// exact score. Every candidate leaves walk 1 marked with the epoch u+1.
template <typename Keep>
void gather_vertex(const GatherJob& job, graph::VertexId u, GatherScratch& s, Keep keep) {
  using graph::VertexId;
  const graph::WeightedGraph& graph = job.graph;
  const std::span<const VertexId> row_u = graph.neighbors(u);
  if (row_u.empty()) return;
  const std::span<const double> w_u = graph.neighbor_weights(u);
  const std::uint32_t epoch = u + 1;

  // Walk 1: count the commons of every candidate and sum their products.
  s.cand.clear();
  for_each_wedge_row(graph, u, [&](std::size_t p, std::span<const VertexId> row_k,
                                   std::size_t first) {
    const std::span<const double> w_k = graph.neighbor_weights(row_u[p]);
    for (std::size_t q = first; q < row_k.size(); ++q) {
      const VertexId v = row_k[q];
      if (s.mark[v] != epoch) {
        s.mark[v] = epoch;
        s.ccount[v] = 0;
        s.acc[v] = 0.0;
        s.cand.push_back(v);
      }
      ++s.ccount[v];
      s.acc[v] += w_u[p] * w_k[q];
    }
  });
  if (s.cand.empty()) return;

  // Scoring, in ascending v, with the fused pass-3 term.
  std::size_t edge_ptr = 0;  // cursor into row u over the sorted candidates
  const auto score_key = [&](const VertexId v) {
    while (edge_ptr < row_u.size() && row_u[edge_ptr] < v) ++edge_ptr;
    const std::uint32_t c = s.ccount[v];
    double score;
    if (job.measure == SimilarityMeasure::kJaccard) {
      score = jaccard_score(graph, u, v, c);
    } else {
      // Adding a 0.0 for non-edges is bitwise-neutral on the non-negative
      // sum, so every key runs the same unconditional `p += pass3`.
      double pass3 = 0.0;
      if (edge_ptr < row_u.size() && row_u[edge_ptr] == v) {
        pass3 = (job.h1[u] + job.h1[v]) * w_u[edge_ptr];
      }
      double p = s.acc[v];
      p += pass3;
      const double denom = job.h2[u] + job.h2[v] - p;
      LC_DCHECK(denom > 0.0);
      score = p / denom;
    }
    keep(v, c, score);
  };

  // Candidates must be visited in ascending v. When the set is dense in its
  // value span (the common case on compact vertex ranges), a word-scan over a
  // scratch bitmap enumerates it in order for O(span/64 + |cand|) — cheaper
  // than the comparison sort, which stays the fallback for sparse spans
  // (e.g. a few candidates scattered across a huge id range). Both paths
  // visit the identical ascending sequence, so the output bytes never depend
  // on the choice.
  const auto [min_it, max_it] = std::minmax_element(s.cand.begin(), s.cand.end());
  const std::size_t lo_word = *min_it >> 6;
  const std::size_t hi_word = *max_it >> 6;
  if (hi_word - lo_word + 1 <= s.cand.size() * 4) {
    for (const VertexId v : s.cand) s.cand_bits[v >> 6] |= 1ull << (v & 63);
    for (std::size_t w = lo_word; w <= hi_word; ++w) {
      std::uint64_t word = s.cand_bits[w];
      s.cand_bits[w] = 0;  // leave the bitmap clear for the next u
      while (word != 0) {
        const auto v = static_cast<VertexId>(
            (w << 6) + static_cast<std::size_t>(std::countr_zero(word)));
        word &= word - 1;
        score_key(v);
      }
    }
  } else {
    std::sort(s.cand.begin(), s.cand.end());
    for (const VertexId v : s.cand) score_key(v);
  }
}

/// Pass 1, the wedge counts, the block bounds and the per-worker scratch:
/// everything walk 1 needs, shared by the map build and the triangle build.
struct GatherPlan {
  std::vector<double> h1;
  std::vector<double> h2;
  /// Exact wedge counts W[u] = |{(k, v) : k ∈ N(u), v ∈ N(k), v > u}| — the
  /// number of pass-2 contributions keyed at first vertex u (ΣW == K2).
  std::vector<std::uint64_t> wedges;
  std::vector<std::size_t> bounds;  ///< T contiguous u blocks, balanced by W
  std::vector<GatherScratch> scratch;
  MemoryCharge scratch_charge;  ///< T sets of n-sized arrays, held for the build
};

/// Runs pass 1 and the wedge counts and sizes the scratch, charging
/// gather_scratch_bytes plus `extra_scratch_bytes` (the map build's arena
/// cursors, which it allocates itself) as one "sim.gather.scratch" charge.
/// options.stats gets pass1_ms, from `watch`.
GatherPlan plan_gather(const graph::WeightedGraph& graph, const SimilarityMapOptions& options,
                       parallel::ThreadPool* pool, sim::WorkLedger* ledger, Stopwatch& watch,
                       std::uint64_t extra_scratch_bytes = 0);

/// One empty StagedBlock per u block of `plan`. Every key has at least one
/// pair, so a block's wedge count bounds its entries: the reservation keeps
/// the workers allocation-free, and only its touched prefix is resident.
std::vector<StagedBlock> staged_blocks(const GatherPlan& plan, RunContext* ctx);

}  // namespace lc::core::detail
