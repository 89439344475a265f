#include "core/forest.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "core/checkpoint.hpp"
#include "core/dsu.hpp"
#include "core/gather.hpp"
#include "util/check.hpp"
#include "util/fault_inject.hpp"
#include "util/strings.hpp"

namespace lc::core {
namespace {

using graph::VertexId;

/// Ties of the sweep order inside one clique: between two pairs of equal
/// score, named by row positions, the one with the smaller (lo, hi) comes
/// first — (u, v) ascending, because row k is sorted.
bool wins_tie(std::uint32_t a1, std::uint32_t a2, std::uint32_t b1, std::uint32_t b2) {
  const std::uint32_t lo_a = std::min(a1, a2);
  const std::uint32_t lo_b = std::min(b1, b2);
  if (lo_a != lo_b) return lo_a < lo_b;
  return std::max(a1, a2) < std::max(b1, b2);
}

/// Per-worker Prim state, sized for the largest degree on the calling thread.
struct PrimScratch {
  std::vector<double> best;             ///< score of x's heaviest pair into the tree
  std::vector<std::uint32_t> link;      ///< its tree end
  std::vector<std::uint32_t> outside;   ///< row positions not yet in the tree, ascending
};

/// Dense Prim over clique k, whose pair scores are `tri`: writes its d_k − 1
/// tree pairs to `out`. The order is strict, so the tree is unique and any
/// correct MST algorithm would find the same pairs.
void prim(const graph::WeightedGraph& graph, VertexId k, const double* tri, PrimScratch& s,
          ForestPair* out) {
  const std::span<const VertexId> row = graph.neighbors(k);
  const std::span<const graph::EdgeId> ids = graph.neighbor_edge_ids(k);
  const auto d = static_cast<std::uint32_t>(row.size());
  if (d < 2) return;
  // Pair (x, y) against z's best pair (z, link[z]) in the sweep order.
  const auto heavier = [&s](double score, std::uint32_t x, std::uint32_t y, std::uint32_t z) {
    return score > s.best[z] || (score == s.best[z] && wins_tie(x, y, z, s.link[z]));
  };
  // Row position 0 starts the tree; every other x hangs off it.
  std::uint32_t pick = 1;
  std::uint32_t outside = 0;
  for (std::uint32_t x = 1; x < d; ++x) {
    s.outside[outside++] = x;
    s.best[x] = tri[ScoreTriangles::slot(0, x, d)];
    s.link[x] = 0;
    if (x > 1 && heavier(s.best[x], x, 0, pick)) pick = x;
  }
  for (std::uint32_t step = 0;; ++step) {
    // pick's best pair is the heaviest pair leaving the tree: a tree pair.
    const std::uint32_t lo = std::min(pick, s.link[pick]);
    const std::uint32_t hi = std::max(pick, s.link[pick]);
    out[step] = ForestPair{s.best[pick], row[lo], row[hi], k, ids[lo], ids[hi]};
    if (step + 2 == d) return;
    // Move pick into the tree, relax the rest against it, and find the next
    // pick, in one pass that keeps `outside` ascending (so the reads of
    // pick's row stay sequential).
    const std::uint32_t added = pick;
    // Row `added` of the triangle: its pairs (added, x) for x > added.
    const double* const added_row = tri + ScoreTriangles::slot(added, added + 1, d);
    std::uint32_t kept = 0;
    std::uint32_t next = d;
    for (std::uint32_t r = 0; r < outside; ++r) {
      const std::uint32_t x = s.outside[r];
      if (x == added) continue;
      s.outside[kept++] = x;
      const double score =
          x > added ? added_row[x - added - 1] : tri[ScoreTriangles::slot(x, added, d)];
      if (heavier(score, added, x, x)) {
        s.best[x] = score;
        s.link[x] = added;
      }
      if (next == d || heavier(s.best[x], x, s.link[x], next)) next = x;
    }
    outside = kept;
    pick = next;
  }
}

}  // namespace

std::vector<VertexId> triangle_ranges(const graph::WeightedGraph& graph, std::size_t t_count,
                                      lc::RunContext* ctx, bool with_list) {
  const auto n = static_cast<VertexId>(graph.vertex_count());
  const auto triangle_bytes = [&graph](VertexId k) -> std::uint64_t {
    const std::uint64_t d = graph.degree(k);
    return (d == 0 ? 0 : d * (d - 1) / 2) * sizeof(double);
  };
  if (ctx == nullptr || ctx->memory_budget() == 0) return {0, n};
  std::uint64_t forest = 0;
  std::uint64_t largest = 0;
  std::uint64_t k2 = 0;
  for (VertexId k = 0; k < n; ++k) {
    const std::uint64_t d = graph.degree(k);
    forest += (d == 0 ? 0 : d - 1) * sizeof(ForestPair);
    largest = std::max(largest, triangle_bytes(k));
    k2 += triangle_bytes(k) / sizeof(double);
  }
  const std::uint64_t scratch = gather_scratch_bytes(n, t_count);
  // Every key has a pair and a distinct (u, v), so K1 <= min(K2, C(n, 2)).
  // The staged keys and the sweep source's copy of them are alive together.
  const std::uint64_t list =
      with_list ? 2 * std::min<std::uint64_t>(k2, std::uint64_t{n} * (n - 1) / 2) *
                      sizeof(SimilarityEntry)
                : 0;
  const std::uint64_t budget = ctx->memory_budget();
  const std::uint64_t left = budget - std::min(budget, ctx->memory_charged());
  const std::uint64_t needed = forest + largest + scratch + list;
  if (needed > left) {
    throw StoppedError(Status::resource_exhausted(strprintf(
        "the spanning forest needs at least %llu bytes (forest pairs %llu + largest score "
        "triangle %llu + gather scratch %llu + sorted list bound %llu) and the memory budget "
        "leaves %llu",
        static_cast<unsigned long long>(needed), static_cast<unsigned long long>(forest),
        static_cast<unsigned long long>(largest), static_cast<unsigned long long>(scratch),
        static_cast<unsigned long long>(list), static_cast<unsigned long long>(left))));
  }
  const std::uint64_t room = left - forest - scratch - list;
  std::vector<VertexId> bounds{0};
  std::uint64_t held = 0;
  for (VertexId k = 0; k < n; ++k) {
    const std::uint64_t bytes = triangle_bytes(k);
    if (held + bytes > room) {
      bounds.push_back(k);
      held = 0;
    }
    held += bytes;
  }
  bounds.push_back(n);
  return bounds;
}

SpanningForest spanning_forest(const graph::WeightedGraph& graph,
                               std::span<const VertexId> ranges, parallel::ThreadPool* pool,
                               sim::WorkLedger* ledger, const SimilarityMapOptions& options,
                               bool stage_list) {
  const std::size_t n = graph.vertex_count();
  LC_CHECK_MSG(ranges.size() >= 2 && ranges.front() == 0 && ranges.back() == n,
               "the k-ranges must cover the vertex range");
  lc::RunContext* const ctx = options.ctx;
  // Clique k keeps d_k − 1 tree pairs, written at base[k].
  std::vector<std::uint64_t> base(n + 1, 0);
  std::size_t max_degree = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t d = graph.degree(static_cast<VertexId>(k));
    base[k + 1] = base[k] + (d == 0 ? 0 : d - 1);
    max_degree = std::max(max_degree, d);
  }
  SpanningForest forest;
  forest.charge = MemoryCharge(ctx, base[n] * sizeof(ForestPair), "forest.pairs");
  forest.pairs.resize(static_cast<std::size_t>(base[n]));

  TriangleBuilder builder(graph, pool, ledger, options);
  const std::size_t t_count = (pool == nullptr) ? 1 : pool->thread_count();
  std::vector<PrimScratch> scratch(t_count);
  for (PrimScratch& s : scratch) {
    s.best.resize(max_degree);
    s.link.resize(max_degree);
    s.outside.resize(max_degree);
  }
  for (std::size_t r = 0; r + 1 < ranges.size(); ++r) {
    const VertexId first = ranges[r];
    ScoreTriangles triangles = builder.build(first, ranges[r + 1], stage_list && r == 0);
    if (r == 0) {
      forest.key_count = triangles.key_count;
      forest.incident_pairs = triangles.incident_pairs;
      forest.list = std::move(triangles.list);
    }
    const std::vector<std::size_t> bounds =
        parallel::balanced_split_range(ranges[r + 1] - first, t_count, [&](std::size_t i) {
          const std::uint64_t d = graph.degree(static_cast<VertexId>(first + i));
          return 1 + d * d;
        });
    detail::run_blocks(pool, ledger, "init.prim", [&](std::size_t t) {
      fault::maybe_fire("forest.prim");
      PollTicker ticker(ctx);
      std::uint64_t work = 0;
      for (std::size_t k = first + bounds[t]; k < first + bounds[t + 1]; ++k) {
        const auto vk = static_cast<VertexId>(k);
        const std::uint64_t d = graph.degree(vk);
        ticker.checkpoint(1 + d * d);
        prim(graph, vk, triangles.triangle(vk), scratch[t], forest.pairs.data() + base[k]);
        work += 1 + d * d;
      }
      return work;
    });
    check_stop(ctx);
  }  // each range's triangles are freed before the next range is built
  std::sort(forest.pairs.begin(), forest.pairs.end(), sweep_order);
  if (ledger != nullptr) {
    const std::uint64_t pairs = forest.pairs.size();  // |F| · ⌈log2(|F| + 1)⌉
    ledger->begin_phase("init.forest.sort");
    ledger->add_serial(pairs * static_cast<std::uint64_t>(std::bit_width(pairs)));
  }
  return forest;
}

SweepResult forest_sweep(const SpanningForest& forest, const EdgeIndex& index,
                         double min_similarity, lc::RunContext* ctx,
                         Checkpointer* checkpointer, const FineCheckpoint* resume) {
  const std::size_t edge_count = index.size();
  SweepResult result;
  result.dendrogram = Dendrogram(edge_count);
  std::uint32_t level = 0;
  std::size_t pos = 0;
  if (resume != nullptr) {
    LC_CHECK_MSG(resume->list == FineList::kForest,
                 "resume state must index the spanning-forest pairs");
    LC_CHECK_MSG(resume->cluster_c.size() == edge_count, "resume state must match the graph");
    LC_CHECK_MSG(resume->entry_pos <= forest.pairs.size(),
                 "resume position must lie within the forest");
    for (const MergeEvent& event : resume->events) {
      result.dendrogram.add_event(event.level, event.from, event.into, event.similarity);
    }
    level = resume->level;
    pos = static_cast<std::size_t>(resume->entry_pos);
  }
  MinDsu dsu = resume != nullptr ? MinDsu(resume->cluster_c) : MinDsu(edge_count);

  // Every visited pair reads two cluster labels and every union rewrites
  // one, so the counters follow from the position and the level alone.
  const auto stats_at = [&level](std::size_t pairs) {
    SweepStats stats;
    stats.pairs_processed = pairs;
    stats.merges_effective = level;
    stats.c_accesses = 2 * static_cast<std::uint64_t>(pairs) + level;
    stats.c_changes = level;
    return stats;
  };
  // The state before pair `next`: a complete prefix of the run.
  const auto write_state = [&](std::size_t next) {
    FineCheckpoint state;
    state.list = FineList::kForest;
    state.entry_pos = next;
    state.level = level;
    state.ordinal = next;
    state.stats = stats_at(next);
    state.cluster_c = dsu.labels();
    state.events = result.dendrogram.events();
    // A failed snapshot is recorded on the checkpointer but never aborts
    // the sweep it was protecting.
    (void)checkpointer->write_fine(state);
  };

  PollTicker ticker(ctx);
  // A timed policy reads the clock in due(); polling it every
  // kDuePollStride pairs keeps that read off the per-pair path, while an
  // interval of 0 ("every boundary") keeps the clock-free per-pair poll.
  constexpr std::size_t kDuePollStride = 1024;
  const std::size_t due_stride =
      (checkpointer != nullptr && checkpointer->policy().interval_ms > 0) ? kDuePollStride
                                                                           : 1;
  std::size_t since_due_poll = due_stride;  // poll at the first boundary
  try {
    for (; pos < forest.pairs.size(); ++pos) {
      const ForestPair& pair = forest.pairs[pos];
      if (pair.score < min_similarity) break;  // sweep order: all done
      // A stop must land promptly even when the ticker is far from its next
      // poll (a fault-injected sleep can burn a second per pair).
      if (ctx != nullptr && ctx->stop_requested()) ctx->throw_if_stopped();
      fault::maybe_fire("sweep.entry");
      ticker.checkpoint();
      const EdgeIdx a = dsu.find(index.index_of(pair.first));
      const EdgeIdx b = dsu.find(index.index_of(pair.second));
      if (a != b) {
        dsu.unite(a, b);
        ++level;
        result.dendrogram.add_event(level, std::max(a, b), std::min(a, b), pair.score);
      }
      if (checkpointer != nullptr && ++since_due_poll >= due_stride) {
        since_due_poll = 0;
        if (checkpointer->due()) write_state(pos + 1);
      }
    }
  } catch (const StoppedError&) {
    // Every StoppedError above is raised before pair `pos` merges, so the
    // state is the complete prefix [0, pos). Flush it so a cancelled or
    // over-deadline run resumes where it stopped; due() and max_snapshots
    // are bypassed because this is the run's last chance to persist.
    if (checkpointer != nullptr && checkpointer->policy().enabled() &&
        !checkpointer->degraded()) {
      write_state(pos);
    }
    throw;
  }
  result.final_labels = dsu.labels();
  result.stats = stats_at(pos);
  return result;
}

}  // namespace lc::core
