#include "core/similarity.hpp"

#include <algorithm>
#include <utility>

#include "core/gather.hpp"
#include "util/fault_inject.hpp"
#include "util/run_context.hpp"
#include "util/stopwatch.hpp"

namespace lc::core {
namespace detail {
namespace {

using graph::EdgeId;
using graph::VertexId;
using graph::WeightedGraph;

std::uint64_t pair_key(VertexId a, VertexId b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

/// Map walk 2: writes (e_uk, e_vk), k ascending, for every key of u marked
/// with the epoch u+1, at its cursor into the final arena.
void fill_vertex(const WeightedGraph& graph, VertexId u, const GatherScratch& s,
                 std::vector<std::uint64_t>& cursor, EdgePairRef* arena) {
  const std::span<const VertexId> row_u = graph.neighbors(u);
  const std::span<const EdgeId> e_u = graph.neighbor_edge_ids(u);
  const std::uint32_t epoch = u + 1;
  for_each_wedge_row(graph, u, [&](std::size_t p, std::span<const VertexId> row_k,
                                   std::size_t first) {
    const std::span<const EdgeId> e_k = graph.neighbor_edge_ids(row_u[p]);
    for (std::size_t q = first; q < row_k.size(); ++q) {
      const VertexId v = row_k[q];
      if (s.mark[v] == epoch) arena[cursor[v]++] = EdgePairRef{e_u[p], e_k[q]};
    }
  });
}

/// Algorithm 1 on T = pool->thread_count() blocks (one without a pool):
/// phase A stages each block's surviving entries, prefix sums over the
/// blocks fix where each block's output starts in the final map, and phase
/// B copies the entries there, rebased, while walk 2 writes their pairs
/// straight into the final arena.
SimilarityMap build(const WeightedGraph& graph, const SimilarityMapOptions& options,
                    parallel::ThreadPool* pool, sim::WorkLedger* ledger) {
  RunContext* ctx = options.ctx;
  check_stop(ctx);
  Stopwatch watch;
  const std::size_t n = graph.vertex_count();
  const std::size_t t_count = (pool == nullptr) ? 1 : pool->thread_count();
  // Walk 2's arena cursors are charged with the gather scratch.
  GatherPlan plan = plan_gather(graph, options, pool, ledger, watch,
                                t_count * static_cast<std::uint64_t>(n) * sizeof(std::uint64_t));
  std::vector<std::vector<std::uint64_t>> cursors(t_count, std::vector<std::uint64_t>(n));
  const std::vector<std::size_t>& bounds = plan.bounds;
  const std::vector<std::uint64_t>& wedges = plan.wedges;

  // Staged entries are charged as they are written; the final map, once its
  // size is known.
  const GatherJob job{graph, plan.h1, plan.h2, options.measure};
  std::vector<StagedBlock> blocks = staged_blocks(plan, ctx);

  // Phase A: walk 1 and scoring, keeping the keys at or above min_score.
  run_blocks(pool, ledger, "init.pass2.gather", [&](std::size_t t) {
    fault::maybe_fire("build.gather");
    PollTicker ticker(ctx);
    StagedBlock& block = blocks[t];
    GatherScratch& s = plan.scratch[t];
    std::uint64_t work = 0;
    for (std::size_t ui = bounds[t]; ui < bounds[t + 1]; ++ui) {
      ticker.checkpoint(1 + wedges[ui]);
      const std::size_t staged = block.entries.size();
      const auto u = static_cast<VertexId>(ui);
      gather_vertex(job, u, s, [&](VertexId v, std::uint32_t c, double score) {
        // Unmarked, so phase B cannot mistake it for a survivor of u: a
        // stale mark u+1 is left only on the keys staged here.
        if (!block.stage(u, v, c, score, options.min_score)) s.mark[v] = 0;
      });
      block.charge.grow((block.entries.size() - staged) * sizeof(SimilarityEntry),
                        "sim.gather.staged");
      work += 1 + wedges[ui];
    }
    return work;
  });
  check_stop(ctx);
  std::vector<std::uint64_t> entry_base(t_count + 1, 0);
  std::vector<std::uint64_t> arena_base(t_count + 1, 0);
  for (std::size_t t = 0; t < t_count; ++t) {
    entry_base[t + 1] = entry_base[t] + blocks[t].entries.size();
    arena_base[t + 1] = arena_base[t] + blocks[t].pairs;
    if (options.stats != nullptr) options.stats->pairs_exact += blocks[t].pairs_exact;
  }
  if (options.stats != nullptr) options.stats->pass2_ms = watch.lap() * 1e3;

  // Phase B: the final map, each block writing its own disjoint slices. Its
  // charge passes to the caller once the map is complete.
  SimilarityMap out;
  MemoryCharge map_charge(ctx,
                          entry_base[t_count] * sizeof(SimilarityEntry) +
                              arena_base[t_count] * sizeof(EdgePairRef),
                          "sim.arenas");
  out.entries.resize(static_cast<std::size_t>(entry_base[t_count]));
  out.pair_arena.resize(static_cast<std::size_t>(arena_base[t_count]));
  run_blocks(pool, ledger, "init.pass2.fill", [&](std::size_t t) {
    PollTicker ticker(ctx);
    GatherScratch& s = plan.scratch[t];
    std::vector<std::uint64_t>& cursor = cursors[t];
    const std::vector<SimilarityEntry>& staged = blocks[t].entries;
    SimilarityEntry* dst = out.entries.data() + entry_base[t];
    std::uint64_t work = 0;
    for (std::size_t i = 0; i < staged.size();) {
      const VertexId u = staged[i].u;
      ticker.checkpoint(1 + wedges[u]);
      const std::size_t first = i;
      for (; i < staged.size() && staged[i].u == u; ++i) {
        SimilarityEntry e = staged[i];
        e.offset += arena_base[t];
        s.mark[e.v] = u + 1;
        cursor[e.v] = e.offset;
        dst[i] = e;
      }
      fill_vertex(graph, u, s, cursor, out.pair_arena.data());
      work += (i - first) + wedges[u];
    }
    return work;
  });
  map_charge.commit();
  out.set_keys_sorted(true);
  if (options.stats != nullptr) options.stats->pass3_ms = watch.lap() * 1e3;
  return out;
}

}  // namespace
}  // namespace detail

void SimilarityMap::sort_by_score() {
  std::sort(entries.begin(), entries.end(), score_order);
  keys_sorted_ = false;
}

std::size_t SimilarityMap::memory_bytes() const {
  return entries.capacity() * sizeof(SimilarityEntry) +
         pair_arena.capacity() * sizeof(EdgePairRef);
}

const SimilarityEntry* SimilarityMap::find(graph::VertexId u, graph::VertexId v) const {
  if (u > v) std::swap(u, v);
  if (keys_sorted_) {
    const std::uint64_t key = detail::pair_key(u, v);
    const auto it = std::lower_bound(entries.begin(), entries.end(), key,
                                     [](const SimilarityEntry& entry, std::uint64_t k) {
                                       return detail::pair_key(entry.u, entry.v) < k;
                                     });
    if (it != entries.end() && it->u == u && it->v == v) return &*it;
    return nullptr;
  }
  for (const SimilarityEntry& entry : entries) {
    if (entry.u == u && entry.v == v) return &entry;
  }
  return nullptr;
}

SimilarityMap build_similarity_map(const graph::WeightedGraph& graph,
                                   const SimilarityMapOptions& options) {
  return detail::build(graph, options, nullptr, nullptr);
}

SimilarityMap build_similarity_map_parallel(const graph::WeightedGraph& graph,
                                            parallel::ThreadPool& pool,
                                            sim::WorkLedger* ledger,
                                            const SimilarityMapOptions& options) {
  return detail::build(graph, options, &pool, ledger);
}

}  // namespace lc::core
