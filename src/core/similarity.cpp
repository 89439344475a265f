#include "core/similarity.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "util/check.hpp"
#include "util/fault_inject.hpp"
#include "util/run_context.hpp"
#include "util/stopwatch.hpp"

namespace lc::core {
namespace {

using graph::EdgeId;
using graph::VertexId;
using graph::WeightedGraph;

std::uint64_t pair_key(VertexId a, VertexId b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

/// Pass 1 (lines 1-5): H1 and H2 for vertices {start, start+stride, ...}.
/// Threads take strided (round-robin) slices: the paper's §VII-C observation
/// is that round-robin assignment balances the heavily skewed per-vertex
/// costs of the word graphs (hub vertices cluster at low ids). Returns the
/// slice's work units.
std::uint64_t pass1_range(const WeightedGraph& graph, std::size_t start, std::size_t stride,
                          std::vector<double>& h1, std::vector<double>& h2, RunContext* ctx) {
  fault::maybe_fire("sim.pass1");
  PollTicker ticker(ctx);
  std::uint64_t work = 0;
  const std::size_t end = graph.vertex_count();
  for (std::size_t i = start; i < end; i += stride) {
    ticker.checkpoint();
    const auto v = static_cast<VertexId>(i);
    const std::span<const double> weights = graph.neighbor_weights(v);
    work += 1 + weights.size();
    if (weights.empty()) continue;  // isolated vertex: H1 = H2 = 0
    double sum = 0.0;
    double sum_sq = 0.0;
    for (double w : weights) {
      sum += w;
      sum_sq += w * w;
    }
    const double avg = sum / static_cast<double>(weights.size());
    h1[i] = avg;
    h2[i] = avg * avg + sum_sq;
  }
  return work;
}

/// Jaccard of inclusive neighborhoods from the entry's own statistics:
/// |N+(u) ∩ N+(v)| = |common| + 2·[u ~ v]; |N+| = degree + 1.
double jaccard_score(const WeightedGraph& graph, VertexId u, VertexId v,
                     std::size_t common_count) {
  const double both = static_cast<double>(common_count) + (graph.has_edge(u, v) ? 2.0 : 0.0);
  const double total = static_cast<double>(graph.degree(u) + 1 + graph.degree(v) + 1) - both;
  LC_DCHECK(total > 0.0);
  return both / total;
}

/// Runs block(t) for every t in [0, T) — inline when there is no pool (the
/// serial build, T = 1), else as one pool batch with T = pool->thread_count()
/// — and records each block's returned work units as one ledger round of
/// `phase`.
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

// ---------------------------------------------------------------------------
// Gather build (DESIGN.md §12)
//
// Pass 2 inverted: instead of every common neighbor k scattering a
// contribution into the key (u, v), every first vertex u *gathers* its keys
// by walking its wedges u -> k -> v (v > u, found by one upper_bound per
// row) twice. Walk 1 counts |N(u) ∩ N(v)| and sums w_uk · w_kv into a dense
// per-worker accumulator — Gustavson's row-wise sparse product, the
// paper's pass 2 restricted to one first vertex. Scoring then visits the
// candidates in ascending v, fuses the pass-3 edge term ((u, v) is an edge
// iff v appears in row u, found by a two-pointer over the sorted
// candidates), and hands each key's score to a sink. Walk 2 then writes the
// key's incident pairs: the map build stages each survivor of min_score with
// its slice of the block's pairs and walk 2 later fills those slices with
// (e_uk, e_vk), in the final arena; the triangle build has walk 2 write each
// score into the triangle of every common neighbor k, right after scoring.
// Row u is sorted, so both walks reach every key's commons in ascending k:
// each score is summed in one canonical order — products by ascending
// common, then the pass-3 term — and each slice is ordered by k. Keys emerge
// in packed-key order (u ascending per block, v ascending within u), so
// there is no hashing and no key sort, and the output is bitwise-identical
// at every thread count.

/// Calls visit(p, row_k, first) for every neighbor k = row_u[p] of u with p
/// in [p_begin, p_end) (all of row u by default), where row_k[first..] are
/// the wedge ends v > u and u itself sits at first - 1.
template <typename Visit>
void for_each_wedge_row(const WeightedGraph& graph, VertexId u, Visit visit,
                        std::size_t p_begin = 0,
                        std::size_t p_end = std::numeric_limits<std::size_t>::max()) {
  const std::span<const VertexId> row_u = graph.neighbors(u);
  for (std::size_t p = p_begin; p < std::min(p_end, row_u.size()); ++p) {
    const std::span<const VertexId> row_k = graph.neighbors(row_u[p]);
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
  /// Next final arena slot of a surviving key; sized by the map build only.
  std::vector<std::uint64_t> cursor;
  std::vector<VertexId> cand;  ///< distinct candidates v of the current u
  std::vector<std::uint64_t> cand_bits;  ///< scratch bitmap over v (see gather_vertex)

};

/// Read-only inputs shared by every gather worker.
struct GatherJob {
  const WeightedGraph& graph;
  const std::vector<double>& h1;
  const std::vector<double>& h2;
  SimilarityMeasure measure;
};

/// Walk 1 and scoring for one vertex: calls keep(v, c, score) for every key
/// (u, v), v > u, in ascending v, with its common-neighbor count c and its
/// exact score. Every candidate leaves walk 1 marked with the epoch u+1.
template <typename Keep>
void gather_vertex(const GatherJob& job, VertexId u, GatherScratch& s, Keep keep) {
  const WeightedGraph& graph = job.graph;
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

/// Map walk 2: writes (e_uk, e_vk), k ascending, for every key of u marked
/// with the epoch u+1, at its cursor into the final arena.
void fill_vertex(const WeightedGraph& graph, VertexId u, GatherScratch& s, EdgePairRef* arena) {
  const std::span<const VertexId> row_u = graph.neighbors(u);
  const std::span<const EdgeId> e_u = graph.neighbor_edge_ids(u);
  const std::uint32_t epoch = u + 1;
  for_each_wedge_row(graph, u, [&](std::size_t p, std::span<const VertexId> row_k,
                                   std::size_t first) {
    const std::span<const EdgeId> e_k = graph.neighbor_edge_ids(row_u[p]);
    for (std::size_t q = first; q < row_k.size(); ++q) {
      const VertexId v = row_k[q];
      if (s.mark[v] == epoch) arena[s.cursor[v]++] = EdgePairRef{e_u[p], e_k[q]};
    }
  });
}

/// Triangle walk 2: writes the score of every key (u, v) that the sink left
/// in acc[v] into the triangle of each common neighbor k in [out.first,
/// out.last), at slot (first - 1, q) — u's and v's positions in row k. Row u
/// is sorted, so those k are one contiguous run of it, and for one k the
/// slots are one contiguous run of row first - 1.
void fill_triangles(const WeightedGraph& graph, VertexId u, const GatherScratch& s,
                    ScoreTriangles& out) {
  const std::span<const VertexId> row_u = graph.neighbors(u);
  const auto begin = std::lower_bound(row_u.begin(), row_u.end(), out.first);
  const auto end = std::lower_bound(begin, row_u.end(), out.last);
  for_each_wedge_row(
      graph, u,
      [&](std::size_t p, std::span<const VertexId> row_k, std::size_t first) {
        double* const run = out.scores.data() + out.offset[row_u[p] - out.first] +
                            ScoreTriangles::slot(first - 1, first, row_k.size());
        for (std::size_t q = first; q < row_k.size(); ++q) run[q - first] = s.acc[row_k[q]];
      },
      static_cast<std::size_t>(begin - row_u.begin()),
      static_cast<std::size_t>(end - row_u.begin()));
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

/// `with_cursor`: the map build's walk 2 also needs GatherScratch::cursor.
GatherPlan plan_gather(const WeightedGraph& graph, const SimilarityMapOptions& options,
                       parallel::ThreadPool* pool, sim::WorkLedger* ledger, Stopwatch& watch,
                       bool with_cursor) {
  const std::size_t n = graph.vertex_count();
  const std::size_t t_count = (pool == nullptr) ? 1 : pool->thread_count();
  RunContext* ctx = options.ctx;
  GatherPlan plan;

  // Pass 1: disjoint (round-robin) vertex slices write disjoint H1/H2 slots.
  plan.h1.assign(n, 0.0);
  plan.h2.assign(n, 0.0);
  run_blocks(pool, ledger, "init.pass1", [&](std::size_t t) {
    return pass1_range(graph, t, t_count, plan.h1, plan.h2, ctx);
  });
  check_stop(ctx);
  if (options.stats != nullptr) options.stats->pass1_ms = watch.lap() * 1e3;

  // The wedge counts drive the contiguous block balance and bound each map
  // block's staged entries, so they are reserved up front and the workers
  // stay allocation-free.
  plan.wedges.assign(n, 0);
  run_blocks(pool, ledger, "init.pass2.wedges", [&](std::size_t t) {
    PollTicker ticker(ctx);
    std::uint64_t work = 0;
    for (std::size_t ui = t; ui < n; ui += t_count) {
      const auto u = static_cast<VertexId>(ui);
      const std::size_t degree = graph.degree(u);
      ticker.checkpoint(1 + degree);
      std::uint64_t w = 0;
      for_each_wedge_row(graph, u, [&w](std::size_t, std::span<const VertexId> row_k,
                                        std::size_t first) { w += row_k.size() - first; });
      plan.wedges[ui] = w;
      work += 1 + degree;
    }
    return work;
  });
  check_stop(ctx);
  plan.bounds = parallel::balanced_split_range(
      n, t_count, [&plan](std::size_t u) { return 1 + plan.wedges[u]; });

  const std::uint64_t cursor_bytes =
      with_cursor ? t_count * static_cast<std::uint64_t>(n) * sizeof(std::uint64_t) : 0;
  plan.scratch_charge = MemoryCharge(ctx, gather_scratch_bytes(n, t_count) + cursor_bytes,
                                     "sim.gather.scratch");
  plan.scratch.resize(t_count);
  for (GatherScratch& s : plan.scratch) {
    s.mark.assign(n, 0);
    s.ccount.resize(n);
    s.acc.resize(n);
    if (with_cursor) s.cursor.resize(n);
    s.cand.reserve(n);  // the candidates of u are distinct vertices
    s.cand_bits.assign((n + 63) / 64, 0);
  }
  return plan;
}

/// Phase A's output for one block: the surviving entries, staged with
/// offsets relative to the block's first arena slot, and the block's pair
/// count. The map build stages every block so, and so does coarse mode's
/// first triangle pass, whose list L is the map's entries without the arena.
struct StagedBlock {
  std::vector<SimilarityEntry> entries;
  std::uint64_t pairs = 0;
  std::uint64_t pairs_exact = 0;  ///< keys with >= 2 commons (BuildStats)
  MemoryCharge charge;            ///< the staged entries, grown as they are written

  /// Stages key (u, v) if its score is at or above `min_score`; returns
  /// whether it was kept.
  bool stage(VertexId u, VertexId v, std::uint32_t c, double score, double min_score) {
    if (c > 1) ++pairs_exact;
    if (score < min_score) return false;
    entries.push_back(SimilarityEntry{u, v, score, pairs, c});
    pairs += c;
    return true;
  }
};

/// One empty StagedBlock per u block of `plan`. Every key has at least one
/// pair, so a block's wedge count bounds its entries: the reservation keeps
/// the workers allocation-free, and only its touched prefix is resident.
std::vector<StagedBlock> staged_blocks(const GatherPlan& plan, RunContext* ctx) {
  std::vector<StagedBlock> blocks(plan.scratch.size());
  for (std::size_t t = 0; t < blocks.size(); ++t) {
    std::uint64_t block_wedges = 0;
    for (std::size_t u = plan.bounds[t]; u < plan.bounds[t + 1]; ++u) {
      block_wedges += plan.wedges[u];
    }
    blocks[t].entries.reserve(static_cast<std::size_t>(block_wedges));
    blocks[t].charge = MemoryCharge(ctx);
  }
  return blocks;
}

/// Algorithm 1 on T = pool->thread_count() blocks (one without a pool). The
/// vertex range is cut into T contiguous blocks balanced by wedge count, and
/// every block's content is a pure function of its u range, so the map is
/// the same at every T:
///   phase A: walk 1 and scoring stage each block's surviving entries;
///   prefix sums over the blocks' entry and pair counts fix where each
///   block's output starts in the final map;
///   phase B: each block copies its staged entries to their final slots,
///   rebased, and walk 2 writes their pairs straight into the final arena.
SimilarityMap build(const WeightedGraph& graph, const SimilarityMapOptions& options,
                    parallel::ThreadPool* pool, sim::WorkLedger* ledger) {
  RunContext* ctx = options.ctx;
  check_stop(ctx);
  Stopwatch watch;
  GatherPlan plan = plan_gather(graph, options, pool, ledger, watch, /*with_cursor=*/true);
  const std::size_t t_count = plan.scratch.size();
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
        s.cursor[e.v] = e.offset;
        dst[i] = e;
      }
      fill_vertex(graph, u, s, out.pair_arena.data());
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

/// The gather state every pass of a triangle build reuses.
struct TriangleBuilder::State {
  const WeightedGraph& graph;
  parallel::ThreadPool* pool;
  sim::WorkLedger* ledger;
  SimilarityMapOptions options;
  GatherPlan plan;
  bool stage_list;
  std::vector<StagedBlock> staged;  ///< the first pass's keys, when stage_list
};

TriangleBuilder::TriangleBuilder(const WeightedGraph& graph, parallel::ThreadPool* pool,
                                 sim::WorkLedger* ledger, const SimilarityMapOptions& options,
                                 bool stage_list) {
  check_stop(options.ctx);
  Stopwatch watch;
  state_ = std::make_unique<State>(State{
      graph, pool, ledger, options,
      plan_gather(graph, options, pool, ledger, watch, /*with_cursor=*/false), stage_list,
      /*staged=*/{}});
}

TriangleBuilder::~TriangleBuilder() = default;

/// One pass: sized and charged from degrees before it runs, then one gather
/// phase per block — walk 1 and scoring leave each key's score in acc[v],
/// and walk 2 writes it into the range's triangles of its common neighbors
/// at once. Slot (i, j) of triangle k belongs to the key (row_k[i],
/// row_k[j]), which only row_k[i]'s block scores, so the blocks write
/// disjoint slots and every slot exactly once.
ScoreTriangles TriangleBuilder::build(VertexId first, VertexId last) {
  State& state = *state_;
  const WeightedGraph& graph = state.graph;
  const SimilarityMapOptions& options = state.options;
  LC_CHECK_MSG(first <= last && last <= graph.vertex_count(), "k-range out of bounds");
  LC_CHECK_MSG(!state.plan.scratch.empty(), "no pass runs after take_list()");

  ScoreTriangles out;
  out.first = first;
  out.last = last;
  out.offset.assign(last - first + 1, 0);
  for (VertexId k = first; k < last; ++k) {
    const std::uint64_t d = graph.degree(k);
    out.offset[k - first + 1] = out.offset[k - first] + (d == 0 ? 0 : d * (d - 1) / 2);
  }
  const std::uint64_t bytes = out.offset.back() * sizeof(double);
  const std::string site = "sim.triangles (" + std::to_string(bytes) + " bytes)";
  out.charge = MemoryCharge(options.ctx, bytes, site.c_str());
  out.scores.resize(static_cast<std::size_t>(out.offset.back()));

  GatherPlan& plan = state.plan;
  // Walk 1 recognises a live candidate by its epoch u+1, which an earlier
  // pass left on every candidate of u: clear them.
  for (GatherScratch& s : plan.scratch) std::fill(s.mark.begin(), s.mark.end(), 0);
  const bool stage = state.stage_list && state.staged.empty();  // the first pass
  if (stage) state.staged = staged_blocks(plan, options.ctx);
  const GatherJob job{graph, plan.h1, plan.h2, options.measure};
  struct Counts {
    std::uint64_t keys = 0;
    std::uint64_t pairs = 0;
  };
  std::vector<Counts> counts(plan.scratch.size());
  run_blocks(state.pool, state.ledger, "init.pass2.gather", [&](std::size_t t) {
    fault::maybe_fire("build.gather");
    PollTicker ticker(options.ctx);
    GatherScratch& s = plan.scratch[t];
    StagedBlock* const block = stage ? &state.staged[t] : nullptr;
    Counts count;  // local: the blocks' slots share cache lines
    std::uint64_t work = 0;
    for (std::size_t ui = plan.bounds[t]; ui < plan.bounds[t + 1]; ++ui) {
      ticker.checkpoint(1 + plan.wedges[ui]);
      const auto u = static_cast<VertexId>(ui);
      const std::size_t staged = block != nullptr ? block->entries.size() : 0;
      gather_vertex(job, u, s, [&](VertexId v, std::uint32_t c, double score) {
        s.acc[v] = score;
        if (block != nullptr) block->stage(u, v, c, score, options.min_score);
        if (score < options.min_score) return;
        ++count.keys;
        count.pairs += c;
      });
      if (block != nullptr) {
        block->charge.grow((block->entries.size() - staged) * sizeof(SimilarityEntry),
                           "sim.gather.staged");
      }
      fill_triangles(graph, u, s, out);
      work += 1 + 2 * plan.wedges[ui];
    }
    counts[t] = count;
    return work;
  });
  check_stop(options.ctx);
  for (const Counts& count : counts) {
    out.key_count += count.keys;
    out.incident_pairs += count.pairs;
  }
  return out;
}

SimilarityMap TriangleBuilder::take_list() {
  State& state = *state_;
  LC_CHECK_MSG(!state.staged.empty(), "take_list() needs a staging pass");
  // No pass follows: the gather scratch goes before the list is copied.
  state.plan.scratch.clear();
  state.plan.scratch_charge.release();
  const std::vector<StagedBlock>& blocks = state.staged;
  std::vector<std::uint64_t> entry_base(blocks.size() + 1, 0);
  std::vector<std::uint64_t> arena_base(blocks.size() + 1, 0);
  for (std::size_t t = 0; t < blocks.size(); ++t) {
    entry_base[t + 1] = entry_base[t] + blocks[t].entries.size();
    arena_base[t + 1] = arena_base[t] + blocks[t].pairs;
  }
  SimilarityMap list;
  MemoryCharge charge(state.options.ctx, entry_base.back() * sizeof(SimilarityEntry),
                      "sim.list");
  list.entries.resize(static_cast<std::size_t>(entry_base.back()));
  run_blocks(state.pool, state.ledger, "init.list", [&](std::size_t t) {
    SimilarityEntry* dst = list.entries.data() + entry_base[t];
    for (SimilarityEntry e : blocks[t].entries) {
      e.offset += arena_base[t];  // the map's offset, though no arena is built
      *dst++ = e;
    }
    return blocks[t].entries.size();
  });
  state.staged.clear();
  charge.commit();
  list.set_keys_sorted(true);
  return list;
}

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
    const std::uint64_t key = pair_key(u, v);
    const auto it = std::lower_bound(entries.begin(), entries.end(), key,
                                     [](const SimilarityEntry& entry, std::uint64_t k) {
                                       return pair_key(entry.u, entry.v) < k;
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
  return build(graph, options, nullptr, nullptr);
}

SimilarityMap build_similarity_map_parallel(const graph::WeightedGraph& graph,
                                            parallel::ThreadPool& pool,
                                            sim::WorkLedger* ledger,
                                            const SimilarityMapOptions& options) {
  return build(graph, options, &pool, ledger);
}

std::uint64_t gather_scratch_bytes(std::size_t n, std::size_t t_count) {
  // mark, ccount and acc over n vertices, at most n candidates, and an n-bit
  // bitmap. The map build's cursor is charged beside it.
  const std::uint64_t per_worker =
      static_cast<std::uint64_t>(n) *
          (2 * sizeof(std::uint32_t) + sizeof(double) + sizeof(VertexId)) +
      (static_cast<std::uint64_t>(n) + 63) / 64 * sizeof(std::uint64_t);
  return t_count * per_worker;
}

double tanimoto_similarity_bruteforce(const graph::WeightedGraph& graph, graph::VertexId i,
                                      graph::VertexId j, graph::VertexId k) {
  LC_CHECK_MSG(graph.has_edge(i, k) && graph.has_edge(j, k),
               "edges (i,k) and (j,k) must exist for an incident pair");
  const std::size_t n = graph.vertex_count();
  auto vector_of = [&](graph::VertexId x) {
    std::vector<double> a(n, 0.0);
    const std::span<const VertexId> adj = graph.neighbors(x);
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

double jaccard_similarity_bruteforce(const graph::WeightedGraph& graph, graph::VertexId i,
                                     graph::VertexId j, graph::VertexId k) {
  LC_CHECK_MSG(graph.has_edge(i, k) && graph.has_edge(j, k),
               "edges (i,k) and (j,k) must exist for an incident pair");
  auto inclusive = [&](graph::VertexId x) {
    std::vector<bool> member(graph.vertex_count(), false);
    for (VertexId w : graph.neighbors(x)) member[w] = true;
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

}  // namespace lc::core
