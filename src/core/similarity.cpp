#include "core/similarity.hpp"

#include <algorithm>
#include <bit>
#include <limits>
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
/// costs of the word graphs (hub vertices cluster at low ids).
void pass1_range(const WeightedGraph& graph, std::size_t start, std::size_t stride,
                 std::vector<double>& h1, std::vector<double>& h2, RunContext* ctx) {
  fault::maybe_fire("sim.pass1");
  PollTicker ticker(ctx);
  const std::size_t end = graph.vertex_count();
  for (std::size_t i = start; i < end; i += stride) {
    ticker.checkpoint();
    const auto v = static_cast<VertexId>(i);
    const std::span<const double> weights = graph.neighbor_weights(v);
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

/// Cuts [0, n) into `parts` contiguous blocks balanced by `weight_of(i)`
/// (monotone greedy against the prefix sum). Returns part boundaries like
/// split_range.
template <typename WeightFn>
std::vector<std::size_t> balanced_blocks(std::size_t n, std::size_t parts,
                                         WeightFn weight_of) {
  std::vector<std::uint64_t> prefix(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) prefix[i + 1] = prefix[i] + weight_of(i);
  const std::uint64_t total = prefix[n];
  std::vector<std::size_t> bounds(parts + 1, 0);
  bounds[parts] = n;
  for (std::size_t p = 1; p < parts; ++p) {
    const std::uint64_t target = total / parts * p;
    const auto it = std::lower_bound(prefix.begin(), prefix.end(), target);
    std::size_t cut = static_cast<std::size_t>(it - prefix.begin());
    cut = std::clamp(cut, bounds[p - 1], n);
    bounds[p] = cut;
  }
  return bounds;
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
// candidates), drops keys below min_score, and hands each survivor its
// slice of the pair arena. Walk 2 fills those slices with (e_uk, e_vk).
// Row u is sorted, so both walks reach every key's commons in ascending k:
// each score is summed in one canonical order — products by ascending
// common, then the pass-3 term — and each slice is ordered by k. Keys
// emerge in packed-key order (u ascending per block, v ascending within u),
// so there is no staging arena, no hashing and no key sort, and the output
// is bitwise-identical at every thread count.

/// Per-worker gather state, sized once on the calling thread so workers
/// never allocate: glibc gives each worker thread its own malloc arena, and
/// arena memory retained at a worker's allocation peak stays resident for
/// the life of the process, so worker-side allocation would scale peak RSS
/// with T across repeated builds.
struct GatherScratch {
  std::vector<std::uint32_t> mark;    ///< epoch (u+1) while v is a live candidate
  std::vector<std::uint32_t> ccount;  ///< |N(u) ∩ N(v)| while marked
  std::vector<double> acc;            ///< Σ w_uk · w_kv while marked
  std::vector<std::uint64_t> cursor;  ///< next pair slot of a surviving key
  std::vector<VertexId> cand;  ///< distinct candidates v of the current u
  std::vector<std::uint64_t> cand_bits;  ///< scratch bitmap over v (see gather_vertex)

  /// Heap bytes of the arrays sized for an n-vertex graph, `cand_cap`
  /// candidates at most.
  static std::uint64_t bytes(std::size_t n, std::size_t cand_cap) {
    return static_cast<std::uint64_t>(n) *
               (2 * sizeof(std::uint32_t) + sizeof(double) + sizeof(std::uint64_t)) +
           static_cast<std::uint64_t>(cand_cap) * sizeof(VertexId) +
           (static_cast<std::uint64_t>(n) + 63) / 64 * sizeof(std::uint64_t);
  }
};

/// Per-worker output block; blocks concatenate (entry offsets rebased) into
/// the final CSR map.
struct GatherOut {
  std::vector<SimilarityEntry> entries;
  std::vector<EdgePairRef> pairs;
  std::uint64_t pairs_exact = 0;  ///< keys with >= 2 commons (BuildStats)
};

/// Read-only inputs shared by every gather worker.
struct GatherJob {
  const WeightedGraph& graph;
  const std::vector<double>& h1;
  const std::vector<double>& h2;
  SimilarityMeasure measure;
  double min_score;
};

/// Emits every key (u, v), v > u, with score >= min_score: its exact score
/// and its edge pairs.
void gather_vertex(const GatherJob& job, VertexId u, GatherScratch& s, GatherOut& out) {
  const WeightedGraph& graph = job.graph;
  const std::span<const VertexId> row_u = graph.neighbors(u);
  if (row_u.empty()) return;
  const std::span<const double> w_u = graph.neighbor_weights(u);
  const std::span<const EdgeId> e_u = graph.neighbor_edge_ids(u);
  const std::uint32_t epoch = u + 1;

  // Walk 1: count the commons of every candidate and sum their products.
  s.cand.clear();
  for (std::size_t p = 0; p < row_u.size(); ++p) {
    const std::span<const VertexId> row_k = graph.neighbors(row_u[p]);
    const auto first = static_cast<std::size_t>(
        std::upper_bound(row_k.begin(), row_k.end(), u) - row_k.begin());
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
  }
  if (s.cand.empty()) return;

  // Scoring, in ascending v: the fused pass-3 term, the exact min_score
  // filter, and each survivor's slice of the pair arena.
  std::size_t edge_ptr = 0;  // cursor into row u over the sorted candidates
  std::uint64_t next_slot = out.pairs.size();
  const auto score_key = [&](const VertexId v) {
    while (edge_ptr < row_u.size() && row_u[edge_ptr] < v) ++edge_ptr;
    const std::uint32_t c = s.ccount[v];
    if (c > 1) ++out.pairs_exact;
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
    if (score < job.min_score) {
      s.mark[v] = 0;  // walk 2 skips it
      return;
    }
    s.cursor[v] = next_slot;
    out.entries.push_back(SimilarityEntry{u, v, score, next_slot, c});
    next_slot += c;
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
  if (next_slot == out.pairs.size()) return;  // every key filtered out

  // Walk 2: fill the survivors' slices with (e_uk, e_vk), k ascending.
  out.pairs.resize(static_cast<std::size_t>(next_slot));
  for (std::size_t p = 0; p < row_u.size(); ++p) {
    const std::span<const VertexId> row_k = graph.neighbors(row_u[p]);
    const auto first = static_cast<std::size_t>(
        std::upper_bound(row_k.begin(), row_k.end(), u) - row_k.begin());
    const std::span<const EdgeId> e_k = graph.neighbor_edge_ids(row_u[p]);
    for (std::size_t q = first; q < row_k.size(); ++q) {
      const VertexId v = row_k[q];
      if (s.mark[v] == epoch) out.pairs[s.cursor[v]++] = EdgePairRef{e_u[p], e_k[q]};
    }
  }
}

SimilarityMap build_gather(const WeightedGraph& graph, const std::vector<double>& h1,
                           const std::vector<double>& h2,
                           const SimilarityMapOptions& options, parallel::ThreadPool* pool,
                           sim::WorkLedger* ledger, RunContext* ctx) {
  const std::size_t n = graph.vertex_count();
  const std::size_t t_count = (pool == nullptr) ? 1 : pool->thread_count();
  const bool filtered = options.min_score > -std::numeric_limits<double>::infinity();
  Stopwatch watch;

  // Exact wedge counts W[u] = |{(k, v) : k ∈ N(u), v ∈ N(k), v > u}| — the
  // number of pass-2 contributions keyed at first vertex u (ΣW == K2). They
  // drive the contiguous block balance and give each block's exact pair
  // arena share, so per-worker outputs are reserved up front and the
  // workers stay allocation-free.
  std::vector<std::uint64_t> wedges(n, 0);
  auto wedge_slice = [&](std::size_t start, std::size_t stride) -> std::uint64_t {
    PollTicker ticker(ctx);
    std::uint64_t work = 0;
    for (std::size_t ui = start; ui < n; ui += stride) {
      const auto u = static_cast<VertexId>(ui);
      const std::span<const VertexId> row_u = graph.neighbors(u);
      ticker.checkpoint(1 + row_u.size());
      std::uint64_t w = 0;
      for (const VertexId k : row_u) {
        const std::span<const VertexId> row_k = graph.neighbors(k);
        w += static_cast<std::uint64_t>(row_k.end() -
                                        std::upper_bound(row_k.begin(), row_k.end(), u));
      }
      wedges[ui] = w;
      work += 1 + row_u.size();
    }
    return work;
  };
  if (pool == nullptr) {
    wedge_slice(0, 1);
  } else {
    if (ledger != nullptr) {
      ledger->begin_phase("init.pass2.wedges");
      ledger->begin_round(t_count);
    }
    std::vector<std::function<void()>> tasks;
    for (std::size_t t = 0; t < t_count; ++t) {
      tasks.push_back([&, t] {
        const std::uint64_t work = wedge_slice(t, t_count);
        if (ledger != nullptr) ledger->add_work(t, work);
      });
    }
    pool->run_batch(tasks);
  }

  check_stop(ctx);
  const std::vector<std::size_t> bounds =
      balanced_blocks(n, t_count, [&wedges](std::size_t u) { return 1 + wedges[u]; });
  std::vector<std::uint64_t> block_pairs(t_count, 0);
  std::uint64_t k2 = 0;
  std::uint64_t max_wedge = 0;
  for (std::size_t t = 0; t < t_count; ++t) {
    for (std::size_t u = bounds[t]; u < bounds[t + 1]; ++u) {
      block_pairs[t] += wedges[u];
      max_wedge = std::max(max_wedge, wedges[u]);
    }
    k2 += block_pairs[t];
  }

  // The per-worker output blocks are the gather's dominant transient
  // footprint: the output itself, O(K1 + K2), held once here and once in the
  // final map during concatenation — there is no K2 tuple staging. (The
  // entry reservation is an upper bound; its untouched tail pages are never
  // dirtied, so only the pair-sized charge is accounted.) Released when
  // this function returns.
  //
  // Without a floor the pair count is exactly k2, charged up front. With a
  // min_score floor armed the k2 bound grossly overstates what survives, so
  // each worker charges its survivors incrementally instead — a degraded
  // re-run with a floor must cost fewer accounted bytes than the full build
  // it replaces, or the OOM-degradation ladder (DESIGN.md §14) could never
  // fit a budget the full build trips.
  constexpr std::uint64_t kPairBytes = sizeof(EdgePairRef);
  struct BlockCharge {
    RunContext* ctx = nullptr;
    std::uint64_t bytes = 0;
    BlockCharge() = default;
    BlockCharge(BlockCharge&& other) noexcept : ctx(other.ctx), bytes(other.bytes) {
      other.ctx = nullptr;
      other.bytes = 0;
    }
    BlockCharge& operator=(BlockCharge&&) = delete;
    BlockCharge(const BlockCharge&) = delete;
    BlockCharge& operator=(const BlockCharge&) = delete;
    ~BlockCharge() {
      if (ctx != nullptr) ctx->release_memory(bytes);
    }
  };
  MemoryCharge block_charge;
  std::vector<BlockCharge> block_charges(t_count);
  if (!filtered) {
    block_charge = MemoryCharge(ctx, k2 * kPairBytes, "sim.gather.blocks");
  } else if (ctx != nullptr) {
    for (BlockCharge& charge : block_charges) charge.ctx = ctx;
  }
  // The per-worker scratch: T sets of n-sized arrays, held for the gather.
  const std::size_t cand_cap =
      static_cast<std::size_t>(std::min<std::uint64_t>(max_wedge, n));
  const MemoryCharge scratch_charge(ctx, t_count * GatherScratch::bytes(n, cand_cap),
                                    "sim.gather.scratch");
  const GatherJob job{graph, h1, h2, options.measure, options.min_score};
  std::vector<GatherOut> outs(t_count);
  std::vector<GatherScratch> scratch(t_count);
  for (std::size_t t = 0; t < t_count; ++t) {
    const auto cap = static_cast<std::size_t>(block_pairs[t]);
    outs[t].entries.reserve(cap);
    outs[t].pairs.reserve(cap);
    GatherScratch& s = scratch[t];
    s.mark.assign(n, 0);
    s.ccount.resize(n);
    s.acc.resize(n);
    s.cursor.resize(n);
    s.cand.reserve(cand_cap);
    s.cand_bits.assign((n + 63) / 64, 0);
  }

  auto gather_block = [&](std::size_t t) -> std::uint64_t {
    fault::maybe_fire("build.gather");
    PollTicker ticker(ctx);
    GatherScratch& s = scratch[t];
    GatherOut& o = outs[t];
    BlockCharge& charge = block_charges[t];
    std::uint64_t charged_pairs = 0;
    std::uint64_t work = 0;
    for (std::size_t ui = bounds[t]; ui < bounds[t + 1]; ++ui) {
      ticker.checkpoint(1 + wedges[ui]);
      gather_vertex(job, static_cast<VertexId>(ui), s, o);
      work += 1 + wedges[ui];
      if (charge.ctx != nullptr && o.pairs.size() > charged_pairs) {
        const std::uint64_t delta = o.pairs.size() - charged_pairs;
        charged_pairs = o.pairs.size();
        // Count before charging: charge_memory records the bytes even when
        // it throws, and the destructor must release what was recorded.
        charge.bytes += delta * kPairBytes;
        charge.ctx->charge_memory(delta * kPairBytes, "sim.gather.blocks");
      }
    }
    return work;
  };
  if (pool == nullptr) {
    gather_block(0);
  } else {
    if (ledger != nullptr) {
      ledger->begin_phase("init.pass2.gather");
      ledger->begin_round(t_count);
    }
    std::vector<std::function<void()>> tasks;
    for (std::size_t t = 0; t < t_count; ++t) {
      tasks.push_back([&, t] {
        const std::uint64_t work = gather_block(t);
        if (ledger != nullptr) ledger->add_work(t, work);
      });
    }
    pool->run_batch(tasks);
  }
  if (options.stats != nullptr) {
    options.stats->pass2_ms = watch.lap() * 1e3;
    for (const GatherOut& o : outs) options.stats->pairs_exact += o.pairs_exact;
  }

  // Concatenate the blocks: block t's entries follow block t-1's, offsets
  // rebased by the arena prefix — block boundaries cannot leak into the
  // output because every block's content is a pure function of its u range.
  check_stop(ctx);
  std::vector<std::uint64_t> entry_base(t_count + 1, 0);
  std::vector<std::uint64_t> arena_base(t_count + 1, 0);
  for (std::size_t t = 0; t < t_count; ++t) {
    entry_base[t + 1] = entry_base[t] + outs[t].entries.size();
    arena_base[t + 1] = arena_base[t] + outs[t].pairs.size();
  }
  SimilarityMap out;
  MemoryCharge arena_charge(
      ctx,
      entry_base[t_count] * sizeof(SimilarityEntry) + arena_base[t_count] * sizeof(EdgePairRef),
      "sim.arenas");
  arena_charge.commit();
  if (t_count == 1) {
    // Single block (serial build or 1-thread pool): its offsets are already
    // final, so move it out instead of copying. The entry reservation was a
    // K2-bound; trim the slack so the map's memory_bytes() reflects K1
    // entries (the multi-block path gets this from its exact resize). No-op
    // for the arena unless the min_score filter dropped keys.
    outs[0].entries.shrink_to_fit();
    outs[0].pairs.shrink_to_fit();
    out.entries = std::move(outs[0].entries);
    out.pair_arena = std::move(outs[0].pairs);
  } else {
    if (ledger != nullptr) {
      ledger->begin_phase("init.finalize");
      ledger->begin_round(t_count);
    }
    out.entries.resize(static_cast<std::size_t>(entry_base[t_count]));
    out.pair_arena.resize(static_cast<std::size_t>(arena_base[t_count]));
    std::vector<std::function<void()>> tasks;
    for (std::size_t t = 0; t < t_count; ++t) {
      if (outs[t].entries.empty()) continue;
      tasks.push_back([&, t] {
        PollTicker ticker(ctx);
        const GatherOut& o = outs[t];
        SimilarityEntry* dst = out.entries.data() + entry_base[t];
        for (std::size_t i = 0; i < o.entries.size(); ++i) {
          ticker.checkpoint();
          dst[i] = o.entries[i];
          dst[i].offset += arena_base[t];
        }
        std::copy(o.pairs.begin(), o.pairs.end(),
                  out.pair_arena.begin() + static_cast<std::ptrdiff_t>(arena_base[t]));
        if (ledger != nullptr) ledger->add_work(t, o.entries.size() + o.pairs.size());
      });
    }
    pool->run_batch(tasks);
  }
  out.set_keys_sorted(true);
  if (options.stats != nullptr) options.stats->pass3_ms = watch.lap() * 1e3;
  return out;
}

}  // namespace

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
  const std::size_t n = graph.vertex_count();
  RunContext* ctx = options.ctx;
  check_stop(ctx);
  Stopwatch watch;
  std::vector<double> h1(n, 0.0);
  std::vector<double> h2(n, 0.0);
  pass1_range(graph, 0, 1, h1, h2, ctx);
  if (options.stats != nullptr) options.stats->pass1_ms = watch.lap() * 1e3;
  return build_gather(graph, h1, h2, options, nullptr, nullptr, ctx);
}

SimilarityMap build_similarity_map_parallel(const graph::WeightedGraph& graph,
                                            parallel::ThreadPool& pool,
                                            sim::WorkLedger* ledger,
                                            const SimilarityMapOptions& options) {
  const std::size_t n = graph.vertex_count();
  const std::size_t t_count = pool.thread_count();
  RunContext* ctx = options.ctx;
  check_stop(ctx);
  Stopwatch watch;
  std::vector<double> h1(n, 0.0);
  std::vector<double> h2(n, 0.0);

  // Pass 1: disjoint (round-robin) vertex slices write disjoint H1/H2 slots.
  if (ledger != nullptr) {
    ledger->begin_phase("init.pass1");
    ledger->begin_round(t_count);
  }
  {
    std::vector<std::function<void()>> tasks;
    for (std::size_t t = 0; t < t_count; ++t) {
      tasks.push_back([&, t] {
        std::uint64_t work = 0;
        for (std::size_t v = t; v < n; v += t_count) {
          work += graph.degree(static_cast<VertexId>(v)) + 1;
        }
        pass1_range(graph, t, t_count, h1, h2, ctx);
        if (ledger != nullptr) ledger->add_work(t, work);
      });
    }
    pool.run_batch(tasks);
  }

  check_stop(ctx);
  if (options.stats != nullptr) options.stats->pass1_ms = watch.lap() * 1e3;
  return build_gather(graph, h1, h2, options, &pool, ledger, ctx);
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
