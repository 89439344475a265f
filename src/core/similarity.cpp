#include <algorithm>
#include <memory>
#include <string>

#include "core/gather.hpp"
#include "core/score_triangles.hpp"
#include "util/check.hpp"
#include "util/fault_inject.hpp"
#include "util/run_context.hpp"
#include "util/stopwatch.hpp"

namespace lc::core {
namespace detail {
namespace {

using graph::VertexId;
using graph::WeightedGraph;

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

}  // namespace

GatherPlan plan_gather(const WeightedGraph& graph, const SimilarityMapOptions& options,
                       parallel::ThreadPool* pool, sim::WorkLedger* ledger, Stopwatch& watch,
                       std::uint64_t extra_scratch_bytes) {
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

  // The wedge counts drive the contiguous block balance and bound each
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

  plan.scratch_charge = MemoryCharge(ctx, gather_scratch_bytes(n, t_count) + extra_scratch_bytes,
                                     "sim.gather.scratch");
  plan.scratch.resize(t_count);
  for (GatherScratch& s : plan.scratch) {
    s.mark.assign(n, 0);
    s.ccount.resize(n);
    s.acc.resize(n);
    s.cand.reserve(n);  // the candidates of u are distinct vertices
    s.cand_bits.assign((n + 63) / 64, 0);
  }
  return plan;
}

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

}  // namespace detail

namespace {

using graph::VertexId;
using graph::WeightedGraph;

/// Triangle walk 2: writes the score of every key (u, v) that the sink left
/// in acc[v] into the triangle of each common neighbor k in [out.first,
/// out.last), at slot (first - 1, q) — u's and v's positions in row k. Row u
/// is sorted, so those k are one contiguous run of it, and for one k the
/// slots are one contiguous run of row first - 1.
void fill_triangles(const WeightedGraph& graph, VertexId u, const detail::GatherScratch& s,
                    ScoreTriangles& out) {
  const std::span<const VertexId> row_u = graph.neighbors(u);
  const auto begin = std::lower_bound(row_u.begin(), row_u.end(), out.first);
  const auto end = std::lower_bound(begin, row_u.end(), out.last);
  detail::for_each_wedge_row(
      graph, u,
      [&](std::size_t p, std::span<const VertexId> row_k, std::size_t first) {
        double* const run = out.scores.data() + out.offset[row_u[p] - out.first] +
                            ScoreTriangles::slot(first - 1, first, row_k.size());
        for (std::size_t q = first; q < row_k.size(); ++q) run[q - first] = s.acc[row_k[q]];
      },
      static_cast<std::size_t>(begin - row_u.begin()),
      static_cast<std::size_t>(end - row_u.begin()));
}

}  // namespace

/// The gather state every pass of a triangle build reuses.
struct TriangleBuilder::State {
  const WeightedGraph& graph;
  parallel::ThreadPool* pool;
  sim::WorkLedger* ledger;
  SimilarityMapOptions options;
  detail::GatherPlan plan;
};

TriangleBuilder::TriangleBuilder(const WeightedGraph& graph, parallel::ThreadPool* pool,
                                 sim::WorkLedger* ledger, const SimilarityMapOptions& options) {
  check_stop(options.ctx);
  Stopwatch watch;
  state_ = std::make_unique<State>(
      State{graph, pool, ledger, options, detail::plan_gather(graph, options, pool, ledger, watch)});
}

TriangleBuilder::~TriangleBuilder() = default;

/// One pass: sized and charged from degrees before it runs, then one gather
/// phase per block — walk 1 and scoring leave each key's score in acc[v],
/// and walk 2 writes it into the range's triangles of its common neighbors
/// at once. Slot (i, j) of triangle k belongs to the key (row_k[i],
/// row_k[j]), which only row_k[i]'s block scores, so the blocks write
/// disjoint slots and every slot exactly once.
ScoreTriangles TriangleBuilder::build(VertexId first, VertexId last, bool stage_list) {
  State& state = *state_;
  const WeightedGraph& graph = state.graph;
  const SimilarityMapOptions& options = state.options;
  LC_CHECK_MSG(first <= last && last <= graph.vertex_count(), "k-range out of bounds");

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

  detail::GatherPlan& plan = state.plan;
  // Walk 1 recognises a live candidate by its epoch u+1, which an earlier
  // pass left on every candidate of u: clear them.
  for (detail::GatherScratch& s : plan.scratch) std::fill(s.mark.begin(), s.mark.end(), 0);
  std::vector<StagedBlock> staged;
  if (stage_list) staged = detail::staged_blocks(plan, options.ctx);
  const detail::GatherJob job{graph, plan.h1, plan.h2, options.measure};
  struct Counts {
    std::uint64_t keys = 0;
    std::uint64_t pairs = 0;
  };
  std::vector<Counts> counts(plan.scratch.size());
  detail::run_blocks(state.pool, state.ledger, "init.pass2.gather", [&](std::size_t t) {
    fault::maybe_fire("build.gather");
    PollTicker ticker(options.ctx);
    detail::GatherScratch& s = plan.scratch[t];
    StagedBlock* const block = stage_list ? &staged[t] : nullptr;
    Counts count;  // local: the blocks' slots share cache lines
    std::uint64_t work = 0;
    for (std::size_t ui = plan.bounds[t]; ui < plan.bounds[t + 1]; ++ui) {
      ticker.checkpoint(1 + plan.wedges[ui]);
      const auto u = static_cast<VertexId>(ui);
      const std::size_t staged_before = block != nullptr ? block->entries.size() : 0;
      detail::gather_vertex(job, u, s, [&](VertexId v, std::uint32_t c, double score) {
        s.acc[v] = score;
        if (block != nullptr) block->stage(u, v, c, score, options.min_score);
        if (score < options.min_score) return;
        ++count.keys;
        count.pairs += c;
      });
      if (block != nullptr) {
        block->charge.grow((block->entries.size() - staged_before) * sizeof(SimilarityEntry),
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
  out.list = std::move(staged);
  return out;
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

}  // namespace lc::core
