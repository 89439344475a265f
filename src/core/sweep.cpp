#include "core/sweep.hpp"

#include <array>

#include "core/checkpoint.hpp"
#include "core/cluster_array.hpp"
#include "core/sweep_source.hpp"
#include "util/check.hpp"
#include "util/fault_inject.hpp"
#include "util/run_context.hpp"

namespace lc::core {

BucketSweepSource::BucketSweepSource(const SimilarityMap& map, const Options& options)
    : BucketSweepSource(std::array{std::span<const SimilarityEntry>(map.entries)}, options) {}

SweepResult sweep(const graph::WeightedGraph& graph, const SimilarityMap& map,
                  BucketSweepSource& source, const EdgeIndex& index,
                  const PairObserver& observer, double min_similarity,
                  lc::RunContext* ctx, Checkpointer* checkpointer,
                  const FineCheckpoint* resume) {
  LC_CHECK_MSG(index.size() == graph.edge_count(), "edge index must match the graph");
  LC_CHECK_MSG(source.size() == map.entries.size(),
               "sweep source must cover the similarity map");

  SweepResult result;
  result.dendrogram = Dendrogram(graph.edge_count());
  ClusterArray clusters(graph.edge_count());
  std::uint32_t level = 0;
  std::uint64_t ordinal = 0;
  std::size_t start_entry = 0;
  // The resumed ClusterArray restarts its access/change counters at zero;
  // these bases carry the totals from before the snapshot so the final stats
  // match an uninterrupted run exactly.
  std::uint64_t base_accesses = 0;
  std::uint64_t base_changes = 0;
  if (resume != nullptr) {
    LC_CHECK_MSG(resume->list == FineList::kPairs,
                 "resume state must index the sorted pair list");
    LC_CHECK_MSG(resume->cluster_c.size() == graph.edge_count(),
                 "resume state must match the graph");
    LC_CHECK_MSG(resume->entry_pos <= map.entries.size(),
                 "resume position must lie within the sorted list");
    clusters.restore(resume->cluster_c);
    for (const MergeEvent& event : resume->events) {
      result.dendrogram.add_event(event.level, event.from, event.into,
                                  event.similarity);
    }
    level = resume->level;
    ordinal = resume->ordinal;
    start_entry = static_cast<std::size_t>(resume->entry_pos);
    base_accesses = resume->stats.c_accesses;
    base_changes = resume->stats.c_changes;
  }

  PollTicker ticker(ctx);
  // A timed policy reads the clock in due(); at one call per entry that read
  // dominates the sweep (entries are ~50 ns of work each). Polling every
  // kDuePollStride entries bounds the clock granularity to tens of
  // microseconds — far finer than any millisecond interval — while an
  // interval of 0 ("every boundary") keeps the per-entry poll, which is
  // clock-free on that path.
  constexpr std::size_t kDuePollStride = 1024;
  const std::size_t due_stride =
      (checkpointer != nullptr && checkpointer->policy().interval_ms > 0)
          ? kDuePollStride
          : 1;
  std::size_t since_due_poll = due_stride;  // poll at the first boundary
  const std::size_t entry_count = source.size();
  bool done = false;
  std::size_t e = start_entry;
  try {
  for (; e < entry_count && !done;) {
    // One ready span at a time: the readiness check (and, on a lazy source,
    // any just-in-time bucket sort) happens out here, so the per-entry loop
    // below stays as flat as the direct map.entries scan it replaced.
    const std::span<const SimilarityEntry> ready = source.window(e);
    const SimilarityEntry* const base = ready.data() - e;
    const std::size_t ready_end = e + ready.size();
    for (; e < ready_end; ++e) {
      const SimilarityEntry& entry = base[e];
      if (entry.score < min_similarity) {  // descending order: all done
        done = true;
        break;
      }
      // Signal-driven cancellation must land promptly even when the ticker's
      // item counter is far from its next poll (a fault-injected sleep can
      // burn a second per entry while the ticker waits out thousands of
      // items). stop_requested() is one relaxed-fail atomic load, safe here.
      if (ctx != nullptr && ctx->stop_requested()) ctx->throw_if_stopped();
      fault::maybe_fire("sweep.entry");
      ticker.checkpoint(1 + entry.count);
      // The build pre-resolved every incident pair (e_uk, e_vk) into the pair
      // arena, so the hot loop is a flat scan: no graph lookups at all.
      for (const EdgePairRef& pair : map.pairs(entry)) {
        const MergeOutcome outcome =
            clusters.merge(index.index_of(pair.first), index.index_of(pair.second));
        if (outcome.merged) {
          ++level;
          const EdgeIdx from = (outcome.c1 == outcome.target) ? outcome.c2 : outcome.c1;
          result.dendrogram.add_event(level, from, outcome.target, entry.score);
        }
        if (observer) observer(ordinal, outcome.changes);
        ++ordinal;
      }
      // Entry boundaries are the fine sweep's chunk boundaries: every pair of
      // the entry is merged, so the state is a complete prefix of the run.
      if (checkpointer != nullptr && ++since_due_poll >= due_stride) {
        since_due_poll = 0;
        if (checkpointer->due()) {
          FineCheckpoint state;
          state.list = FineList::kPairs;
          state.entry_pos = e + 1;
          state.level = level;
          state.ordinal = ordinal;
          state.stats.pairs_processed = ordinal;
          state.stats.merges_effective = level;
          state.stats.c_accesses = base_accesses + clusters.accesses();
          state.stats.c_changes = base_changes + clusters.total_changes();
          state.cluster_c = clusters.snapshot();
          state.events = result.dendrogram.events();
          // A failed snapshot is recorded on the checkpointer but never aborts
          // the sweep it was protecting.
          (void)checkpointer->write_fine(state);
        }
      }
    }
  }
  } catch (const StoppedError&) {
    // Every StoppedError in the loop above is raised before entry e's pairs
    // merge (stop check, fault point, ticker poll, window() bucket work), so
    // the state is the complete prefix [0, e) — exactly a checkpoint. Flush
    // it so a cancelled/over-deadline run resumes where it stopped instead
    // of replaying from the last timed snapshot; due()/max_snapshots are
    // bypassed because this is the run's last chance to persist progress.
    if (checkpointer != nullptr && checkpointer->policy().enabled() &&
        !checkpointer->degraded()) {
      FineCheckpoint state;
      state.list = FineList::kPairs;
      state.entry_pos = e;
      state.level = level;
      state.ordinal = ordinal;
      state.stats.pairs_processed = ordinal;
      state.stats.merges_effective = level;
      state.stats.c_accesses = base_accesses + clusters.accesses();
      state.stats.c_changes = base_changes + clusters.total_changes();
      state.cluster_c = clusters.snapshot();
      state.events = result.dendrogram.events();
      (void)checkpointer->write_fine(state);
    }
    throw;
  }

  result.final_labels = clusters.root_labels();
  result.stats.pairs_processed = ordinal;
  result.stats.merges_effective = level;
  result.stats.c_accesses = base_accesses + clusters.accesses();
  result.stats.c_changes = base_changes + clusters.total_changes();
  return result;
}

CoarseResult coarse_sweep(const graph::WeightedGraph& graph, const SimilarityMap& map,
                          BucketSweepSource& source, const EdgeIndex& index,
                          const CoarseOptions& options, parallel::ThreadPool* /*pool*/,
                          sim::WorkLedger* ledger, lc::RunContext* ctx,
                          Checkpointer* checkpointer, std::nullptr_t /*resume*/) {
  LC_CHECK_MSG(checkpointer == nullptr, "the coarse sweep does not checkpoint");
  LC_CHECK_MSG(source.size() == map.entries.size(),
               "sweep source must cover the similarity map");
  // Every incident pair of every entry of the chunk, from the map's arena.
  const auto chunk_pairs = [&](std::size_t first, std::size_t last,
                               const detail::UnitePair& unite) {
    for (std::size_t i = first; i < last; ++i) {
      for (const EdgePairRef& pair : map.pairs(source.at(i))) {
        unite(index.index_of(pair.first), index.index_of(pair.second));
      }
    }
  };
  return detail::run_coarse(graph, source, index, map.incident_pair_count(), chunk_pairs,
                            options, ledger, ctx);
}

}  // namespace lc::core
