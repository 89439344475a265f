#include "core/link_clusterer.hpp"

#include <cmath>
#include <new>
#include <optional>

#include "core/forest.hpp"
#include "util/check.hpp"
#include "util/run_context.hpp"
#include "util/stopwatch.hpp"

namespace lc::core {

LinkClusterer::LinkClusterer() : LinkClusterer(Config{}) {}

LinkClusterer::LinkClusterer(Config config) : config_(std::move(config)) {
  LC_CHECK_MSG(config_.threads >= 1 && config_.threads <= parallel::kMaxThreads,
               "threads must be at least 1 and at most parallel::kMaxThreads");
}

RunFingerprint LinkClusterer::fingerprint(const graph::WeightedGraph& graph,
                                          const Config& config) {
  // Thread count and pool shape are deliberately absent: the output is
  // bitwise-invariant to them, so a snapshot may resume under a different
  // thread count than the one that wrote it.
  RunFingerprint fp;
  fp.graph_digest = graph_fingerprint(graph);
  fp.mode = static_cast<std::uint8_t>(config.mode);
  fp.edge_order = static_cast<std::uint8_t>(config.edge_order);
  fp.measure = static_cast<std::uint8_t>(config.measure);
  fp.seed = config.seed;
  fp.min_similarity = config.min_similarity;
  fp.gamma = config.coarse.gamma;
  fp.phi = config.coarse.phi;
  fp.delta0 = config.coarse.delta0;
  fp.eta0 = config.coarse.eta0;
  fp.rollback_capacity = config.coarse.rollback_capacity;
  fp.max_rollbacks_per_level = config.coarse.max_rollbacks_per_level;
  return fp;
}

ClusterResult LinkClusterer::cluster(const graph::WeightedGraph& graph) const {
  ClusterResult result;
  result.edge_index = EdgeIndex(graph.edge_count(), config_.edge_order, config_.seed);

  // Checkpoint/resume plumbing, fine mode only. The snapshot is loaded
  // before the (costly) build so a mismatched fingerprint fails fast; the
  // build itself always reruns — it is deterministic, and re-deriving the
  // forest pairs is what makes the stored position meaningful.
  const bool coarse = config_.mode == ClusterMode::kCoarse;
  if (coarse && (config_.resume || config_.checkpoint.enabled())) {
    throw StoppedError(Status::invalid_argument(
        "coarse mode does not checkpoint: an interrupted run reruns from scratch"));
  }
  std::optional<LoadedCheckpoint> loaded;
  std::optional<Checkpointer> checkpointer;
  if (config_.resume || config_.checkpoint.enabled()) {
    const RunFingerprint fp = fingerprint(graph, config_);
    if (config_.resume) {
      if (!config_.checkpoint.enabled()) {
        throw StoppedError(Status::invalid_argument(
            "resume requires a checkpoint directory"));
      }
      StatusOr<LoadedCheckpoint> loaded_or = load_checkpoint(
          config_.checkpoint.directory, fp, graph.edge_count());
      if (!loaded_or.ok()) throw StoppedError(loaded_or.status());
      if (loaded_or->fine.list != FineList::kForest) {
        throw StoppedError(Status::invalid_argument(
            "checkpoint (" + loaded_or->source_path +
            ") indexes the reference sweep's full pair list, not the spanning-forest "
            "pairs a fine run resumes from; refusing to resume"));
      }
      loaded = std::move(loaded_or).value();
    }
    if (config_.checkpoint.enabled()) checkpointer.emplace(config_.checkpoint, fp);
  }

  std::unique_ptr<parallel::ThreadPool> pool;
  if (config_.threads > 1) pool = std::make_unique<parallel::ThreadPool>(config_.threads);
  SimilarityMapOptions map_options;
  map_options.measure = config_.measure;
  map_options.ctx = config_.ctx;
  // An armed similarity floor prunes coarse mode's L and the K1/K2 counts;
  // the fine merge pass stops at the same score.
  if (std::isfinite(config_.min_similarity)) map_options.min_score = config_.min_similarity;
  Checkpointer* ckpt = checkpointer.has_value() ? &*checkpointer : nullptr;

  Stopwatch watch;
  // A memory budget only adds passes: the forest and L do not depend on them.
  const std::vector<graph::VertexId> ranges =
      triangle_ranges(graph, config_.threads, config_.ctx, coarse);
  result.passes = static_cast<std::uint32_t>(ranges.size() - 1);
  SimilarityMap list;  // coarse mode's L, without the pair arena
  const SpanningForest forest = spanning_forest(graph, ranges, pool.get(), config_.ledger,
                                                map_options, coarse ? &list : nullptr);
  result.k1 = static_cast<std::size_t>(forest.key_count);
  result.k2 = forest.incident_pairs;
  if (!coarse) {
    result.timings.initialization_seconds = watch.lap();
    const FineCheckpoint* fine_resume = nullptr;
    if (loaded.has_value()) {
      // The fingerprint matched, so the rebuilt forest is the one the
      // snapshot indexed; a position beyond it means the snapshot lies about
      // its origin.
      fine_resume = &loaded->fine;
      if (fine_resume->entry_pos > forest.pairs.size()) {
        throw StoppedError(Status::invalid_argument(
            "checkpoint position lies beyond the sorted pair list"));
      }
    }
    check_stop(config_.ctx);
    SweepResult sweep_result = forest_sweep(forest, result.edge_index, config_.min_similarity,
                                            config_.ctx, ckpt, fine_resume);
    result.timings.sweeping_seconds = watch.lap();
    result.dendrogram = std::move(sweep_result.dendrogram);
    result.final_labels = std::move(sweep_result.final_labels);
    result.stats = sweep_result.stats;
  } else {
    // Order L: pay only the O(|L|) bucket partition here; each bucket is
    // sorted as the sweep reaches it, and buckets past the phi stop never
    // are.
    BucketSweepSource::Options source_options;
    source_options.pool = pool.get();
    BucketSweepSource source(list, source_options);
    result.timings.initialization_seconds = watch.lap();
    check_stop(config_.ctx);
    CoarseResult coarse_result = coarse_sweep(graph, forest, source, result.edge_index,
                                              config_.coarse, config_.ledger, config_.ctx);
    result.timings.sweeping_seconds = watch.lap();
    result.dendrogram = coarse_result.dendrogram;  // copy; full detail kept below
    result.final_labels = coarse_result.final_labels;
    result.stats = coarse_result.stats;
    result.coarse = std::move(coarse_result);
    result.sweep_source = source.stats();
  }
  if (ckpt != nullptr) {
    CheckpointRunStats stats;
    stats.snapshots_written = ckpt->snapshots_written();
    stats.write_failures = ckpt->write_failures();
    stats.retries_used = ckpt->write_retries_used();
    stats.degraded = ckpt->degraded();
    stats.last_snapshot_bytes = ckpt->last_snapshot_bytes();
    stats.write_seconds = ckpt->write_seconds_total();
    result.ckpt = stats;
  }
  return result;
}

StatusOr<ClusterResult> LinkClusterer::run(const graph::WeightedGraph& graph) const {
  try {
    return cluster(graph);
  } catch (const StoppedError& stopped) {
    return stopped.status();
  } catch (const std::bad_alloc&) {
    return Status::resource_exhausted("allocation failed");
  } catch (const std::exception& error) {
    return Status::internal(error.what());
  }
}

}  // namespace lc::core
