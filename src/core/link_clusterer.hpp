// High-level façade: one call from a weighted graph to a link-clustering
// dendrogram, covering every mode the paper describes.
//
//   LinkClusterer::Config config;
//   config.mode = ClusterMode::kCoarse;
//   config.threads = 4;
//   auto result = LinkClusterer(config).cluster(graph);
//
// Both modes run Algorithm 1 into per-vertex score triangles and keep one
// maximum spanning forest per common neighbor (core/forest.hpp). Fine mode
// merges those pairs in the order of Algorithm 2 — the merges of Algorithm 2
// over all of L, from at most 2|E| pairs. Coarse mode also keeps L, without
// its pair arena, and runs the §V coarse sweep over it, each chunk uniting
// its forest pairs (core/coarse.hpp). threads > 1 parallelizes the build and
// the forests per §VI-A; both sweeps are serial. Config::ledger, when set,
// records the work of every layer: the build passes, Prim, the forest sort,
// coarse mode's list partition, and the fine merge pass or the coarse sweep.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>

#include "core/checkpoint.hpp"
#include "core/coarse.hpp"
#include "core/dendrogram.hpp"
#include "core/edge_index.hpp"
#include "core/forest.hpp"
#include "core/score_triangles.hpp"
#include "core/sweep_source.hpp"
#include "graph/graph.hpp"
#include "sim/work_ledger.hpp"
#include "util/status.hpp"

namespace lc {
class RunContext;  // util/run_context.hpp
}

namespace lc::core {

enum class ClusterMode {
  kFine,    ///< strict dendrogram, one merge per level (§IV)
  kCoarse,  ///< coarse-grained dendrogram under (gamma, phi, delta0) (§V)
};

struct ClusterTimings {
  /// The score triangles plus the spanning forests and their sort; coarse
  /// mode adds the O(|L|) bucket partition that copies the staged L into
  /// its sweep source, while the per-bucket sorts land in sweeping_seconds
  /// as the sweep reaches them.
  double initialization_seconds = 0.0;
  double sweeping_seconds = 0.0;        ///< fine merge pass or coarse sweep
  [[nodiscard]] double total_seconds() const {
    return initialization_seconds + sweeping_seconds;
  }
};

/// What checkpointing cost (and lost) during one fine run — the
/// Checkpointer's counters, surfaced so the batch CLI can warn about silent
/// snapshot loss.
struct CheckpointRunStats {
  std::uint64_t snapshots_written = 0;
  std::uint64_t write_failures = 0;   ///< snapshots lost after retries
  std::uint64_t retries_used = 0;     ///< commit retries across snapshots
  bool degraded = false;              ///< checkpointer gave up (in-memory only)
  std::uint64_t last_snapshot_bytes = 0;
  double write_seconds = 0.0;
};

struct ClusterResult {
  Dendrogram dendrogram;
  std::vector<EdgeIdx> final_labels;
  EdgeIndex edge_index;               ///< maps labels' positions back to edges
  SweepStats stats;
  ClusterTimings timings;
  std::size_t k1 = 0;                 ///< keys (vertex pairs) at or above the floor
  std::uint64_t k2 = 0;               ///< their incident edge pairs
  std::uint32_t passes = 1;           ///< k-ranges of score triangles built
  SweepSourceStats sweep_source;      ///< coarse mode's bucketed L; all zero in fine
  std::optional<CoarseResult> coarse; ///< populated in coarse mode
  std::optional<CheckpointRunStats> ckpt;  ///< populated when checkpointing ran
};

class LinkClusterer {
 public:
  struct Config {
    ClusterMode mode = ClusterMode::kFine;
    CoarseOptions coarse;               ///< used in coarse mode
    std::size_t threads = 1;            ///< > 1 enables §VI parallelization
    EdgeOrder edge_order = EdgeOrder::kShuffled;
    std::uint64_t seed = 42;            ///< edge-enumeration seed
    SimilarityMeasure measure = SimilarityMeasure::kTanimoto;
    /// Similarity floor. K1/K2 count the keys at or above it. Fine mode
    /// stops the merge pass at the first pair below it (the dendrogram
    /// simply ends at the threshold); coarse mode's L holds only the keys
    /// at or above it, so its sweep ends there too. The triangles still
    /// hold every score, so the floor saves neither mode triangle memory (a
    /// budget splits the triangles into passes instead, DESIGN.md §16); it
    /// shrinks only coarse mode's L. Part of the checkpoint fingerprint: a
    /// thresholded run is a different run. Default -inf keeps historical
    /// digests and snapshots unchanged.
    double min_similarity = -std::numeric_limits<double>::infinity();
    sim::WorkLedger* ledger = nullptr;  ///< optional work accounting (not owned)
    /// Optional cooperative run control (not owned): cancellation, deadline,
    /// and memory budget (see util/run_context.hpp). Checked at chunk
    /// granularity in both phases; null = uncontrolled.
    lc::RunContext* ctx = nullptr;
    /// Crash-consistent snapshots of fine-mode sweep progress
    /// (core/checkpoint.hpp). An empty directory disables checkpointing;
    /// snapshots never change the result. Coarse mode does not checkpoint:
    /// run() refuses a directory or `resume` in coarse mode with
    /// kInvalidArgument.
    CheckpointPolicy checkpoint;
    /// Load the snapshot in checkpoint.directory and continue from it
    /// instead of sweeping from scratch (fine mode). The snapshot's
    /// fingerprint must match this config and the input graph; run() reports
    /// a mismatch (or a missing snapshot) as kInvalidArgument.
    bool resume = false;
  };

  /// The fingerprint a checkpoint of (`graph`, `config`) carries — exposed
  /// so tests and tools can call load_checkpoint() directly.
  [[nodiscard]] static RunFingerprint fingerprint(const graph::WeightedGraph& graph,
                                                  const Config& config);

  LinkClusterer();
  explicit LinkClusterer(Config config);

  /// Clusters the edges of `graph`. A pending stop on Config::ctx unwinds as
  /// lc::StoppedError; prefer run() unless the caller owns the try/catch.
  [[nodiscard]] ClusterResult cluster(const graph::WeightedGraph& graph) const;

  /// cluster() behind the run boundary: every recoverable failure — a cancel
  /// request, a missed deadline, an exceeded memory budget, an allocation
  /// failure, or an exception escaping a worker task — comes back as a
  /// non-OK Status instead of unwinding into the caller. Programming errors
  /// still abort via LC_CHECK.
  [[nodiscard]] StatusOr<ClusterResult> run(const graph::WeightedGraph& graph) const;

  [[nodiscard]] const Config& config() const { return config_; }

 private:
  Config config_;
};

}  // namespace lc::core
