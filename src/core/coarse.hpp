// Coarse-grained hierarchical link clustering (§V of the paper).
//
// The sorted pair list L is processed in chunks; all incident edge pairs in
// one chunk merge at a single dendrogram level r-tilde. The algorithm keeps
// the *soundness* property — the cluster-count ratio between consecutive
// levels stays <= gamma — by running the head / tail / rollback mode machine
// of Fig. 2(3):
//
//   head     : > |E|/2 clusters remain (predicate C1 false). Chunk sizes grow
//              exponentially (delta *= eta, eta0 = 8); every head->rollback
//              transition halves eta - 1.
//   tail     : <= |E|/2 clusters remain. The next chunk size is extrapolated
//              from the slope of the cluster-count curve, using the closest
//              saved future state on L_rollback (Eq. 6) as a reference point
//              when one exists.
//   rollback : the last chunk merged too aggressively (beta/beta' > gamma).
//              The epoch state is saved on L_rollback, the algorithm returns
//              to the safe state Q*, and the chunk size is re-estimated from
//              the concave/convex two-slope construction of Fig. 3 (always
//              the steeper slope, so the retry undershoots). Consecutive
//              rollbacks halve the estimate.
//
// Saved rollback states are *reused*: after a level is accepted, if some
// state on L_rollback has beta-tilde < beta with beta/beta-tilde <= gamma,
// the algorithm jumps straight to the one with the fewest clusters instead
// of recomputing the span (epoch kind kReused).
//
// Processing stops once <= phi clusters remain (predicate C3); the tail of L
// is never touched — the source of the coarse mode's large speedup
// (Fig. 5(2): only 55.1% of pairs processed at alpha = 0.005 in the paper).
//
// A chunk's unions run serially on one MinDsu (core/dsu.hpp). The production
// sweep unites only the chunk's spanning-forest pairs (core/forest.hpp): on
// every prefix of the sweep order they join the same components as all the
// pairs, so every beta, event and label is the reference sweep's (DESIGN.md
// §10, §16). Each parent write is appended to a *merge journal*; the epoch
// boundary reads the dendrogram events, the rollback undo, and the compact
// saved states of L_rollback from that journal and the cluster count from
// the DSU, so epoch bookkeeping costs O(changes) instead of O(|E|) scans and
// copies.
//
// Nothing here is written to disk. The sweep is a small share of a coarse
// run, and a resume would rerun the whole build, so an interrupted coarse
// run reruns from scratch and gives the same dendrogram (DESIGN.md §11).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/dendrogram.hpp"
#include "core/edge_index.hpp"
#include "core/similarity.hpp"
#include "core/sweep.hpp"
#include "graph/graph.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/work_ledger.hpp"

namespace lc {
class RunContext;  // util/run_context.hpp
}

namespace lc::core {

class Checkpointer;        // core/checkpoint.hpp
struct SpanningForest;     // core/forest.hpp
class BucketSweepSource;   // core/sweep_source.hpp

struct CoarseOptions {
  double gamma = 2.0;        ///< max cluster-count ratio between levels
  std::size_t phi = 100;     ///< stop when this few clusters remain (C3)
  std::uint64_t delta0 = 1000;  ///< initial chunk size (incident pairs)
  double eta0 = 8.0;         ///< initial head-mode growth factor
  std::size_t rollback_capacity = 64;   ///< max saved states on L_rollback
  std::size_t max_rollbacks_per_level = 30;  ///< give-up guard (then accept)
};

enum class EpochKind : std::uint8_t {
  kHeadFresh,  ///< accepted level in head mode, freshly computed
  kTailFresh,  ///< accepted level in tail mode, freshly computed
  kRollback,   ///< chunk rejected, state saved, returned to Q*
  kReused,     ///< level formed by jumping to a saved rollback state
};

struct EpochRecord {
  EpochKind kind = EpochKind::kHeadFresh;
  std::uint64_t chunk_size = 0;    ///< delta in effect for this epoch
  std::size_t beta_before = 0;     ///< clusters at the previous level
  std::size_t beta_after = 0;      ///< clusters at this epoch's boundary
  std::uint64_t pairs_end = 0;     ///< xi after the epoch
};

struct CoarseLevel {
  std::uint32_t level = 0;
  std::size_t clusters = 0;        ///< beta at this level
  std::uint64_t pairs_processed = 0;  ///< xi when the level was accepted
  double threshold_score = 0.0;    ///< similarity of the last entry consumed
};

struct CoarseResult {
  Dendrogram dendrogram;              ///< one level per accepted epoch
  std::vector<EpochRecord> epochs;
  std::vector<CoarseLevel> levels;
  std::vector<EdgeIdx> final_labels;  ///< labels at the last accepted level
  SweepStats stats;
  std::uint64_t pairs_total = 0;      ///< K2 (all incident pairs of L's keys)
  std::uint64_t pairs_processed = 0;  ///< xi at termination
  std::size_t rollback_count = 0;
  std::size_t reuse_count = 0;
  std::size_t soundness_violations = 0;  ///< levels accepted with ratio > gamma
                                          ///< (unsplittable single entries)
};

/// The production coarse sweep over `source`, the descending-score view of
/// the list L that spanning_forest() staged beside `forest`; each chunk
/// unites the forest pairs whose key lies in it. The phi stop means a lazy
/// source never sorts the tail of L — the two speedups compound. `ledger`
/// (optional) records the sweep's serial work. `ctx` (optional, not owned)
/// is polled at chunk granularity and charged for the parent array, per-chunk
/// merge journals, and the compact saved rollback states; a pending stop
/// unwinds via lc::StoppedError. Null has zero effect on the result.
CoarseResult coarse_sweep(const graph::WeightedGraph& graph, const SpanningForest& forest,
                          BucketSweepSource& source, const EdgeIndex& index,
                          const CoarseOptions& options = {},
                          sim::WorkLedger* ledger = nullptr,
                          lc::RunContext* ctx = nullptr);

/// The reference coarse sweep over `source`, the descending-score view of
/// `map`'s entries: each chunk unites all its incident pairs. Only its
/// SweepStats, which count the pairs applied, differ from the production
/// sweep's. `pool` is unused, and `checkpointer` and `resume` must be null
/// (LC_CHECK): all three stay only for bench/suite/trace.cpp's call.
CoarseResult coarse_sweep(const graph::WeightedGraph& graph, const SimilarityMap& map,
                          BucketSweepSource& source, const EdgeIndex& index,
                          const CoarseOptions& options = {},
                          parallel::ThreadPool* pool = nullptr,
                          sim::WorkLedger* ledger = nullptr,
                          lc::RunContext* ctx = nullptr,
                          Checkpointer* checkpointer = nullptr,
                          std::nullptr_t resume = nullptr);

}  // namespace lc::core
