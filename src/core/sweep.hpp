// Phase II of the serial algorithm (Algorithm 2): fine-grained sweeping,
// the reference sweep.
//
// The sorted list L of vertex pairs is processed head to tail; for every
// common neighbor v_k of a pair (v_i, v_j), MERGE unifies the clusters of
// edges (v_i, v_k) and (v_j, v_k) in array C. Every effective merge advances
// the level counter r and emits a dendrogram event (Eq. 5).
//
// LinkClusterer's fine mode does not run this: it merges only the pairs of
// one maximum spanning forest per common neighbor (core/forest.hpp), which
// yields the identical merge list from at most 2|E| of the K2 pairs. This
// sweep is the oracle it is checked against (tests/core/forest_sweep_test),
// and what the paper-figure benches and the benchmark's trace rounds run to
// count C traffic per pair.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>

#include "core/dendrogram.hpp"
#include "core/edge_index.hpp"
#include "core/similarity.hpp"
#include "graph/graph.hpp"

namespace lc {
class RunContext;  // util/run_context.hpp
}

namespace lc::core {

class BucketSweepSource;  // core/sweep_source.hpp
class Checkpointer;       // core/checkpoint.hpp
struct FineCheckpoint;    // core/checkpoint.hpp

/// Work counters of a sweep. The C-traffic pair is defined per sweep:
///   - reference fine sweep (Algorithm 2 over ClusterArray, this header):
///     c_accesses counts the chain elements MERGE visits (Theorem 2),
///     c_changes the C entries it rewrites (Fig. 2(1)).
///   - production fine mode (core/forest.hpp): pairs_processed counts the
///     spanning-forest pairs visited, Σ_k (d_k − 1) on a full run. As in
///     coarse mode, each visited pair reads two slots and each union writes
///     one: c_accesses = 2 * pairs + unions and c_changes = unions.
///   - coarse (core/coarse.hpp): what the paper's array C would read and
///     write for the same merges. Each applied pair reads two slots (one per
///     edge), and each union (a cluster the chunk removes, one sorted
///     journal loser) writes one slot. So c_accesses = 2 * pairs + unions
///     and c_changes = unions, summed over every applied chunk and reuse
///     replay, rolled-back ones included. Both come from the chunk's pair
///     count and its union losers only, never from the DSU's path
///     compression. The production sweep applies a chunk's spanning-forest
///     pairs, the reference sweep all its incident pairs, so their counts
///     differ while their merges do not.
struct SweepStats {
  std::uint64_t pairs_processed = 0;  ///< incident edge pairs visited
  std::uint64_t merges_effective = 0; ///< dendrogram events (levels in fine mode)
  std::uint64_t c_accesses = 0;       ///< C slots read/visited (Theorem 2 metric)
  std::uint64_t c_changes = 0;        ///< C entries rewritten (Fig. 2(1) metric)
};

/// Optional per-pair instrumentation: called after each incident pair is
/// merged with the ordinal of the pair (0-based) and the number of C-entry
/// changes that merge caused. Drives the Fig. 2(1) bench.
using PairObserver = std::function<void(std::uint64_t ordinal, std::uint32_t changes)>;

struct SweepResult {
  Dendrogram dendrogram;
  std::vector<EdgeIdx> final_labels;  ///< canonical label per edge index
  SweepStats stats;
};

/// Runs the sweep over `source`, the descending-score view of `map`'s
/// entries (core/sweep_source.hpp — `map` itself supplies the pair arenas
/// and need not be pre-sorted; the source owns ordering). The edge index
/// supplies the paper's randomized edge enumeration. Entries with score <
/// `min_similarity` are never processed (an early-stop knob: the resulting
/// partition equals labels_at_threshold(min_similarity) of a full run, at a
/// fraction of the cost — the fine-grained cousin of the coarse mode's phi
/// stop; with a lazy source the cut-off tail is never even sorted).
///
/// `ctx` (optional, not owned) is polled at chunk granularity: a pending
/// cancellation / deadline unwinds the sweep via lc::StoppedError. Null has
/// zero effect on the result.
///
/// `checkpointer` (optional, not owned) is asked at every entry boundary and
/// given a FineCheckpoint (FineList::kPairs) when a snapshot is due;
/// `resume` (optional, not owned, a kPairs state) restarts the sweep from a
/// stored boundary. Both are output-neutral: any combination of checkpoint writes,
/// kills, and resumes yields the bitwise-identical SweepResult of one
/// uninterrupted run.
SweepResult sweep(const graph::WeightedGraph& graph, const SimilarityMap& map,
                  BucketSweepSource& source, const EdgeIndex& index,
                  const PairObserver& observer = {},
                  double min_similarity = -std::numeric_limits<double>::infinity(),
                  lc::RunContext* ctx = nullptr,
                  Checkpointer* checkpointer = nullptr,
                  const FineCheckpoint* resume = nullptr);

}  // namespace lc::core
