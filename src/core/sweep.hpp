// The reference sweeps (lc_reference): Algorithm 2, the paper's
// fine-grained sweep over array C, and the §V coarse sweep over every
// incident pair of L.
//
// The sorted list L of vertex pairs is processed head to tail; for every
// common neighbor v_k of a pair (v_i, v_j), MERGE unifies the clusters of
// edges (v_i, v_k) and (v_j, v_k) in array C. Every effective merge advances
// the level counter r and emits a dendrogram event (Eq. 5).
//
// LinkClusterer runs neither: its sweeps read one maximum spanning forest
// per common neighbor (core/forest.hpp), with the identical merges. These
// are the oracles it is checked against, and what the benches that count C
// traffic per pair run. The reference coarse sweep runs the production mode
// machine (core/coarse.hpp) on every incident pair of each chunk.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>

#include "core/coarse.hpp"
#include "core/edge_index.hpp"
#include "core/forest.hpp"
#include "core/similarity.hpp"
#include "graph/graph.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/work_ledger.hpp"

namespace lc {
class RunContext;  // util/run_context.hpp
}

namespace lc::core {

class BucketSweepSource;  // core/sweep_source.hpp
class Checkpointer;       // core/checkpoint.hpp
struct FineCheckpoint;    // core/checkpoint.hpp

/// Optional per-pair instrumentation: called after each incident pair is
/// merged with the ordinal of the pair (0-based) and the number of C-entry
/// changes that merge caused. Drives the Fig. 2(1) bench.
using PairObserver = std::function<void(std::uint64_t ordinal, std::uint32_t changes)>;

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
