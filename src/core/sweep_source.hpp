// How the sorted pair list L reaches the sweeps.
//
// The coarse sweep (core/coarse.hpp) and the reference fine sweep
// (core/sweep.hpp) consume SimilarityMap entries strictly in
// descending-score order, by position. BucketSweepSource produces that
// order *in place* in map.entries — position i of the source is position i
// of the fully sorted list — and guarantees that everything before the
// ready prefix's end is already in final order. Keeping the storage in place
// is what preserves every invariant downstream: the reference sweep's
// checkpoint position (FineCheckpoint::entry_pos) indexes the same list,
// map.pairs()/common() keep working (arena offsets travel with the entries),
// and a completed sweep leaves the map fully sorted.
//
// Coarse mode reads L through it at every thread count (fine mode builds no
// L and reads spanning forests instead, core/forest.hpp); the reference
// sweeps read a map through it too, sorted by sort_by_score() or not. One
// O(|L|) MSD-radix scatter pass partitions L into disjoint descending
// score-range buckets, keyed on the top bits of the flipped IEEE score key;
// each bucket is then sorted on the caller's thread the first time the sweep
// reads a position in it. Determinism argument (DESIGN.md §13): equal scores
// share a radix key, hence a bin, hence a bucket, so buckets are disjoint
// score ranges and the concatenation of independently sorted buckets under
// the score_order comparator — a strict total order — is the unique globally
// sorted permutation, for every thread count. Runs that never reach the tail
// of L (the coarse phi stop, a reference sweep's min_similarity cut, a
// resume past early buckets) never pay to sort it: those buckets are counted
// in SweepSourceStats::buckets_skipped.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/similarity.hpp"
#include "parallel/thread_pool.hpp"

namespace lc::core {

/// Where the source's time went: partition_ms + bucket_sort_ms is its whole
/// cost, and all of it lies on the caller's critical path.
struct SweepSourceStats {
  double partition_ms = 0.0;    ///< O(|L|) histogram + stable bucket scatter
  double bucket_sort_ms = 0.0;  ///< sum of intra-bucket sorts
  double blocked_ms = 0.0;      ///< caller time spent sorting; == bucket_sort_ms
  std::uint64_t bucket_count = 0;
  std::uint64_t buckets_sorted = 0;
  std::uint64_t buckets_skipped = 0;  ///< never sorted (past a stop, or pre-resume)
};

/// Bucketed lazy sort of a map's entries (see the header comment). The map
/// is mutated: construction permutes entries into bucket order, and each
/// bucket's slice is sorted in place on first touch. Positions at or past
/// the first requested position always read final sorted order; buckets
/// wholly before it (a checkpoint resume) are skipped, their order
/// unspecified and never read by a position-monotone consumer. The
/// accessors cost one branch once a position is ready, so the sweeps' hot
/// loops stay flat.
class BucketSweepSource {
 public:
  struct Options {
    /// Parallelizes the scatter pass (not owned, may be null). Never used
    /// after construction: bucket sorts run on the caller.
    parallel::ThreadPool* pool = nullptr;
  };

  explicit BucketSweepSource(SimilarityMap& map) : BucketSweepSource(map, Options{}) {}
  BucketSweepSource(SimilarityMap& map, const Options& options);
  BucketSweepSource(const BucketSweepSource&) = delete;
  BucketSweepSource& operator=(const BucketSweepSource&) = delete;

  [[nodiscard]] std::size_t size() const { return map_.entries.size(); }

  /// Entry at sorted position i (i < size()). May sort on first touch.
  const SimilarityEntry& at(std::size_t i) {
    if (i >= ready_end_) materialize(i);
    return data_[i];
  }

  /// The maximal ready span starting at sorted position i (i < size()):
  /// every returned entry is in final order. Lets the fine sweep hoist the
  /// readiness branch out of its per-entry loop.
  std::span<const SimilarityEntry> window(std::size_t i) {
    if (i >= ready_end_) materialize(i);
    return {data_ + i, ready_end_ - i};
  }

  [[nodiscard]] SweepSourceStats stats() const;
  [[nodiscard]] std::size_t bucket_count() const {
    return bounds_.size() < 2 ? 0 : bounds_.size() - 1;
  }

 private:
  /// Sorts buckets until the ready prefix covers position i (i < size()).
  void materialize(std::size_t i);
  void sort_bucket(std::size_t bucket);

  SimilarityMap& map_;
  /// map_.entries.data(), fixed once the scatter has replaced the storage.
  const SimilarityEntry* data_ = nullptr;
  std::vector<std::size_t> bounds_;  ///< bucket b = positions [bounds_[b], bounds_[b+1])
  std::size_t ready_end_ = 0;        ///< positions before it are in final order
  std::size_t next_bucket_ = 0;      ///< first bucket not yet ready
  /// True when the map held build order (packed keys ascending) before the
  /// scatter: then in-bucket ties sit (u, v)-ascending and the bucket sort
  /// may use the stable radix fast path.
  bool radix_ok_ = false;
  /// Double buffer for the radix bucket sort, grown to the largest bucket.
  std::vector<SimilarityEntry> scratch_;

  double partition_ms_ = 0.0;
  double bucket_sort_ms_ = 0.0;
  std::uint64_t buckets_sorted_ = 0;
};

}  // namespace lc::core
