// How the sorted pair list L reaches the sweeps.
//
// The coarse sweep (core/coarse.hpp) and the reference sweeps
// (core/sweep.hpp) consume L strictly in descending-score order, by
// position. BucketSweepSource owns that order: it is built from L given in
// parts — coarse mode's per-block staged keys (ScoreTriangles::list), or a
// reference map's entries as one part — and copies them once into its own
// buffer, so the caller may free the parts as soon as it is built. Position
// i of the source is position i of the fully sorted list, and everything
// before the ready prefix's end is already in final order.
//
// The copy is one O(|L|) MSD-radix scatter pass that partitions L into
// disjoint descending score-range buckets, keyed on the top bits of the
// flipped IEEE score key; each bucket is sorted on the caller's thread the
// first time the sweep reads a position in it. Equal scores share a bin,
// hence a bucket, so the concatenation of independently sorted buckets under
// score_order — a strict total order — is the unique globally sorted
// permutation, for every thread count and every cut of L into parts
// (DESIGN.md §13).
// Runs that never reach the tail of L (the coarse phi stop, a reference
// sweep's min_similarity cut, a resume past early buckets) never pay to
// sort it: those buckets are counted in SweepSourceStats::buckets_skipped.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/score_triangles.hpp"
#include "parallel/thread_pool.hpp"

namespace lc::core {

class SimilarityMap;  // core/similarity.hpp

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

/// Bucketed lazy sort of L (see the header comment). Construction scatters
/// the parts into bucket order in the source's own buffer, and each bucket is
/// sorted in place on first touch. Positions at or past the first requested
/// position always read final sorted order; buckets wholly before it (a
/// checkpoint resume) are skipped, their order unspecified and never read by
/// a position-monotone consumer. The accessors cost one branch once a
/// position is ready, so the sweeps' hot loops stay flat.
class BucketSweepSource {
 public:
  struct Options {
    /// Parallelizes the scatter pass (not owned, may be null). Never used
    /// after construction: bucket sorts run on the caller.
    parallel::ThreadPool* pool = nullptr;
  };

  /// L as the concatenation of `parts`, which are only read here.
  BucketSweepSource(std::span<const std::span<const SimilarityEntry>> parts,
                    const Options& options);
  /// L as the entries of `map`, which stays as it is; the entries keep their
  /// arena offsets, so map.pairs() reads the pairs of any source entry.
  /// Reference callers only (lc_reference).
  explicit BucketSweepSource(const SimilarityMap& map) : BucketSweepSource(map, Options{}) {}
  BucketSweepSource(const SimilarityMap& map, const Options& options);
  BucketSweepSource(const BucketSweepSource&) = delete;
  BucketSweepSource& operator=(const BucketSweepSource&) = delete;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Entry at sorted position i (i < size()). May sort on first touch.
  const SimilarityEntry& at(std::size_t i) {
    if (i >= ready_end_) materialize(i);
    return entries_[i];
  }

  /// The maximal ready span starting at sorted position i (i < size()):
  /// every returned entry is in final order. Lets the fine sweep hoist the
  /// readiness branch out of its per-entry loop.
  std::span<const SimilarityEntry> window(std::size_t i) {
    if (i >= ready_end_) materialize(i);
    return {entries_.data() + i, ready_end_ - i};
  }

  [[nodiscard]] SweepSourceStats stats() const;
  [[nodiscard]] std::size_t bucket_count() const {
    return bounds_.size() < 2 ? 0 : bounds_.size() - 1;
  }

 private:
  /// Sorts buckets until the ready prefix covers position i (i < size()).
  void materialize(std::size_t i);
  void sort_bucket(std::size_t bucket);

  /// L in bucket order; bucket b's slice is sorted once it is ready.
  std::vector<SimilarityEntry, DefaultInitAllocator<SimilarityEntry>> entries_;
  std::vector<std::size_t> bounds_;  ///< bucket b = positions [bounds_[b], bounds_[b+1])
  std::size_t ready_end_ = 0;        ///< positions before it are in final order
  std::size_t next_bucket_ = 0;      ///< first bucket not yet ready
  /// True when the parts concatenated to packed-key (build) order: then
  /// in-bucket ties sit (u, v)-ascending and the bucket sort may use the
  /// stable radix fast path.
  bool radix_ok_ = false;
  /// Double buffer for the radix bucket sort, grown to the largest bucket.
  std::vector<SimilarityEntry> scratch_;

  double partition_ms_ = 0.0;
  double bucket_sort_ms_ = 0.0;
  std::uint64_t buckets_sorted_ = 0;
};

}  // namespace lc::core
