// How the sorted pair list L reaches the sweeps.
//
// The coarse sweep (core/coarse.hpp) and the reference fine sweep
// (core/sweep.hpp) consume SimilarityMap entries strictly in
// descending-score order, by position. SweepSource is
// the seam between "produce that order" and "consume it": a source
// materializes entries *in place* in map.entries — position i of the source
// is position i of the fully sorted list — and guarantees that everything
// before ready_end() is already in final order. Keeping the storage in place
// is what preserves every invariant downstream: checkpoint positions
// (FineCheckpoint::entry_pos, CoarseCheckpoint::p) index the same list,
// map.pairs()/common() keep working (arena offsets travel with the entries),
// and a completed sweep leaves the map fully sorted.
//
// BucketSweepSource is the coarse mode's production source (LinkClusterer
// uses it at every thread count; fine mode builds no L and reads spanning
// forests instead, core/forest.hpp). One O(|L|) MSD-radix scatter pass partitions L into
// disjoint descending score-range buckets, keyed on the top bits of the
// flipped IEEE score key; each bucket is then sorted *just in time* as the
// sweep reaches it, with a single helper thread prefetch-sorting bucket k+1
// while the caller sweeps bucket k — sort latency hides behind sweep time
// instead of preceding it. Determinism argument (DESIGN.md §13): equal
// scores share a radix key, hence a bin, hence a bucket, so buckets are
// disjoint score ranges and the concatenation of independently sorted
// buckets under the score_order comparator — a strict total order — is the
// unique globally sorted permutation, for every bucket count and thread
// count. Runs that never reach the tail of L (the coarse phi stop, a
// reference sweep's min_similarity cut, a resume past early buckets) never
// pay to sort it:
// those buckets are counted in SweepSourceStats::buckets_skipped.
//
// SortedSweepSource wraps a map that sort_by_score() already ordered in
// full. It is the reference consumer for the baselines, the figure benches
// and the tests, and backs the sweep overloads that take no source.
#pragma once

#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "core/similarity.hpp"
#include "parallel/thread_pool.hpp"

namespace lc::core {

/// Where the bucketed source's time went. partition_ms + blocked_ms is the
/// sort-attributable critical-path cost (what replaces sort_ms); the rest of
/// bucket_sort_ms overlapped the sweep on the prefetch thread.
struct SweepSourceStats {
  double partition_ms = 0.0;    ///< O(|L|) histogram + stable bucket scatter
  double bucket_sort_ms = 0.0;  ///< sum of intra-bucket sorts, both threads
  double blocked_ms = 0.0;      ///< caller-thread stalls waiting on a sort
  std::uint64_t bucket_count = 0;
  std::uint64_t buckets_sorted = 0;
  std::uint64_t buckets_skipped = 0;  ///< never sorted (past a stop, or pre-resume)
};

/// Entries-in-descending-score-order, by position. The accessors are
/// non-virtual and cost one branch once a position is ready, so the sweeps'
/// hot loops stay flat; only crossing into unmaterialized territory pays a
/// (possibly sorting) virtual call.
class SweepSource {
 public:
  virtual ~SweepSource() = default;
  SweepSource(const SweepSource&) = delete;
  SweepSource& operator=(const SweepSource&) = delete;

  [[nodiscard]] std::size_t size() const { return size_; }

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

  /// Quiesces any in-flight background sort and reports the tally.
  [[nodiscard]] virtual SweepSourceStats stats() = 0;

 protected:
  SweepSource(const SimilarityEntry* data, std::size_t size, std::size_t ready_end)
      : data_(data), size_(size), ready_end_(ready_end) {}

  /// Extends the ready prefix to cover position i (i < size()).
  virtual void materialize(std::size_t i) = 0;

  const SimilarityEntry* data_;
  std::size_t size_;
  std::size_t ready_end_;
};

/// The map was fully sorted up front (sort_by_score()). The constructor
/// asserts descending score order.
class SortedSweepSource final : public SweepSource {
 public:
  explicit SortedSweepSource(const SimilarityMap& map);
  [[nodiscard]] SweepSourceStats stats() override { return SweepSourceStats{}; }

 private:
  void materialize(std::size_t i) override;
};

/// Bucketed lazy sort, the production source (see the header comment). The map is
/// mutated: construction permutes entries into bucket order, and each
/// bucket's slice is sorted in place on first touch. Positions at or past
/// the first requested position always read final sorted order; buckets
/// wholly before it (a checkpoint resume) are skipped, their order
/// unspecified and never read by a position-monotone consumer.
class BucketSweepSource final : public SweepSource {
 public:
  struct Options {
    /// Disjoint score-range bucket target; 0 = an auto size (~|L| / 16Ki,
    /// clamped to [8, 256]). The realized count can be lower: a bucket never
    /// splits a radix bin, so heavily tied score distributions yield fewer,
    /// larger buckets. Any value produces the identical consumed order.
    std::size_t bucket_count = 0;
    /// Parallelizes the scatter pass (not owned, may be null). Never used
    /// after construction: bucket sorts run on the caller and the prefetch
    /// thread only.
    parallel::ThreadPool* pool = nullptr;
  };

  explicit BucketSweepSource(SimilarityMap& map) : BucketSweepSource(map, Options{}) {}
  BucketSweepSource(SimilarityMap& map, const Options& options);
  ~BucketSweepSource() override;

  [[nodiscard]] SweepSourceStats stats() override;
  [[nodiscard]] std::size_t bucket_count() const {
    return bounds_.size() < 2 ? 0 : bounds_.size() - 1;
  }

 private:
  void materialize(std::size_t i) override;
  void sort_bucket(std::size_t bucket);
  void ensure_sorted(std::size_t bucket);
  void maybe_prefetch();
  void prefetch_loop();

  static constexpr std::size_t kNoTask = static_cast<std::size_t>(-1);

  SimilarityMap& map_;
  std::vector<std::size_t> bounds_;  ///< bucket b = positions [bounds_[b], bounds_[b+1])
  std::size_t next_bucket_ = 0;      ///< first bucket not yet ready
  bool pipeline_ = false;
  /// True when the map held build order (packed keys ascending) before the
  /// scatter: then in-bucket ties sit (u, v)-ascending and the bucket sort
  /// may use the stable radix fast path.
  bool radix_ok_ = false;
  /// Double buffer for the radix bucket sort, grown to the largest bucket.
  /// Shared between the caller and the prefetcher, but never concurrently:
  /// a synchronous sort only starts after any pending prefetch task was
  /// consumed under mutex_, and the prefetcher only starts a task issued
  /// after that consumption — the lock handoffs order every access.
  std::vector<SimilarityEntry> scratch_;

  // Helper-thread handoff. task_ holds the bucket handed to the prefetcher
  // until the caller consumes the result; a task error is rethrown on the
  // caller at the handoff, so a fault in a background sort unwinds the sweep
  // exactly like a synchronous one.
  std::mutex mutex_;
  std::condition_variable task_ready_;
  std::condition_variable task_done_cv_;
  std::size_t task_ = kNoTask;
  bool task_done_ = false;
  bool shutdown_ = false;
  std::exception_ptr task_error_;
  std::thread prefetcher_;

  // Stats (guarded by mutex_; sorts themselves run unlocked).
  double partition_ms_ = 0.0;
  double bucket_sort_ms_ = 0.0;
  double blocked_ms_ = 0.0;
  std::uint64_t buckets_sorted_ = 0;
};

}  // namespace lc::core
