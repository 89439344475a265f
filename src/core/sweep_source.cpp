#include "core/sweep_source.hpp"

#include <algorithm>
#include <array>
#include <cstdint>

#include "util/check.hpp"
#include "util/fault_inject.hpp"
#include "util/stopwatch.hpp"

namespace lc::core {
namespace {

// Buckets never split a radix bin, so equal scores (equal flipped keys) can
// never straddle a bucket boundary — the invariant that makes concatenated
// per-bucket sorts equal the global sort.
constexpr unsigned kBinShift = 48;        // top 16 bits of the flipped key
constexpr std::size_t kBinCount = 1u << 16;

std::size_t score_bin(const SimilarityEntry& entry) {
  return static_cast<std::size_t>(flipped_score_key(entry.score) >> kBinShift);
}

/// The bucket target, sized so buckets hold ~16Ki entries: large enough that
/// scatter bookkeeping is noise, small enough that the first bucket sorts in
/// a fraction of a global sort. The realized count can be lower: a bucket
/// never splits a radix bin, so heavily tied score distributions yield
/// fewer, larger buckets.
std::size_t bucket_target(std::size_t n) {
  return std::clamp<std::size_t>(n >> 14, 8, 256);
}

}  // namespace

BucketSweepSource::BucketSweepSource(SimilarityMap& map, const Options& options)
    : map_(map), data_(map.entries.data()) {
  const std::size_t n = map_.entries.size();
  Stopwatch watch;
  if (n == 0) {
    bounds_ = {0};
    return;
  }
  const std::size_t target_buckets = bucket_target(n);
  radix_ok_ = map_.keys_sorted();

  // Bin histogram on the top flipped-key bits (one linear read of L),
  // pool-parallel when a multi-core pool is available.
  std::vector<std::size_t> histogram(kBinCount, 0);
  const std::size_t parts =
      (options.pool == nullptr || n <= 4096)
          ? 1
          : parallel::clamped_parallelism(*options.pool);
  if (parts <= 1) {
    for (const SimilarityEntry& entry : map_.entries) ++histogram[score_bin(entry)];
  } else {
    const std::vector<std::size_t> blocks = parallel::split_range(n, parts);
    std::vector<std::vector<std::size_t>> block_hist(
        parts, std::vector<std::size_t>(kBinCount, 0));
    std::vector<std::function<void()>> tasks;
    for (std::size_t b = 0; b < parts; ++b) {
      tasks.push_back([&, b] {
        std::vector<std::size_t>& h = block_hist[b];
        for (std::size_t i = blocks[b]; i < blocks[b + 1]; ++i) {
          ++h[score_bin(map_.entries[i])];
        }
      });
    }
    options.pool->run_batch(tasks);
    for (std::size_t b = 0; b < parts; ++b) {
      for (std::size_t d = 0; d < kBinCount; ++d) histogram[d] += block_hist[b][d];
    }
  }

  // Greedy grouping of contiguous bins (ascending key = descending score)
  // into <= target_buckets near-balanced buckets. Depends only on scores —
  // never on thread count — so bucket boundaries are deterministic
  // coordinates into L.
  const std::size_t target_fill = (n + target_buckets - 1) / target_buckets;
  std::vector<std::uint32_t> bin_bucket(kBinCount, 0);
  std::size_t open_fill = 0;
  std::size_t total = 0;
  std::uint32_t bucket = 0;
  for (std::size_t bin = 0; bin < kBinCount; ++bin) {
    bin_bucket[bin] = bucket;
    open_fill += histogram[bin];
    total += histogram[bin];
    if (open_fill >= target_fill && total < n) {
      ++bucket;
      open_fill = 0;
    }
  }
  const std::size_t bucket_total = static_cast<std::size_t>(bucket) + 1;

  // Stable scatter into bucket order (one counting-sort pass); bounds_ are
  // the realized bucket boundaries.
  bounds_ = parallel::parallel_bucket_scatter(
      options.pool, map_.entries, bucket_total,
      [&bin_bucket](const SimilarityEntry& entry) {
        return static_cast<std::size_t>(bin_bucket[score_bin(entry)]);
      });
  // The scatter's double buffer replaced the entries storage, and the
  // entries are no longer in the build's packed-key order.
  data_ = map_.entries.data();
  map_.set_keys_sorted(false);
  partition_ms_ = watch.seconds() * 1e3;
}

void BucketSweepSource::sort_bucket(std::size_t bucket) {
  fault::maybe_fire("sweep.bucket");
  SimilarityEntry* const first = map_.entries.data() + bounds_[bucket];
  const std::size_t n = bounds_[bucket + 1] - bounds_[bucket];
  if (!radix_ok_ || n <= 4096 || n > UINT32_MAX) {
    // Comparator fallback: always correct (score_order is a strict total
    // order), just without the stable-tie shortcut the radix path needs.
    std::sort(first, first + n, score_order);
    return;
  }
  // Cache-resident LSD radix on the flipped key — this is where bucketing
  // beats the global sort at T=1: each pass scatters within one bucket
  // (L2-sized) instead of across all of L (DRAM-sized), and in-bucket ties
  // arrive (u, v)-ascending (radix_ok_), so stability realizes score_order.
  // All eight digit histograms come from a single read pass; a pass whose
  // digit is constant across the bucket (common in the top bytes — a bucket
  // spans a narrow key range) moves nothing and is skipped.
  std::array<std::array<std::uint32_t, 256>, 8> hist{};
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t key = flipped_score_key(first[i].score);
    for (unsigned d = 0; d < 8; ++d) ++hist[d][(key >> (d * 8)) & 0xFFu];
  }
  if (scratch_.size() < n) scratch_.resize(n);
  SimilarityEntry* src = first;
  SimilarityEntry* dst = scratch_.data();
  for (unsigned d = 0; d < 8; ++d) {
    std::array<std::uint32_t, 256>& offsets = hist[d];
    bool trivial = false;
    std::uint32_t running = 0;
    for (std::size_t v = 0; v < 256; ++v) {
      const std::uint32_t count = offsets[v];
      if (count == n) {
        trivial = true;
        break;
      }
      offsets[v] = running;
      running += count;
    }
    if (trivial) continue;
    const unsigned shift = d * 8;
    for (std::size_t i = 0; i < n; ++i) {
      dst[offsets[(flipped_score_key(src[i].score) >> shift) & 0xFFu]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != first) std::copy(src, src + n, first);
}

void BucketSweepSource::materialize(std::size_t i) {
  LC_CHECK_MSG(i < size(), "sweep source position out of range");
  while (ready_end_ <= i) {
    const std::size_t bucket = next_bucket_;
    // A bucket wholly before the first requested position (a checkpoint
    // resume) is never read, so its sort is skipped — bucket boundaries
    // depend only on scores, so later positions are unaffected.
    if (bounds_[bucket + 1] > i) {
      Stopwatch watch;
      sort_bucket(bucket);  // may throw (fault injection): unwinds the sweep
      bucket_sort_ms_ += watch.seconds() * 1e3;
      ++buckets_sorted_;
    }
    ready_end_ = bounds_[bucket + 1];
    next_bucket_ = bucket + 1;
  }
}

SweepSourceStats BucketSweepSource::stats() const {
  SweepSourceStats stats;
  stats.partition_ms = partition_ms_;
  stats.bucket_sort_ms = bucket_sort_ms_;
  stats.blocked_ms = bucket_sort_ms_;
  stats.bucket_count = bucket_count();
  stats.buckets_sorted = buckets_sorted_;
  stats.buckets_skipped = stats.bucket_count - stats.buckets_sorted;
  return stats;
}

}  // namespace lc::core
