#include "core/sweep_source.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <utility>

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

/// Below this many entries the partition runs on the caller alone.
constexpr std::size_t kSerialCutoff = 4096;

std::size_t score_bin(const SimilarityEntry& entry) {
  return static_cast<std::size_t>(flipped_score_key(entry.score) >> kBinShift);
}

std::uint64_t packed_key(const SimilarityEntry& entry) {
  return (static_cast<std::uint64_t>(entry.u) << 32) | entry.v;
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

BucketSweepSource::BucketSweepSource(std::span<const std::span<const SimilarityEntry>> parts,
                                     const Options& options) {
  Stopwatch watch;
  std::size_t n = 0;
  for (const std::span<const SimilarityEntry> part : parts) n += part.size();
  bounds_ = {0};
  if (n == 0) return;

  // L cut into pieces of about n / width entries, in concatenation order:
  // each pass below runs one task per piece, on the pool when there is one.
  const std::size_t width = (options.pool == nullptr || n <= kSerialCutoff)
                                ? 1
                                : parallel::clamped_parallelism(*options.pool);
  const std::size_t grain = (n + width - 1) / width;
  std::vector<std::span<const SimilarityEntry>> pieces;
  for (const std::span<const SimilarityEntry> part : parts) {
    for (std::size_t i = 0; i < part.size(); i += grain) {
      pieces.push_back(part.subspan(i, std::min(grain, part.size() - i)));
    }
  }
  const auto for_each_piece = [&](const std::function<void(std::size_t)>& task) {
    if (width == 1) {
      for (std::size_t g = 0; g < pieces.size(); ++g) task(g);
      return;
    }
    std::vector<std::function<void()>> batch;
    for (std::size_t g = 0; g < pieces.size(); ++g) batch.push_back([&task, g] { task(g); });
    options.pool->run_batch(batch);
  };

  // Pass 1, one read of L: each piece's histogram over the top flipped-key
  // bits, and whether it continues L in ascending packed key (build order;
  // no key is 0, since u < v).
  std::vector<std::vector<std::size_t>> piece_hist(pieces.size(),
                                                   std::vector<std::size_t>(kBinCount, 0));
  std::vector<char> ascending(pieces.size(), 1);
  for_each_piece([&](std::size_t g) {
    std::uint64_t prev = g == 0 ? 0 : packed_key(pieces[g - 1].back());
    for (const SimilarityEntry& entry : pieces[g]) {
      ++piece_hist[g][score_bin(entry)];
      const std::uint64_t key = packed_key(entry);
      if (key <= prev) ascending[g] = 0;
      prev = key;
    }
  });
  radix_ok_ = std::find(ascending.begin(), ascending.end(), 0) == ascending.end();
  std::vector<std::size_t> histogram(kBinCount, 0);
  for (const std::vector<std::size_t>& h : piece_hist) {
    for (std::size_t bin = 0; bin < kBinCount; ++bin) histogram[bin] += h[bin];
  }

  // Greedy grouping of contiguous bins (ascending key = descending score)
  // into <= bucket_target(n) near-balanced buckets. Depends only on scores —
  // never on thread count or parts — so bucket boundaries are deterministic
  // coordinates into L.
  const std::size_t target_fill = (n + bucket_target(n) - 1) / bucket_target(n);
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

  // Each piece's bucket counts follow from its bin histogram. An exclusive
  // scan in (bucket, piece) order turns them into the pieces' write
  // cursors, and its per-bucket running totals are the bucket boundaries.
  std::vector<std::vector<std::size_t>> cursor(pieces.size(),
                                               std::vector<std::size_t>(bucket + 1, 0));
  for (std::size_t g = 0; g < pieces.size(); ++g) {
    for (std::size_t bin = 0; bin < kBinCount; ++bin) {
      cursor[g][bin_bucket[bin]] += piece_hist[g][bin];
    }
  }
  bounds_.assign(bucket + 2, 0);
  std::size_t running = 0;
  for (std::size_t b = 0; b <= bucket; ++b) {
    bounds_[b] = running;
    for (std::vector<std::size_t>& c : cursor) running += std::exchange(c[b], running);
  }
  bounds_[bucket + 1] = running;

  // Pass 2: the stable scatter into the source's own buffer. Pieces write
  // disjoint slots, and piece order plus in-piece order are kept within
  // every bucket, so the layout is the same for every pool and every cut of
  // L into parts.
  entries_.resize(n);
  for_each_piece([&](std::size_t g) {
    std::vector<std::size_t>& offsets = cursor[g];
    for (const SimilarityEntry& entry : pieces[g]) {
      entries_[offsets[bin_bucket[score_bin(entry)]]++] = entry;
    }
  });
  partition_ms_ = watch.seconds() * 1e3;
}

void BucketSweepSource::sort_bucket(std::size_t bucket) {
  fault::maybe_fire("sweep.bucket");
  SimilarityEntry* const first = entries_.data() + bounds_[bucket];
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
