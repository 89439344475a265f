// Fixed-size thread pool.
//
// The paper's parallelization (§VI) launches T workers per pass and joins
// them; we keep a persistent pool so the benches don't pay thread start-up in
// every measured region. Tasks are plain std::function<void()>; run_batch()
// is the primitive every parallel pass uses (submit T tasks, wait for all).
//
// Task assignment is static: worker w runs tasks w, w + W, w + 2W, ... of the
// batch, so a batch costs each worker one wake-up/completion lock round
// instead of a mutex acquisition per task. Parallel passes submit
// near-uniform tasks (one per worker), so dynamic stealing would buy nothing
// and the shared-queue contention it needs is exactly what the profile showed
// dominating small batches.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lc::parallel {

/// The widest pool a request from outside (a CLI flag, a serve run line) may
/// ask for; those boundaries reject wider requests before any pool exists.
inline constexpr std::size_t kMaxThreads = 256;

class ThreadPool {
 public:
  /// Spawns `thread_count` workers (>= 1).
  explicit ThreadPool(std::size_t thread_count);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const { return count_; }

  /// Runs all tasks on the pool and blocks until every one has finished or
  /// the batch failed. Worker w executes tasks w, w + W, ... in index order.
  ///
  /// If a task throws, the first exception is captured, the rest of the
  /// batch is cancelled (workers finish the task they are in, then skip
  /// their remaining assignments), and the exception is rethrown here on the
  /// calling thread once every worker has drained. Which exception is
  /// "first" when several tasks throw concurrently is unspecified; the rest
  /// are discarded. The pool itself stays healthy: the next run_batch starts
  /// from a clean slate. This is what lets cooperative cancellation
  /// (util/run_context.hpp) and worker failures unwind a parallel phase
  /// instead of calling std::terminate.
  void run_batch(const std::vector<std::function<void()>>& tasks);

 private:
  void worker_loop(std::size_t worker_id);

  std::size_t count_ = 0;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable batch_done_;
  // All batch state is guarded by mutex_; workers only take the lock twice
  // per batch (once to observe it, once to report completion).
  const std::vector<std::function<void()>>* tasks_ = nullptr;
  std::uint64_t batch_id_ = 0;
  std::size_t remaining_ = 0;
  bool shutdown_ = false;
  // First exception thrown by a task of the current batch (guarded by
  // mutex_); batch_abort_ is the lock-free "skip the rest" signal workers
  // read before each task — advisory, so relaxed ordering suffices.
  std::exception_ptr batch_error_;
  std::atomic<bool> batch_abort_{false};
};

/// Splits [0, n) into `parts` contiguous ranges of near-equal size.
/// Returns part boundaries: result[i]..result[i+1] is part i. Some trailing
/// parts may be empty when n < parts.
std::vector<std::size_t> split_range(std::size_t n, std::size_t parts);

/// Cuts [0, n) into `parts` contiguous ranges balanced by weight_of(i)
/// (monotone greedy against the prefix sum). Returns boundaries like
/// split_range.
template <typename WeightFn>
std::vector<std::size_t> balanced_split_range(std::size_t n, std::size_t parts,
                                              WeightFn weight_of) {
  std::vector<std::uint64_t> prefix(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) prefix[i + 1] = prefix[i] + weight_of(i);
  const std::uint64_t total = prefix[n];
  std::vector<std::size_t> bounds(parts + 1, 0);
  bounds[parts] = n;
  for (std::size_t p = 1; p < parts; ++p) {
    const std::uint64_t target = total / parts * p;
    const auto it = std::lower_bound(prefix.begin(), prefix.end(), target);
    std::size_t cut = static_cast<std::size_t>(it - prefix.begin());
    cut = std::clamp(cut, bounds[p - 1], n);
    bounds[p] = cut;
  }
  return bounds;
}

/// parallel_for: applies fn(begin, end) over a static block partition of
/// [0, n) using the pool (the caller's thread is not used). `min_grain > 0`
/// caps the number of blocks at n / min_grain so tiny ranges don't pay a
/// wake-up per worker for a handful of items each.
void parallel_for_blocks(ThreadPool& pool, std::size_t n,
                         const std::function<void(std::size_t, std::size_t)>& fn,
                         std::size_t min_grain = 0);

/// Worker count that is actually worth using for CPU-bound block work: the
/// pool width clamped to std::thread::hardware_concurrency(). Pools wider
/// than the machine (a T=8 run on a 2-core container) oversubscribe block
/// kernels such as the bucket scatter without changing any output, so the
/// extra width is pure loss. 0 from the runtime means "unknown": keep the
/// pool width.
inline std::size_t clamped_parallelism(const ThreadPool& pool) {
  const std::size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? pool.thread_count() : std::min(pool.thread_count(), hw);
}

}  // namespace lc::parallel
