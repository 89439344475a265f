#include "parallel/thread_pool.hpp"

#include "util/check.hpp"

namespace lc::parallel {

ThreadPool::ThreadPool(std::size_t thread_count) : count_(thread_count) {
  LC_CHECK_MSG(thread_count >= 1, "a thread pool needs at least one worker");
  workers_.reserve(thread_count);
  for (std::size_t i = 0; i < thread_count; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::run_batch(const std::vector<std::function<void()>>& tasks) {
  if (tasks.empty()) return;
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    LC_CHECK_MSG(tasks_ == nullptr, "run_batch is not reentrant");
    tasks_ = &tasks;
    remaining_ = tasks.size();
    batch_error_ = nullptr;
    batch_abort_.store(false, std::memory_order_relaxed);
    ++batch_id_;
    work_ready_.notify_all();
    batch_done_.wait(lock, [this] { return remaining_ == 0; });
    tasks_ = nullptr;
    error = batch_error_;
    batch_error_ = nullptr;
  }
  // Rethrow outside the lock: the first task exception of the batch unwinds
  // on the calling thread, and the pool is already reset for the next batch.
  if (error) std::rethrow_exception(error);
}

void ThreadPool::worker_loop(std::size_t worker_id) {
  std::unique_lock<std::mutex> lock(mutex_);
  std::uint64_t seen_batch = 0;
  while (true) {
    work_ready_.wait(lock, [this, seen_batch] {
      return shutdown_ || batch_id_ != seen_batch;
    });
    if (shutdown_) return;
    seen_batch = batch_id_;
    // A worker that had no tasks in the previous batch can observe the id
    // bump only after that batch fully completed and was torn down.
    if (tasks_ == nullptr) continue;
    const std::vector<std::function<void()>>* tasks = tasks_;
    const std::size_t size = tasks->size();
    lock.unlock();
    // Static assignment: this worker owns indices worker_id, worker_id + W,
    // ... — no per-task lock traffic, and run_batch cannot return (so
    // `tasks` stays alive) until every owned index has run.
    std::size_t done = 0;
    for (std::size_t i = worker_id; i < size; i += count_) {
      // After a task failure anywhere in the batch, remaining assignments
      // are skipped (but still counted) so the batch drains quickly.
      if (!batch_abort_.load(std::memory_order_relaxed)) {
        try {
          (*tasks)[i]();
        } catch (...) {
          batch_abort_.store(true, std::memory_order_relaxed);
          std::lock_guard<std::mutex> error_lock(mutex_);
          if (!batch_error_) batch_error_ = std::current_exception();
        }
      }
      ++done;
    }
    lock.lock();
    if (done > 0) {
      remaining_ -= done;
      if (remaining_ == 0) batch_done_.notify_all();
    }
  }
}

std::vector<std::size_t> split_range(std::size_t n, std::size_t parts) {
  LC_CHECK_MSG(parts >= 1, "need at least one part");
  std::vector<std::size_t> bounds(parts + 1, 0);
  const std::size_t base = n / parts;
  const std::size_t extra = n % parts;
  for (std::size_t i = 0; i < parts; ++i) {
    bounds[i + 1] = bounds[i] + base + (i < extra ? 1 : 0);
  }
  LC_DCHECK(bounds.back() == n);
  return bounds;
}

void parallel_for_blocks(ThreadPool& pool, std::size_t n,
                         const std::function<void(std::size_t, std::size_t)>& fn,
                         std::size_t min_grain) {
  std::size_t parts = pool.thread_count();
  if (min_grain > 0) parts = std::clamp(n / min_grain, std::size_t{1}, parts);
  const std::vector<std::size_t> bounds = split_range(n, parts);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(parts);
  for (std::size_t t = 0; t < parts; ++t) {
    const std::size_t begin = bounds[t];
    const std::size_t end = bounds[t + 1];
    if (begin == end) continue;
    tasks.push_back([&fn, begin, end] { fn(begin, end); });
  }
  pool.run_batch(tasks);
}

void parallel_for_blocks_indexed(
    ThreadPool& pool, std::size_t n,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn,
    std::size_t min_grain) {
  std::size_t parts = pool.thread_count();
  if (min_grain > 0) parts = std::clamp(n / min_grain, std::size_t{1}, parts);
  const std::vector<std::size_t> bounds = split_range(n, parts);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(parts);
  for (std::size_t t = 0; t < parts; ++t) {
    const std::size_t begin = bounds[t];
    const std::size_t end = bounds[t + 1];
    if (begin == end) continue;
    tasks.push_back([&fn, t, begin, end] { fn(t, begin, end); });
  }
  pool.run_batch(tasks);
}

}  // namespace lc::parallel
