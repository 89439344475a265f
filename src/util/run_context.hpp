// Cooperative run control: cancellation, deadlines, and memory budgets.
//
// A RunContext is created by whoever starts a run (the CLI, a test, an
// embedding service), wired through LinkClusterer::Config, and checked at
// *chunk* granularity inside every long phase — similarity-map build passes,
// the fine sweep, the coarse sweep, and the O(|E|^2) baseline. A stop request
// therefore takes effect within one chunk of work, not at the end of the run.
//
// Stop causes (first one wins; later ones are ignored):
//   - request_cancel()            -> kCancelled
//   - deadline passed at a poll   -> kDeadlineExceeded
//   - memory charge over budget   -> kResourceExhausted
//
// Check sites call throw_if_stopped(), which throws StoppedError; the
// ThreadPool rethrows a worker's exception on the batch caller, and
// LinkClusterer::run converts the unwound exception into a Status. With no
// deadline, budget, or cancel request armed, every check is a relaxed atomic
// load — results are bitwise-identical to a context-free run.
//
// Memory budgets account *major allocations* (similarity staging and CSR
// arenas, the coarse sweep's shared parent array, merge journals and compact
// rollback snapshots, baseline matrices) — an intentional high-water model of
// the structures that scale with the input, not a malloc interposer.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

#include "util/status.hpp"

namespace lc {

class RunContext {
 public:
  RunContext() = default;
  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  // --- configuration: set before the run starts (not thread-safe) ---

  /// Arms a deadline `budget` from now. Zero or negative trips on the first
  /// poll. Checked at poll() sites, so resolution is one chunk of work.
  void set_deadline_after(std::chrono::nanoseconds budget) {
    deadline_ = std::chrono::steady_clock::now() + budget;
  }

  /// Caps charged major-allocation bytes. 0 = unlimited (the default).
  void set_memory_budget(std::uint64_t bytes) { memory_budget_ = bytes; }

  // --- control: any thread, any time ---

  /// Requests a cooperative stop; the run unwinds at its next check site.
  void request_cancel(std::string message = "cancel requested");

  // --- checks ---

  /// True once any stop cause fired. A single relaxed-ish atomic load — safe
  /// in the hottest loop.
  [[nodiscard]] bool stop_requested() const {
    return stop_.load(std::memory_order_acquire);
  }

  /// Full check: evaluates the deadline (one clock read) and returns whether
  /// the run should stop. Called at chunk granularity.
  bool poll();

  /// poll(), then throw StoppedError carrying status() if a stop is pending.
  void throw_if_stopped();

  /// OK while running; the first stop cause afterwards.
  [[nodiscard]] Status status() const;

  // --- memory accounting ---

  /// Records `bytes` of a major allocation. Throws StoppedError
  /// (kResourceExhausted) when a budget is set and the running total would
  /// exceed it. `site` names the allocation in the status message.
  void charge_memory(std::uint64_t bytes, const char* site);

  /// Returns bytes charged by a freed allocation.
  void release_memory(std::uint64_t bytes) noexcept;

  [[nodiscard]] std::uint64_t memory_charged() const {
    return memory_charged_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t memory_peak() const {
    return memory_peak_.load(std::memory_order_relaxed);
  }
  /// The armed budget; 0 = unlimited.
  [[nodiscard]] std::uint64_t memory_budget() const { return memory_budget_; }

 private:
  /// Records the first stop cause (CAS winner) and raises the stop flag.
  void stop_with(StatusCode code, std::string message);

  std::atomic<bool> stop_{false};
  std::atomic<std::uint8_t> cause_{static_cast<std::uint8_t>(StatusCode::kOk)};
  mutable std::mutex message_mutex_;  ///< guards message_ only
  std::string message_;

  std::optional<std::chrono::steady_clock::time_point> deadline_;
  std::uint64_t memory_budget_ = 0;  ///< 0 = unlimited
  std::atomic<std::uint64_t> memory_charged_{0};
  std::atomic<std::uint64_t> memory_peak_{0};
};

/// Null-tolerant check: phases take a nullable RunContext* and call this at
/// phase boundaries.
inline void check_stop(RunContext* ctx) {
  if (ctx != nullptr) ctx->throw_if_stopped();
}

/// Amortizes check sites in item loops: counts work items and performs one
/// full throw_if_stopped() per `period` items, so the deadline clock is read
/// at chunk granularity while the per-item cost stays a counter add. A null
/// context makes checkpoint() a no-op.
class PollTicker {
 public:
  explicit PollTicker(RunContext* ctx, std::uint64_t period = 4096)
      : ctx_(ctx), period_(period) {}

  /// Advances by `amount` work items; throws StoppedError via the context
  /// when a stop is pending at a period boundary.
  void checkpoint(std::uint64_t amount = 1) {
    if (ctx_ == nullptr) return;
    accumulated_ += amount;
    if (accumulated_ < period_) return;
    accumulated_ = 0;
    ctx_->throw_if_stopped();
  }

 private:
  RunContext* ctx_ = nullptr;
  std::uint64_t period_ = 4096;
  std::uint64_t accumulated_ = 0;
};

/// RAII charge against a RunContext memory budget. Charges in the
/// constructor (throwing StoppedError if over budget), releases in the
/// destructor unless commit() transferred ownership to a longer-lived result.
class MemoryCharge {
 public:
  MemoryCharge() = default;
  /// An empty charge against `ctx` that grow() extends.
  explicit MemoryCharge(RunContext* ctx) : ctx_(ctx) {}
  MemoryCharge(RunContext* ctx, std::uint64_t bytes, const char* site)
      : ctx_(ctx), bytes_(bytes) {
    if (ctx_ != nullptr) ctx_->charge_memory(bytes_, site);
  }
  MemoryCharge(MemoryCharge&& other) noexcept
      : ctx_(other.ctx_), bytes_(other.bytes_) {
    other.ctx_ = nullptr;
    other.bytes_ = 0;
  }
  MemoryCharge& operator=(MemoryCharge&& other) noexcept {
    if (this != &other) {
      release();
      ctx_ = other.ctx_;
      bytes_ = other.bytes_;
      other.ctx_ = nullptr;
      other.bytes_ = 0;
    }
    return *this;
  }
  MemoryCharge(const MemoryCharge&) = delete;
  MemoryCharge& operator=(const MemoryCharge&) = delete;
  ~MemoryCharge() { release(); }

  /// Charges `bytes` more (no-op without a context). They are held before
  /// charging, because charge_memory records them even when it throws, and
  /// the destructor must release what was recorded.
  void grow(std::uint64_t bytes, const char* site) {
    if (ctx_ == nullptr || bytes == 0) return;
    bytes_ += bytes;
    ctx_->charge_memory(bytes, site);
  }

  /// Keeps the charge past this guard's lifetime (the allocation lives on in
  /// the run's result).
  void commit() { ctx_ = nullptr; }

  void release() noexcept {
    if (ctx_ != nullptr) ctx_->release_memory(bytes_);
    ctx_ = nullptr;
    bytes_ = 0;
  }

 private:
  RunContext* ctx_ = nullptr;
  std::uint64_t bytes_ = 0;
};

}  // namespace lc
