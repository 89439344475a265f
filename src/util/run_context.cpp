#include "util/run_context.hpp"

#include "util/fault_inject.hpp"
#include "util/strings.hpp"

namespace lc {

void RunContext::request_cancel(std::string message) {
  stop_with(StatusCode::kCancelled, std::move(message));
}

bool RunContext::poll() {
  if (stop_.load(std::memory_order_acquire)) return true;
  if (deadline_.has_value() && std::chrono::steady_clock::now() >= *deadline_) {
    stop_with(StatusCode::kDeadlineExceeded, "deadline passed");
  }
  return stop_.load(std::memory_order_acquire);
}

void RunContext::throw_if_stopped() {
  if (poll()) throw StoppedError(status());
}

Status RunContext::status() const {
  const auto code = static_cast<StatusCode>(cause_.load(std::memory_order_acquire));
  if (code == StatusCode::kOk) return {};
  std::lock_guard<std::mutex> lock(message_mutex_);
  return {code, message_};
}

void RunContext::charge_memory(std::uint64_t bytes, const char* site) {
  // Runtime fault site (fires in every build): a kBadAlloc clause here is
  // the chaos engine's ENOMEM — it surfaces exactly like a failed major
  // allocation and drives the same kResourceExhausted path.
  fault::maybe_fire("memory.charge");
  const std::uint64_t now =
      memory_charged_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::uint64_t peak = memory_peak_.load(std::memory_order_relaxed);
  while (now > peak &&
         !memory_peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }
  if (memory_budget_ != 0 && now > memory_budget_) {
    stop_with(StatusCode::kResourceExhausted,
              strprintf("memory budget exceeded at %s (%llu of %llu bytes charged)",
                        site, static_cast<unsigned long long>(now),
                        static_cast<unsigned long long>(memory_budget_)));
    throw StoppedError(status());
  }
}

void RunContext::release_memory(std::uint64_t bytes) noexcept {
  memory_charged_.fetch_sub(bytes, std::memory_order_relaxed);
}

void RunContext::stop_with(StatusCode code, std::string message) {
  auto expected = static_cast<std::uint8_t>(StatusCode::kOk);
  if (cause_.compare_exchange_strong(expected, static_cast<std::uint8_t>(code),
                                     std::memory_order_acq_rel)) {
    std::lock_guard<std::mutex> lock(message_mutex_);
    message_ = std::move(message);
  }
  stop_.store(true, std::memory_order_release);
}

}  // namespace lc
