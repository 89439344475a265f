// SIGTERM/SIGINT plumbing for supervised runs (DESIGN.md §14).
//
// The handlers do the only async-signal-safe thing possible: store the
// signal number in a process-wide atomic. Everything meaningful — the
// cooperative cancel through RunContext, the final checkpoint a fine batch
// sweep flushes while unwinding, the clean drain — happens on ordinary threads
// that poll the flag. SA_RESETHAND restores the default action after the
// first delivery, so a second Ctrl-C kills a process that is too wedged to
// drain (the operator always wins).
//
// Both `lc serve` and the batch `lc cluster` command use this: a signal
// turns into ctx->request_cancel(), the sweep unwinds with kCancelled at a
// safe boundary (a checkpointing fine batch run flushes a final snapshot
// there), and the process exits through the normal stop-reason report
// instead of dying mid-merge.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>

namespace lc::serve {

/// Installs the SIGTERM and SIGINT handlers (idempotent per process run;
/// re-installing re-arms after SA_RESETHAND consumed one).
void install_stop_handlers();

/// The first signal delivered since the last reset (0 = none).
[[nodiscard]] int stop_signal();

/// Clears the flag (tests re-raise; the serve loop acknowledges a drain).
void reset_stop_signal();

/// Polls stop_signal() on a background thread and fires `on_signal` once
/// when it trips. The callback runs on the watcher thread, so it must be
/// thread-safe — RunContext::request_cancel is.
class SignalWatcher {
 public:
  explicit SignalWatcher(
      std::function<void(int)> on_signal,
      std::chrono::milliseconds period = std::chrono::milliseconds(25));
  ~SignalWatcher();

  SignalWatcher(const SignalWatcher&) = delete;
  SignalWatcher& operator=(const SignalWatcher&) = delete;

  /// True once the callback fired.
  [[nodiscard]] bool fired() const;

 private:
  std::function<void(int)> on_signal_;
  std::chrono::milliseconds period_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> fired_{false};
  std::thread thread_;
};

}  // namespace lc::serve
