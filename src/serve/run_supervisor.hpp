// Supervised execution of one clustering run on a background thread
// (DESIGN.md §14).
//
// The supervisor owns the thread, the RunContext (deadline + memory budget +
// cancel), and the containment boundary: whatever the run does — throw, trip
// a budget, get cancelled — the worker converts it into a RunReport and the
// owning server stays alive. A run is attempted once, exactly as submitted.
// A memory budget never changes the answer: fine mode meets it with more
// passes over its score triangles (RunReport::passes, DESIGN.md §16), and a
// budget too small for even one pass fails the run with kResourceExhausted
// and the bytes it needed.
//
// When the spec carries a state directory and a graph path, the worker
// persists a run manifest there (atomic tmp → rename) before the run starts;
// the server's startup autorecovery reads it back and reruns an interrupted
// run from scratch after a crash. The manifest is removed once a run
// succeeds. Supervised runs write no snapshots.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "core/link_clusterer.hpp"
#include "graph/graph.hpp"
#include "util/run_context.hpp"
#include "util/status.hpp"

namespace lc::serve {

enum class RunState : std::uint8_t {
  kIdle = 0,   ///< nothing launched yet
  kRunning,
  kDone,       ///< finished exactly as requested
  kDegraded,   ///< finished, but writing the merge list failed (see RunReport)
  kCancelled,  ///< stopped by cancel() / a signal
  kFailed,     ///< terminal error; see RunReport::status
};

[[nodiscard]] const char* run_state_name(RunState state);

/// Everything launch() needs; the config carries mode/threads/coarse
/// parameters exactly as the batch CLI would set them. `config.ctx` is
/// ignored — the supervisor owns the RunContext.
struct RunSpec {
  core::LinkClusterer::Config config;
  std::shared_ptr<const graph::WeightedGraph> graph;
  std::int64_t deadline_ms = -1;      ///< run deadline (<0 = none)
  std::uint64_t max_memory_mb = 0;    ///< memory budget (0 = none)
  std::string merges_path;            ///< write the merge list here on success
  std::string graph_path;             ///< recorded in the manifest (autorecovery)
  std::string state_dir;              ///< write run.manifest here (empty = none)
};

/// Snapshot of a run, safe to take at any time from any thread.
struct RunReport {
  std::uint64_t id = 0;                    ///< 0 = nothing launched yet
  RunState state = RunState::kIdle;
  Status status;                           ///< terminal status (kFailed/kCancelled)
  std::uint32_t passes = 0;                ///< ClusterResult::passes (on success)
  double elapsed_seconds = 0.0;
  std::uint64_t events = 0;                ///< dendrogram merges (on success)
  std::uint32_t height = 0;
  std::uint64_t memory_peak = 0;           ///< RunContext high-water bytes
};

class RunSupervisor {
 public:
  RunSupervisor() = default;
  ~RunSupervisor();

  RunSupervisor(const RunSupervisor&) = delete;
  RunSupervisor& operator=(const RunSupervisor&) = delete;

  /// Starts `spec` on the worker thread. kUnavailable while a run is in
  /// flight (the server maps that straight onto the protocol's busy error).
  Status launch(RunSpec spec);

  [[nodiscard]] bool running() const;
  [[nodiscard]] RunReport report() const;

  /// Requests a cooperative cancel of the in-flight run (no-op otherwise).
  void cancel();

  /// Blocks until the in-flight run finishes or `timeout_ms` passes
  /// (0 = wait forever). True when no run is in flight on return.
  bool wait(std::uint64_t timeout_ms = 0);

  /// The last finished (done or degraded) result; null before one exists.
  /// The pointer stays valid across later runs.
  [[nodiscard]] std::shared_ptr<const core::ClusterResult> result() const;

  /// Total runs launched / finished in a terminal error state.
  [[nodiscard]] std::uint64_t runs_total() const;
  [[nodiscard]] std::uint64_t runs_failed() const;

  /// The manifest file a spec with a state directory persists for
  /// autorecovery.
  [[nodiscard]] static std::string manifest_path(const std::string& directory);

 private:
  void worker(RunSpec spec, std::uint64_t run_id);
  void join_finished();

  mutable std::mutex mutex_;
  mutable std::condition_variable finished_cv_;
  std::thread thread_;
  bool thread_active_ = false;    ///< worker has not signalled completion yet
  RunReport report_;              ///< guarded by mutex_
  std::shared_ptr<const core::ClusterResult> result_;  ///< guarded by mutex_
  std::shared_ptr<RunContext> ctx_;                    ///< guarded by mutex_
  bool cancel_requested_ = false;  ///< latched until the worker installs ctx_
  std::uint64_t next_id_ = 1;
  std::uint64_t runs_total_ = 0;
  std::uint64_t runs_failed_ = 0;
};

/// Serialized form of a RunSpec that a crashed server left behind:
/// everything needed to rebuild the config with an identical fingerprint
/// (doubles round-trip as hex bit patterns), so the rerun is the same run.
struct RunManifest {
  core::RunFingerprint fingerprint;
  std::uint64_t threads = 1;
  std::string graph_path;
  std::string merges_path;

  /// Atomic write (tmp → rename) into `path`.
  [[nodiscard]] Status write(const std::string& path) const;
  [[nodiscard]] static StatusOr<RunManifest> read(const std::string& path);
};

}  // namespace lc::serve
