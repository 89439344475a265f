// Crash-consistent checkpoint/resume for fine-mode batch runs (DESIGN.md §11).
//
// The fine merge pass advances through one deterministic coordinate: a
// position in a sorted pair list (an index into the sorted spanning-forest
// pairs, or into the reference sweep's full list L). A checkpoint is
// everything the pass carries across that coordinate: the cluster array /
// DSU labels, the dendrogram event prefix and the level counter. Because
// the builds and sorts are bitwise deterministic at every thread count, a
// resumed run rebuilds its list, seeks to the stored coordinate, restores
// the state, and continues to a dendrogram identical to an uninterrupted
// run's — at any thread count. Coarse mode and `lc serve` do not
// checkpoint: a resume reruns the whole build, which dominates the run, so
// they rerun an interrupted run from scratch instead.
//
// Snapshots ride the container of util/snapshot_io.hpp: checksummed sections,
// a trailing commit marker, atomic tmp -> .prev -> primary replacement. A
// fingerprint section binds the snapshot to the run's inputs (graph digest,
// mode, enumeration order + seed, similarity measure, coarse parameters);
// resume refuses a mismatch with a clear Status instead of producing a
// plausible-but-wrong dendrogram. Thread count is deliberately NOT part of
// the fingerprint: outputs are thread-count-invariant, so a run may resume
// with a different -T than it started with.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/dendrogram.hpp"
#include "core/forest.hpp"
#include "graph/graph.hpp"
#include "util/snapshot_io.hpp"
#include "util/status.hpp"

namespace lc::core {

/// When and where snapshots are written. Polled by the sweeps at the same
/// chunk granularity RunContext uses, so a snapshot costs nothing between
/// boundaries.
struct CheckpointPolicy {
  std::string directory;              ///< empty = checkpointing disabled
  std::uint64_t interval_ms = 30000;  ///< min wall time between snapshots;
                                      ///< 0 = snapshot at every boundary
  std::uint64_t max_snapshots = 0;    ///< stop after this many (0 = unlimited;
                                      ///< lets tests pin the snapshot position)

  // Retry policy for a failed commit (disk full, EIO, torn tmp): each
  // snapshot gets up to 1 + write_retries attempts with capped exponential
  // backoff between them. Snapshots insure the run, they must never stall
  // it indefinitely — so the retry budget is small and the delays bounded.
  std::uint32_t write_retries = 2;        ///< extra attempts after a failure
  std::uint64_t backoff_initial_ms = 10;  ///< delay before the first retry
  std::uint64_t backoff_max_ms = 1000;    ///< cap on any single delay

  // After this many *consecutive* failed snapshots (each already retried),
  // the checkpointer degrades to "in-memory only": due() stays false, no
  // further write attempts are made, and the health surface reports
  // degraded. 0 disables degradation (keep trying forever).
  std::uint32_t degrade_after = 5;

  [[nodiscard]] bool enabled() const { return !directory.empty(); }
};

/// Backoff before retry `attempt` (0-based): backoff_initial_ms doubled per
/// attempt, capped at backoff_max_ms. Pure so the bound is testable without
/// sleeping.
[[nodiscard]] std::uint64_t backoff_delay_ms(const CheckpointPolicy& policy,
                                             std::uint32_t attempt);

/// Snapshot file inside `directory` (the ".prev"/".tmp" siblings derive from
/// this path).
[[nodiscard]] std::string snapshot_path(const std::string& directory);

/// Everything a snapshot must match before its state may be resumed.
/// Enum-typed config fields are stored as raw integers so this header does
/// not depend on link_clusterer.hpp (which includes it).
struct RunFingerprint {
  std::uint64_t graph_digest = 0;  ///< graph_fingerprint() of the input
  std::uint8_t mode = 0;           ///< ClusterMode
  std::uint8_t edge_order = 0;     ///< EdgeOrder
  std::uint8_t measure = 0;        ///< SimilarityMeasure
  std::uint64_t seed = 0;
  double min_similarity = 0.0;
  double gamma = 0.0;
  std::uint64_t phi = 0;
  std::uint64_t delta0 = 0;
  double eta0 = 0.0;
  std::uint64_t rollback_capacity = 0;
  std::uint64_t max_rollbacks_per_level = 0;

  [[nodiscard]] bool operator==(const RunFingerprint& other) const = default;
};

/// Digest of the graph's exact content (vertex count + every edge with its
/// weight bits), the anchor of RunFingerprint.
[[nodiscard]] std::uint64_t graph_fingerprint(const graph::WeightedGraph& graph);

/// The sorted list a FineCheckpoint's entry_pos indexes. Each is stored
/// under its own section id, so a snapshot of one list never resumes a sweep
/// over the other.
enum class FineList : std::uint8_t {
  kForest,  ///< the spanning-forest pairs of LinkClusterer (core/forest.hpp)
  kPairs,   ///< the full sorted list L of the reference sweep (core/sweep.hpp)
};

/// Fine-sweep state at an entry boundary: the next entry to process and
/// everything accumulated before it.
struct FineCheckpoint {
  FineList list = FineList::kForest;
  std::uint64_t entry_pos = 0;  ///< entries [0, entry_pos) are fully merged
  std::uint32_t level = 0;
  std::uint64_t ordinal = 0;    ///< incident pairs processed
  SweepStats stats;             ///< totals at the boundary (base for resume)
  std::vector<EdgeIdx> cluster_c;
  std::vector<MergeEvent> events;
};

/// Writes snapshots per a CheckpointPolicy. The sweeps ask due() at chunk
/// boundaries and hand over their state; a failed write is retried with
/// bounded backoff, then recorded (see recent_errors()) but never stops the
/// run — losing a snapshot must not lose the run it was insuring. After
/// `degrade_after` consecutive failed snapshots the checkpointer goes
/// degraded ("in-memory only"): due() stays false so a dead disk cannot keep
/// taxing the sweep with doomed write+backoff cycles.
class Checkpointer {
 public:
  /// Failed writes are kept in a ring of the most recent kErrorRing.
  static constexpr std::size_t kErrorRing = 8;

  Checkpointer(CheckpointPolicy policy, RunFingerprint fingerprint);

  /// True when the policy wants a snapshot now (never when degraded).
  [[nodiscard]] bool due() const;

  Status write_fine(const FineCheckpoint& state);

  [[nodiscard]] const CheckpointPolicy& policy() const { return policy_; }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::uint64_t snapshots_written() const { return written_; }
  [[nodiscard]] std::uint64_t last_snapshot_bytes() const { return last_bytes_; }
  [[nodiscard]] double write_seconds_total() const { return write_seconds_; }
  /// Most recent error (empty/OK after a successful write). Kept for the
  /// CLI exit-3 report; recent_errors() has the history.
  [[nodiscard]] const Status& last_error() const { return last_error_; }

  /// The most recent failed snapshots, oldest first (≤ kErrorRing entries).
  [[nodiscard]] std::vector<Status> recent_errors() const;
  /// Snapshots that failed after exhausting their retry budget.
  [[nodiscard]] std::uint64_t write_failures() const { return write_failures_; }
  /// Retry attempts across all snapshots (0 when every commit succeeded
  /// first try).
  [[nodiscard]] std::uint64_t write_retries_used() const { return retries_used_; }
  /// Failed snapshots since the last success.
  [[nodiscard]] std::uint64_t consecutive_failures() const {
    return consecutive_failures_;
  }
  /// True once degrade_after consecutive snapshots failed: checkpointing is
  /// off for the rest of the run, progress is in-memory only.
  [[nodiscard]] bool degraded() const { return degraded_; }

 private:
  Status write(std::uint32_t section_id, snapshot::SectionWriter body);
  Status attempt_commit(std::uint32_t section_id,
                        const snapshot::SectionWriter& body);
  void record_failure(const Status& status);

  CheckpointPolicy policy_;
  RunFingerprint fingerprint_;
  std::string path_;
  std::chrono::steady_clock::time_point next_due_;
  std::uint64_t written_ = 0;
  std::uint64_t last_bytes_ = 0;
  double write_seconds_ = 0.0;
  Status last_error_;
  std::vector<Status> error_ring_;  ///< ring buffer, oldest at ring_head_
  std::size_t ring_head_ = 0;
  std::uint64_t write_failures_ = 0;
  std::uint64_t retries_used_ = 0;
  std::uint64_t consecutive_failures_ = 0;
  bool degraded_ = false;
};

/// A validated fine snapshot of either list (`fine.list` says which).
struct LoadedCheckpoint {
  FineCheckpoint fine;
  std::string source_path;  ///< the file that validated (primary or .prev)
};

/// Loads the snapshot in `directory`: tries the primary file, falls back to
/// ".prev" when the primary is missing, torn, or corrupt, then validates the
/// fingerprint against `expected` and every structural invariant the resumed
/// sweep depends on (sized arrays vs `edge_count`, monotone parents/labels,
/// dendrogram event ordering). Every failure is an error Status — a corrupt
/// or mismatched snapshot can refuse to resume, never corrupt a result.
[[nodiscard]] StatusOr<LoadedCheckpoint> load_checkpoint(
    const std::string& directory, const RunFingerprint& expected,
    std::size_t edge_count);

}  // namespace lc::core
