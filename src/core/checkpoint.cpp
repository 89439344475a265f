#include "core/checkpoint.hpp"

#include <algorithm>
#include <bit>
#include <exception>
#include <filesystem>
#include <thread>

#include "util/stopwatch.hpp"

namespace lc::core {
namespace {

// Section ids inside the snapshot container. A fine snapshot's id names
// the list its position indexes (FineList).
constexpr std::uint32_t kFingerprintSection = 1;
constexpr std::uint32_t kPairListSection = 2;
constexpr std::uint32_t kCoarseSection = 3;
constexpr std::uint32_t kForestSection = 4;

void write_fingerprint(snapshot::SectionWriter& out, const RunFingerprint& fp) {
  out.u64(fp.graph_digest);
  out.u8(fp.mode);
  out.u8(fp.edge_order);
  out.u8(fp.measure);
  out.u64(fp.seed);
  out.f64(fp.min_similarity);
  out.f64(fp.gamma);
  out.u64(fp.phi);
  out.u64(fp.delta0);
  out.f64(fp.eta0);
  out.u64(fp.rollback_capacity);
  out.u64(fp.max_rollbacks_per_level);
}

Status read_fingerprint(snapshot::SectionReader& in, RunFingerprint* fp) {
  if (Status s = in.u64(&fp->graph_digest); !s.ok()) return s;
  if (Status s = in.u8(&fp->mode); !s.ok()) return s;
  if (Status s = in.u8(&fp->edge_order); !s.ok()) return s;
  if (Status s = in.u8(&fp->measure); !s.ok()) return s;
  if (Status s = in.u64(&fp->seed); !s.ok()) return s;
  if (Status s = in.f64(&fp->min_similarity); !s.ok()) return s;
  if (Status s = in.f64(&fp->gamma); !s.ok()) return s;
  if (Status s = in.u64(&fp->phi); !s.ok()) return s;
  if (Status s = in.u64(&fp->delta0); !s.ok()) return s;
  if (Status s = in.f64(&fp->eta0); !s.ok()) return s;
  if (Status s = in.u64(&fp->rollback_capacity); !s.ok()) return s;
  if (Status s = in.u64(&fp->max_rollbacks_per_level); !s.ok()) return s;
  return in.expect_end();
}

// MergeEvent has 4 bytes of struct padding, so events serialize field-wise
// (pod_vector would write uninitialized bytes and break checksum replays).
void write_events(snapshot::SectionWriter& out, const std::vector<MergeEvent>& events) {
  out.u64(events.size());
  for (const MergeEvent& event : events) {
    out.u32(event.level);
    out.u32(event.from);
    out.u32(event.into);
    out.f64(event.similarity);
  }
}

Status read_events(snapshot::SectionReader& in, std::vector<MergeEvent>* events,
                   std::size_t edge_count) {
  std::uint64_t count = 0;
  if (Status s = in.u64(&count); !s.ok()) return s;
  if (count >= edge_count && !(edge_count == 0 && count == 0)) {
    return Status::invalid_argument(
        "checkpoint: more dendrogram events than edges allow");
  }
  events->clear();
  events->reserve(static_cast<std::size_t>(count));
  std::uint32_t last_level = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    MergeEvent event;
    if (Status s = in.u32(&event.level); !s.ok()) return s;
    if (Status s = in.u32(&event.from); !s.ok()) return s;
    if (Status s = in.u32(&event.into); !s.ok()) return s;
    if (Status s = in.f64(&event.similarity); !s.ok()) return s;
    if (event.from <= event.into || event.from >= edge_count ||
        event.level < last_level) {
      return Status::invalid_argument(
          "checkpoint: dendrogram event " + std::to_string(i) +
          " violates the merge invariants");
    }
    last_level = event.level;
    events->push_back(event);
  }
  return Status();
}

void write_stats(snapshot::SectionWriter& out, const SweepStats& stats) {
  out.u64(stats.pairs_processed);
  out.u64(stats.merges_effective);
  out.u64(stats.c_accesses);
  out.u64(stats.c_changes);
}

Status read_stats(snapshot::SectionReader& in, SweepStats* stats) {
  if (Status s = in.u64(&stats->pairs_processed); !s.ok()) return s;
  if (Status s = in.u64(&stats->merges_effective); !s.ok()) return s;
  if (Status s = in.u64(&stats->c_accesses); !s.ok()) return s;
  return in.u64(&stats->c_changes);
}

/// Labels and parent arrays share one invariant: slot i never exceeds i.
Status check_monotone_labels(const std::vector<EdgeIdx>& labels,
                             std::size_t edge_count, const char* what) {
  if (labels.size() != edge_count) {
    return Status::invalid_argument(
        std::string("checkpoint: ") + what + " has " +
        std::to_string(labels.size()) + " entries, graph has " +
        std::to_string(edge_count) + " edges");
  }
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] > i) {
      return Status::invalid_argument(std::string("checkpoint: ") + what +
                                      "[" + std::to_string(i) +
                                      "] exceeds its index");
    }
  }
  return Status();
}

void write_fine_section(snapshot::SectionWriter& out, const FineCheckpoint& state) {
  out.u64(state.entry_pos);
  out.u32(state.level);
  out.u64(state.ordinal);
  write_stats(out, state.stats);
  out.pod_vector(state.cluster_c);
  write_events(out, state.events);
}

Status read_fine_section(snapshot::SectionReader& in, FineCheckpoint* state,
                         std::size_t edge_count) {
  if (Status s = in.u64(&state->entry_pos); !s.ok()) return s;
  if (Status s = in.u32(&state->level); !s.ok()) return s;
  if (Status s = in.u64(&state->ordinal); !s.ok()) return s;
  if (Status s = read_stats(in, &state->stats); !s.ok()) return s;
  if (Status s = in.pod_vector(&state->cluster_c, edge_count); !s.ok()) return s;
  if (Status s = check_monotone_labels(state->cluster_c, edge_count, "cluster array");
      !s.ok()) {
    return s;
  }
  if (Status s = read_events(in, &state->events, edge_count); !s.ok()) return s;
  return in.expect_end();
}

void write_coarse_section(snapshot::SectionWriter& out, const CoarseCheckpoint& state) {
  out.u64(state.xi);
  out.u64(state.p);
  out.u64(state.beta);
  out.u32(state.level);
  out.f64(state.delta);
  out.f64(state.eta);
  out.u8(state.head_mode);
  out.u64(state.consecutive_rollbacks);
  out.u64(state.xi_prev2);
  out.u64(state.beta_prev2);
  out.u8(state.have_prev2);
  out.u64(state.snapshot_seq);
  out.u64(state.rollback_count);
  out.u64(state.reuse_count);
  out.u64(state.soundness_violations);
  write_stats(out, state.stats);
  out.pod_vector(state.parents);
  write_events(out, state.events);
  out.u64(state.epochs.size());
  for (const EpochRecord& epoch : state.epochs) {
    out.u8(static_cast<std::uint8_t>(epoch.kind));
    out.u64(epoch.chunk_size);
    out.u64(epoch.beta_before);
    out.u64(epoch.beta_after);
    out.u64(epoch.pairs_end);
  }
  out.u64(state.levels.size());
  for (const CoarseLevel& lvl : state.levels) {
    out.u32(lvl.level);
    out.u64(lvl.clusters);
    out.u64(lvl.pairs_processed);
    out.f64(lvl.threshold_score);
  }
  out.u64(state.rollback_list.size());
  for (const CoarseSavedState& saved : state.rollback_list) {
    out.pod_vector(saved.losers);
    out.pod_vector(saved.targets);
    out.u64(saved.beta);
    out.u64(saved.xi);
    out.u64(saved.p);
    out.u64(saved.seq);
  }
}

Status read_coarse_section(snapshot::SectionReader& in, CoarseCheckpoint* state,
                           std::size_t edge_count) {
  if (Status s = in.u64(&state->xi); !s.ok()) return s;
  if (Status s = in.u64(&state->p); !s.ok()) return s;
  if (Status s = in.u64(&state->beta); !s.ok()) return s;
  if (Status s = in.u32(&state->level); !s.ok()) return s;
  if (Status s = in.f64(&state->delta); !s.ok()) return s;
  if (Status s = in.f64(&state->eta); !s.ok()) return s;
  if (Status s = in.u8(&state->head_mode); !s.ok()) return s;
  if (Status s = in.u64(&state->consecutive_rollbacks); !s.ok()) return s;
  if (Status s = in.u64(&state->xi_prev2); !s.ok()) return s;
  if (Status s = in.u64(&state->beta_prev2); !s.ok()) return s;
  if (Status s = in.u8(&state->have_prev2); !s.ok()) return s;
  if (Status s = in.u64(&state->snapshot_seq); !s.ok()) return s;
  if (Status s = in.u64(&state->rollback_count); !s.ok()) return s;
  if (Status s = in.u64(&state->reuse_count); !s.ok()) return s;
  if (Status s = in.u64(&state->soundness_violations); !s.ok()) return s;
  if (Status s = read_stats(in, &state->stats); !s.ok()) return s;
  if (Status s = in.pod_vector(&state->parents, edge_count); !s.ok()) return s;
  if (Status s = check_monotone_labels(state->parents, edge_count, "parent array");
      !s.ok()) {
    return s;
  }
  if (Status s = read_events(in, &state->events, edge_count); !s.ok()) return s;
  if (state->beta > edge_count) {
    return Status::invalid_argument("checkpoint: beta exceeds the edge count");
  }
  std::uint64_t count = 0;
  if (Status s = in.u64(&count); !s.ok()) return s;
  if (count > in.remaining()) {
    return Status::invalid_argument("checkpoint: implausible epoch count");
  }
  state->epochs.clear();
  state->epochs.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    EpochRecord epoch;
    std::uint8_t kind = 0;
    if (Status s = in.u8(&kind); !s.ok()) return s;
    if (kind > static_cast<std::uint8_t>(EpochKind::kReused)) {
      return Status::invalid_argument("checkpoint: unknown epoch kind");
    }
    epoch.kind = static_cast<EpochKind>(kind);
    if (Status s = in.u64(&epoch.chunk_size); !s.ok()) return s;
    std::uint64_t beta_before = 0;
    std::uint64_t beta_after = 0;
    if (Status s = in.u64(&beta_before); !s.ok()) return s;
    if (Status s = in.u64(&beta_after); !s.ok()) return s;
    epoch.beta_before = static_cast<std::size_t>(beta_before);
    epoch.beta_after = static_cast<std::size_t>(beta_after);
    if (Status s = in.u64(&epoch.pairs_end); !s.ok()) return s;
    state->epochs.push_back(epoch);
  }
  if (Status s = in.u64(&count); !s.ok()) return s;
  if (count > in.remaining()) {
    return Status::invalid_argument("checkpoint: implausible level count");
  }
  state->levels.clear();
  state->levels.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    CoarseLevel lvl;
    if (Status s = in.u32(&lvl.level); !s.ok()) return s;
    std::uint64_t clusters = 0;
    if (Status s = in.u64(&clusters); !s.ok()) return s;
    lvl.clusters = static_cast<std::size_t>(clusters);
    if (Status s = in.u64(&lvl.pairs_processed); !s.ok()) return s;
    if (Status s = in.f64(&lvl.threshold_score); !s.ok()) return s;
    state->levels.push_back(lvl);
  }
  if (Status s = in.u64(&count); !s.ok()) return s;
  if (count > in.remaining()) {
    return Status::invalid_argument("checkpoint: implausible rollback count");
  }
  state->rollback_list.clear();
  state->rollback_list.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    CoarseSavedState saved;
    if (Status s = in.pod_vector(&saved.losers, edge_count); !s.ok()) return s;
    if (Status s = in.pod_vector(&saved.targets, edge_count); !s.ok()) return s;
    if (saved.losers.size() != saved.targets.size()) {
      return Status::invalid_argument(
          "checkpoint: rollback state loser/target length mismatch");
    }
    for (std::size_t e = 0; e < saved.losers.size(); ++e) {
      // Targets are component minima, strictly below their loser.
      if (saved.losers[e] >= edge_count || saved.targets[e] >= saved.losers[e]) {
        return Status::invalid_argument(
            "checkpoint: rollback state references an out-of-range edge");
      }
    }
    if (Status s = in.u64(&saved.beta); !s.ok()) return s;
    if (Status s = in.u64(&saved.xi); !s.ok()) return s;
    if (Status s = in.u64(&saved.p); !s.ok()) return s;
    if (Status s = in.u64(&saved.seq); !s.ok()) return s;
    state->rollback_list.push_back(std::move(saved));
  }
  return in.expect_end();
}

}  // namespace

std::string snapshot_path(const std::string& directory) {
  return (std::filesystem::path(directory) / "checkpoint.lcsnap").string();
}

std::uint64_t backoff_delay_ms(const CheckpointPolicy& policy,
                               std::uint32_t attempt) {
  if (policy.backoff_initial_ms == 0) return 0;
  std::uint64_t delay = policy.backoff_initial_ms;
  for (std::uint32_t i = 0; i < attempt; ++i) {
    if (delay >= policy.backoff_max_ms / 2 + 1) return policy.backoff_max_ms;
    delay *= 2;
  }
  return std::min(delay, policy.backoff_max_ms);
}

std::uint64_t graph_fingerprint(const graph::WeightedGraph& graph) {
  std::uint64_t hash = snapshot::fnv1a64(nullptr, 0);
  const auto mix = [&hash](std::uint64_t word) {
    hash = snapshot::fnv1a64(&word, sizeof(word), hash);
  };
  mix(graph.vertex_count());
  mix(graph.edge_count());
  for (const graph::Edge& edge : graph.edges()) {
    mix((static_cast<std::uint64_t>(edge.u) << 32) | edge.v);
    mix(std::bit_cast<std::uint64_t>(edge.weight));
  }
  return hash;
}

Checkpointer::Checkpointer(CheckpointPolicy policy, RunFingerprint fingerprint)
    : policy_(std::move(policy)),
      fingerprint_(fingerprint),
      path_(snapshot_path(policy_.directory)),
      next_due_(std::chrono::steady_clock::now() +
                std::chrono::milliseconds(
                    static_cast<std::int64_t>(policy_.interval_ms))) {
  if (policy_.enabled()) {
    // A stale ".tmp" is the residue of a crash mid-commit (SIGKILL between
    // the open and the publish rename). It carries no committed data, so
    // clear it up front rather than leaving it for the next commit to
    // overwrite — a degraded run may never commit again.
    std::error_code ec;
    std::filesystem::remove(path_ + ".tmp", ec);
  }
}

bool Checkpointer::due() const {
  if (!policy_.enabled() || degraded_) return false;
  if (policy_.max_snapshots > 0 && written_ >= policy_.max_snapshots) return false;
  if (policy_.interval_ms == 0) return true;
  return std::chrono::steady_clock::now() >= next_due_;
}

Status Checkpointer::attempt_commit(std::uint32_t section_id,
                                    const snapshot::SectionWriter& body) {
  try {
    std::error_code ec;
    std::filesystem::create_directories(policy_.directory, ec);
    if (ec) {
      return Status::internal("checkpoint: cannot create " + policy_.directory +
                              ": " + ec.message());
    }
    snapshot::SectionWriter fingerprint;
    write_fingerprint(fingerprint, fingerprint_);
    snapshot::SnapshotWriter writer;
    writer.add_section(kFingerprintSection, std::move(fingerprint));
    writer.add_section(section_id, body);  // copy: retries reuse the payload
    Status status = writer.commit(path_);
    if (status.ok()) last_bytes_ = writer.committed_bytes();
    return status;
  } catch (const std::bad_alloc&) {
    return Status::resource_exhausted("checkpoint: allocation failed");
  } catch (const std::exception& error) {
    return Status::internal(std::string("checkpoint: ") + error.what());
  }
}

void Checkpointer::record_failure(const Status& status) {
  ++write_failures_;
  ++consecutive_failures_;
  if (error_ring_.size() < kErrorRing) {
    error_ring_.push_back(status);
  } else {
    error_ring_[ring_head_] = status;
    ring_head_ = (ring_head_ + 1) % kErrorRing;
  }
  if (policy_.degrade_after > 0 &&
      consecutive_failures_ >= policy_.degrade_after) {
    degraded_ = true;
  }
}

std::vector<Status> Checkpointer::recent_errors() const {
  std::vector<Status> out;
  out.reserve(error_ring_.size());
  for (std::size_t i = 0; i < error_ring_.size(); ++i) {
    out.push_back(error_ring_[(ring_head_ + i) % error_ring_.size()]);
  }
  return out;
}

Status Checkpointer::write(std::uint32_t section_id, snapshot::SectionWriter body) {
  Stopwatch watch;
  Status status = attempt_commit(section_id, body);
  for (std::uint32_t retry = 0; !status.ok() && retry < policy_.write_retries;
       ++retry) {
    // Only transient failures (EIO, torn tmp, exotic exceptions) can heal by
    // retrying; a full memory budget will not free itself while we sleep.
    if (!status_is_retryable(status.code())) break;
    const std::uint64_t delay = backoff_delay_ms(policy_, retry);
    if (delay > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          static_cast<std::int64_t>(delay)));
    }
    ++retries_used_;
    status = attempt_commit(section_id, body);
  }
  write_seconds_ += watch.seconds();
  if (status.ok()) {
    ++written_;
    consecutive_failures_ = 0;
    last_error_ = Status();
  } else {
    record_failure(status);
    last_error_ = status;
  }
  next_due_ = std::chrono::steady_clock::now() +
              std::chrono::milliseconds(static_cast<std::int64_t>(policy_.interval_ms));
  return status;
}

Status Checkpointer::write_fine(const FineCheckpoint& state) {
  // Serialization is checkpoint work, not sweep work: count it with the
  // write so the bench overhead gate subtracts it from the armed sweep.
  Stopwatch watch;
  snapshot::SectionWriter body;
  write_fine_section(body, state);
  write_seconds_ += watch.seconds();
  return write(state.list == FineList::kForest ? kForestSection : kPairListSection,
               std::move(body));
}

Status Checkpointer::write_coarse(const CoarseCheckpoint& state) {
  Stopwatch watch;
  snapshot::SectionWriter body;
  write_coarse_section(body, state);
  write_seconds_ += watch.seconds();
  return write(kCoarseSection, std::move(body));
}

StatusOr<LoadedCheckpoint> load_checkpoint(const std::string& directory,
                                           const RunFingerprint& expected,
                                           std::size_t edge_count) {
  const std::string primary = snapshot_path(directory);
  StatusOr<snapshot::Snapshot> loaded = snapshot::Snapshot::load(primary);
  std::string source = primary;
  if (!loaded.ok()) {
    // Torn or missing primary: the previous good snapshot is still a valid
    // resume point (it just replays a little more of L).
    const std::string prev = primary + ".prev";
    StatusOr<snapshot::Snapshot> fallback = snapshot::Snapshot::load(prev);
    if (!fallback.ok()) {
      const std::string detail =
          " (primary: " + loaded.status().message() +
          "; prev: " + fallback.status().message() + ")";
      std::error_code ec;
      const bool files_present = std::filesystem::exists(primary, ec) ||
                                 std::filesystem::exists(prev, ec);
      if (files_present) {
        // Snapshot files are on disk but none validates: storage-level
        // corruption, not a caller mistake. Resource-class so serve-mode
        // recovery degrades loudly instead of silently starting fresh.
        return Status::resource_exhausted(
            "checkpoint storage corrupt in " + directory + detail);
      }
      return Status::invalid_argument("no loadable checkpoint in " + directory +
                                      detail);
    }
    loaded = std::move(fallback);
    source = prev;
  }
  const snapshot::Snapshot& snapshot = *loaded;

  StatusOr<snapshot::SectionReader> fp_reader = snapshot.section(kFingerprintSection);
  if (!fp_reader.ok()) return fp_reader.status();
  RunFingerprint stored;
  if (Status s = read_fingerprint(*fp_reader, &stored); !s.ok()) return s;
  if (!(stored == expected)) {
    std::string what = "checkpoint fingerprint mismatch (" + source + "): ";
    if (stored.graph_digest != expected.graph_digest) {
      what += "the snapshot was written for a different graph";
    } else if (stored.mode != expected.mode) {
      what += "the snapshot was written for a different cluster mode";
    } else {
      what += "the snapshot was written with a different configuration";
    }
    what += "; refusing to resume";
    return Status::invalid_argument(what);
  }

  LoadedCheckpoint result;
  result.source_path = source;
  if (stored.mode == 0) {
    if (!snapshot.has_section(kForestSection) && snapshot.has_section(kPairListSection)) {
      return Status::invalid_argument(
          "checkpoint (" + source +
          ") indexes the reference sweep's full pair list, not the spanning-forest "
          "pairs a fine run resumes from; refusing to resume");
    }
    StatusOr<snapshot::SectionReader> reader = snapshot.section(kForestSection);
    if (!reader.ok()) return reader.status();
    FineCheckpoint fine;
    if (Status s = read_fine_section(*reader, &fine, edge_count); !s.ok()) return s;
    result.fine = std::move(fine);
  } else {
    StatusOr<snapshot::SectionReader> reader = snapshot.section(kCoarseSection);
    if (!reader.ok()) return reader.status();
    CoarseCheckpoint coarse;
    if (Status s = read_coarse_section(*reader, &coarse, edge_count); !s.ok()) return s;
    result.coarse = std::move(coarse);
  }
  return result;
}

}  // namespace lc::core
