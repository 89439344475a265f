#include "core/checkpoint.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/link_clusterer.hpp"
#include "graph/generators.hpp"

namespace lc::core {
namespace {

namespace fs = std::filesystem;

class Checkpoint : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("lc_checkpoint_" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string snapshot_file() const {
    return snapshot_path(dir_.string());
  }

  fs::path dir_;
};

graph::WeightedGraph fine_graph() {
  return graph::erdos_renyi(60, 0.15, {5, graph::WeightPolicy::kUniform});
}

graph::WeightedGraph larger_graph() {
  return graph::erdos_renyi(120, 0.08, {9, graph::WeightPolicy::kUniform});
}

/// Bitwise comparison of everything a resumed run must reproduce.
void expect_identical(const ClusterResult& got, const ClusterResult& want) {
  ASSERT_EQ(got.dendrogram.leaf_count(), want.dendrogram.leaf_count());
  ASSERT_EQ(got.dendrogram.events().size(), want.dendrogram.events().size());
  for (std::size_t i = 0; i < want.dendrogram.events().size(); ++i) {
    const MergeEvent& a = got.dendrogram.events()[i];
    const MergeEvent& b = want.dendrogram.events()[i];
    EXPECT_EQ(a.level, b.level) << "event " << i;
    EXPECT_EQ(a.from, b.from) << "event " << i;
    EXPECT_EQ(a.into, b.into) << "event " << i;
    EXPECT_EQ(a.similarity, b.similarity) << "event " << i;
  }
  EXPECT_EQ(got.final_labels, want.final_labels);
  EXPECT_EQ(got.stats.pairs_processed, want.stats.pairs_processed);
  EXPECT_EQ(got.stats.merges_effective, want.stats.merges_effective);
  EXPECT_EQ(got.stats.c_accesses, want.stats.c_accesses);
  EXPECT_EQ(got.stats.c_changes, want.stats.c_changes);
}

TEST_F(Checkpoint, GraphFingerprintSeesEveryEdge) {
  const graph::WeightedGraph a = fine_graph();
  const graph::WeightedGraph b = larger_graph();
  EXPECT_NE(graph_fingerprint(a), graph_fingerprint(b));
  EXPECT_EQ(graph_fingerprint(a), graph_fingerprint(fine_graph()));
}

TEST_F(Checkpoint, FineResumeReproducesUninterruptedRun) {
  const graph::WeightedGraph graph = fine_graph();
  const ClusterResult reference = LinkClusterer().cluster(graph);

  for (const std::uint64_t snapshots : {std::uint64_t{1}, std::uint64_t{64}}) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    LinkClusterer::Config writing;
    writing.checkpoint.directory = dir_.string();
    writing.checkpoint.interval_ms = 0;  // snapshot at every entry boundary
    writing.checkpoint.max_snapshots = snapshots;
    const ClusterResult with_checkpoints = LinkClusterer(writing).cluster(graph);
    expect_identical(with_checkpoints, reference);  // snapshots are output-neutral
    ASSERT_TRUE(fs::exists(snapshot_file()));

    LinkClusterer::Config resuming;
    resuming.checkpoint.directory = dir_.string();
    resuming.checkpoint.interval_ms = 3600000;  // no further writes
    resuming.resume = true;
    StatusOr<ClusterResult> resumed = LinkClusterer(resuming).run(graph);
    ASSERT_TRUE(resumed.ok()) << resumed.status().to_string();
    expect_identical(resumed.value(), reference);
  }
}

TEST_F(Checkpoint, ResumeIsThreadCountInvariant) {
  // Snapshot under T=1, resume under T=8 (and the reverse): the fingerprint
  // deliberately omits the thread count because outputs are invariant to it.
  const graph::WeightedGraph graph = larger_graph();
  const ClusterResult reference = LinkClusterer().cluster(graph);

  for (const auto& [write_threads, resume_threads] :
       std::vector<std::pair<std::size_t, std::size_t>>{{1, 8}, {8, 1}}) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    LinkClusterer::Config writing;
    writing.threads = write_threads;
    writing.checkpoint.directory = dir_.string();
    writing.checkpoint.interval_ms = 0;
    writing.checkpoint.max_snapshots = 3;
    (void)LinkClusterer(writing).cluster(graph);
    ASSERT_TRUE(fs::exists(snapshot_file()));

    LinkClusterer::Config resuming;
    resuming.threads = resume_threads;
    resuming.checkpoint.directory = dir_.string();
    resuming.checkpoint.interval_ms = 3600000;
    resuming.resume = true;
    StatusOr<ClusterResult> resumed = LinkClusterer(resuming).run(graph);
    ASSERT_TRUE(resumed.ok()) << resumed.status().to_string();
    expect_identical(resumed.value(), reference);
  }
}

TEST_F(Checkpoint, CoarseModeRefusesCheckpointingAndResume) {
  // A coarse resume would rerun the whole build to save a short sweep, so
  // coarse mode has no snapshots: an interrupted run reruns from scratch.
  LinkClusterer::Config writing;
  writing.mode = ClusterMode::kCoarse;
  writing.checkpoint.directory = dir_.string();
  LinkClusterer::Config resuming = writing;
  resuming.resume = true;
  for (const LinkClusterer::Config& config : {writing, resuming}) {
    StatusOr<ClusterResult> run = LinkClusterer(config).run(fine_graph());
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(run.status().message().find("coarse mode does not checkpoint"),
              std::string::npos);
  }
  EXPECT_TRUE(fs::is_empty(dir_));
}

TEST_F(Checkpoint, FineResumeAtEightThreadsMatches) {
  const graph::WeightedGraph graph = fine_graph();
  const ClusterResult reference = LinkClusterer().cluster(graph);

  LinkClusterer::Config writing;
  writing.threads = 8;
  writing.checkpoint.directory = dir_.string();
  writing.checkpoint.interval_ms = 0;
  writing.checkpoint.max_snapshots = 16;
  (void)LinkClusterer(writing).cluster(graph);
  ASSERT_TRUE(fs::exists(snapshot_file()));

  LinkClusterer::Config resuming;
  resuming.threads = 8;
  resuming.checkpoint.directory = dir_.string();
  resuming.checkpoint.interval_ms = 3600000;
  resuming.resume = true;
  StatusOr<ClusterResult> resumed = LinkClusterer(resuming).run(graph);
  ASSERT_TRUE(resumed.ok()) << resumed.status().to_string();
  expect_identical(resumed.value(), reference);
}

TEST_F(Checkpoint, ResumeRefusesMismatchedFingerprint) {
  const graph::WeightedGraph graph = fine_graph();
  LinkClusterer::Config writing;
  writing.checkpoint.directory = dir_.string();
  writing.checkpoint.interval_ms = 0;
  writing.checkpoint.max_snapshots = 1;
  (void)LinkClusterer(writing).cluster(graph);
  ASSERT_TRUE(fs::exists(snapshot_file()));

  // Different enumeration seed -> different run entirely.
  LinkClusterer::Config resuming = writing;
  resuming.resume = true;
  resuming.seed = 43;
  StatusOr<ClusterResult> run = LinkClusterer(resuming).run(graph);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(run.status().message().find("refusing to resume"), std::string::npos);

  // Different graph -> the digest catches it and says so.
  resuming.seed = 42;
  StatusOr<ClusterResult> other = LinkClusterer(resuming).run(larger_graph());
  ASSERT_FALSE(other.ok());
  EXPECT_EQ(other.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(other.status().message().find("different graph"), std::string::npos);
}

TEST_F(Checkpoint, ResumeWithoutSnapshotIsAnError) {
  LinkClusterer::Config config;
  config.checkpoint.directory = dir_.string();
  config.resume = true;
  StatusOr<ClusterResult> run = LinkClusterer(config).run(fine_graph());
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(run.status().message().find("no loadable checkpoint"), std::string::npos);
}

TEST_F(Checkpoint, ResumeWithoutDirectoryIsAnError) {
  LinkClusterer::Config config;
  config.resume = true;
  StatusOr<ClusterResult> run = LinkClusterer(config).run(fine_graph());
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(run.status().message().find("checkpoint directory"), std::string::npos);
}

TEST_F(Checkpoint, TornPrimaryFallsBackToPrev) {
  const graph::WeightedGraph graph = fine_graph();
  const ClusterResult reference = LinkClusterer().cluster(graph);

  LinkClusterer::Config writing;
  writing.checkpoint.directory = dir_.string();
  writing.checkpoint.interval_ms = 0;
  writing.checkpoint.max_snapshots = 2;  // second commit rotates the first to .prev
  (void)LinkClusterer(writing).cluster(graph);
  ASSERT_TRUE(fs::exists(snapshot_file()));
  ASSERT_TRUE(fs::exists(snapshot_file() + ".prev"));

  // Tear the primary the way a crash mid-write would: truncate it.
  {
    std::ifstream in(snapshot_file(), std::ios::binary);
    std::string bytes{std::istreambuf_iterator<char>(in),
                      std::istreambuf_iterator<char>()};
    std::ofstream out(snapshot_file(), std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }

  const RunFingerprint fp = LinkClusterer::fingerprint(graph, writing);
  StatusOr<LoadedCheckpoint> loaded =
      load_checkpoint(dir_.string(), fp, graph.edge_count());
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_NE(loaded.value().source_path.find(".prev"), std::string::npos);

  LinkClusterer::Config resuming;
  resuming.checkpoint.directory = dir_.string();
  resuming.checkpoint.interval_ms = 3600000;
  resuming.resume = true;
  StatusOr<ClusterResult> resumed = LinkClusterer(resuming).run(graph);
  ASSERT_TRUE(resumed.ok()) << resumed.status().to_string();
  expect_identical(resumed.value(), reference);
}

TEST_F(Checkpoint, EveryByteFlipRefusesToLoad) {
  const graph::WeightedGraph graph =
      graph::erdos_renyi(20, 0.2, {11, graph::WeightPolicy::kUniform});
  LinkClusterer::Config writing;
  writing.checkpoint.directory = dir_.string();
  writing.checkpoint.interval_ms = 0;
  writing.checkpoint.max_snapshots = 1;
  (void)LinkClusterer(writing).cluster(graph);
  ASSERT_TRUE(fs::exists(snapshot_file()));

  std::string good;
  {
    std::ifstream in(snapshot_file(), std::ios::binary);
    good.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  ASSERT_GT(good.size(), 64u);

  const RunFingerprint fp = LinkClusterer::fingerprint(graph, writing);
  ASSERT_TRUE(load_checkpoint(dir_.string(), fp, graph.edge_count()).ok());
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x01);
    {
      std::ofstream out(snapshot_file(), std::ios::binary | std::ios::trunc);
      out.write(bad.data(), static_cast<std::streamsize>(bad.size()));
    }
    // No .prev exists: a flipped primary must be an error, never a result.
    EXPECT_FALSE(load_checkpoint(dir_.string(), fp, graph.edge_count()).ok())
        << "flip at byte " << i;
  }
}

TEST_F(Checkpoint, CheckpointerSwallowsWriteFailures) {
  // An unwritable directory: every snapshot fails, last_error() records it,
  // and the run itself still completes with the right answer.
  const graph::WeightedGraph graph = fine_graph();
  const ClusterResult reference = LinkClusterer().cluster(graph);

  LinkClusterer::Config config;
  config.checkpoint.directory = "/proc/definitely/not/writable";
  config.checkpoint.interval_ms = 0;
  StatusOr<ClusterResult> run = LinkClusterer(config).run(graph);
  ASSERT_TRUE(run.ok()) << run.status().to_string();
  expect_identical(run.value(), reference);
}

TEST_F(Checkpoint, BackoffDelaysDoubleAndStayBounded) {
  CheckpointPolicy policy;
  policy.backoff_initial_ms = 10;
  policy.backoff_max_ms = 100;
  EXPECT_EQ(backoff_delay_ms(policy, 0), 10u);
  EXPECT_EQ(backoff_delay_ms(policy, 1), 20u);
  EXPECT_EQ(backoff_delay_ms(policy, 2), 40u);
  EXPECT_EQ(backoff_delay_ms(policy, 3), 80u);
  EXPECT_EQ(backoff_delay_ms(policy, 4), 100u);  // capped
  EXPECT_EQ(backoff_delay_ms(policy, 63), 100u); // no overflow at any attempt
  policy.backoff_initial_ms = 0;
  EXPECT_EQ(backoff_delay_ms(policy, 0), 0u);    // immediate retries allowed
  EXPECT_EQ(backoff_delay_ms(policy, 5), 0u);
}

TEST_F(Checkpoint, ErrorRingKeepsTheMostRecentFailures) {
  CheckpointPolicy policy;
  policy.directory = "/proc/definitely/not/writable";
  policy.interval_ms = 0;
  policy.write_retries = 0;  // failures are deterministic, skip the backoff
  policy.degrade_after = 0;  // never give up: every write records an error
  Checkpointer checkpointer(policy, RunFingerprint{});

  FineCheckpoint state;
  state.cluster_c = {0, 1, 2};
  const std::size_t writes = Checkpointer::kErrorRing + 3;
  for (std::size_t i = 0; i < writes; ++i) {
    EXPECT_FALSE(checkpointer.write_fine(state).ok());
  }
  EXPECT_EQ(checkpointer.write_failures(), writes);
  EXPECT_EQ(checkpointer.consecutive_failures(), writes);
  EXPECT_FALSE(checkpointer.degraded());
  EXPECT_FALSE(checkpointer.last_error().ok());
  const std::vector<Status> recent = checkpointer.recent_errors();
  EXPECT_EQ(recent.size(), Checkpointer::kErrorRing);  // overwrote, not grew
  for (const Status& error : recent) EXPECT_FALSE(error.ok());
}

TEST_F(Checkpoint, ConsecutiveFailuresTripDegradedAndStopSnapshots) {
  CheckpointPolicy policy;
  policy.directory = "/proc/definitely/not/writable";
  policy.interval_ms = 0;
  policy.write_retries = 0;
  policy.degrade_after = 3;
  Checkpointer checkpointer(policy, RunFingerprint{});

  FineCheckpoint state;
  state.cluster_c = {0, 1, 2};
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(checkpointer.due());
    EXPECT_FALSE(checkpointer.write_fine(state).ok());
  }
  // Third consecutive failure: the checkpointer gives up — degraded health,
  // never due again, so the run stops paying for doomed writes.
  EXPECT_TRUE(checkpointer.degraded());
  EXPECT_FALSE(checkpointer.due());
  EXPECT_EQ(checkpointer.write_failures(), 3u);
}

TEST_F(Checkpoint, SuccessResetsTheConsecutiveCounter) {
  // Flip between an unwritable and a writable directory by pointing the
  // policy at a path that starts broken and becomes valid: simplest is two
  // checkpointers sharing the counters' contract — a success after failures
  // clears consecutive_failures but keeps the totals.
  CheckpointPolicy policy;
  policy.directory = dir_.string();
  policy.interval_ms = 0;
  policy.degrade_after = 5;
  Checkpointer checkpointer(policy, RunFingerprint{});

  FineCheckpoint state;
  state.cluster_c = {0, 1, 2};
  ASSERT_TRUE(checkpointer.write_fine(state).ok());
  EXPECT_EQ(checkpointer.consecutive_failures(), 0u);
  EXPECT_TRUE(checkpointer.last_error().ok());
  EXPECT_FALSE(checkpointer.degraded());
}

TEST_F(Checkpoint, DueRespectsIntervalAndCap) {
  CheckpointPolicy policy;
  policy.directory = dir_.string();
  policy.interval_ms = 0;
  policy.max_snapshots = 1;
  Checkpointer checkpointer(policy, RunFingerprint{});
  EXPECT_TRUE(checkpointer.due());

  FineCheckpoint state;
  state.cluster_c = {0, 1, 2};
  ASSERT_TRUE(checkpointer.write_fine(state).ok());
  EXPECT_EQ(checkpointer.snapshots_written(), 1u);
  EXPECT_GT(checkpointer.last_snapshot_bytes(), 0u);
  EXPECT_FALSE(checkpointer.due());  // cap reached

  CheckpointPolicy disabled;
  Checkpointer off(disabled, RunFingerprint{});
  EXPECT_FALSE(off.due());  // no directory, never due
}

}  // namespace
}  // namespace lc::core
