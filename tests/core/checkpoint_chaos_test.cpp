// Chaos-engine coverage of the checkpoint durability story: injected I/O
// faults (short write, EIO on write/fsync, rename failure, post-publish
// corruption) delivered through the util/snapshot_io FileOps seam, exercising
// the Checkpointer retry/backoff ring, the ".prev" fallback, the
// double-corruption resource-class refusal, and the stale ".tmp" cleanup.
#include "core/checkpoint.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "util/fault_inject.hpp"
#include "util/status.hpp"

namespace lc::core {
namespace {

namespace fs = std::filesystem;

class CheckpointChaos : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("lc_chk_chaos_" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    fault::disarm();
    fs::remove_all(dir_);
  }

  void arm(const std::string& plan_text) {
    const StatusOr<fault::FaultPlan> plan = fault::parse_plan(plan_text);
    ASSERT_TRUE(plan.ok()) << plan.status().to_string();
    ASSERT_TRUE(fault::arm_plan(*plan).ok());
  }

  [[nodiscard]] std::string snapshot_file() const {
    return snapshot_path(dir_.string());
  }

  [[nodiscard]] CheckpointPolicy fast_policy() const {
    CheckpointPolicy policy;
    policy.directory = dir_.string();
    policy.interval_ms = 0;
    policy.backoff_initial_ms = 0;  // immediate retries, no test latency
    return policy;
  }

  static FineCheckpoint tiny_state(std::uint64_t entry_pos) {
    FineCheckpoint state;
    state.entry_pos = entry_pos;
    state.cluster_c = {0, 1, 2};
    return state;
  }

  static void flip_middle_byte(const std::string& path) {
    std::string bytes;
    {
      std::ifstream in(path, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
    }
    ASSERT_GT(bytes.size(), 0u);
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0xFF);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  fs::path dir_;
};

TEST_F(CheckpointChaos, WriteErrorHealsWithinRetryBudget) {
  arm("io.write:write_error:max=1");
  CheckpointPolicy policy = fast_policy();
  policy.write_retries = 2;
  Checkpointer checkpointer(policy, RunFingerprint{});

  ASSERT_TRUE(checkpointer.write_fine(tiny_state(1)).ok());
  EXPECT_EQ(checkpointer.snapshots_written(), 1u);
  EXPECT_EQ(checkpointer.write_retries_used(), 1u);  // one attempt was burned
  EXPECT_EQ(checkpointer.write_failures(), 0u);      // ...but the snapshot landed
  EXPECT_FALSE(checkpointer.degraded());

  fault::disarm();
  const StatusOr<LoadedCheckpoint> loaded =
      load_checkpoint(dir_.string(), RunFingerprint{}, 3);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded->fine.entry_pos, 1u);
}

TEST_F(CheckpointChaos, ShortWriteIsDetectedAndRetried) {
  arm("io.write:short_write:max=1");
  CheckpointPolicy policy = fast_policy();
  policy.write_retries = 2;
  Checkpointer checkpointer(policy, RunFingerprint{});

  ASSERT_TRUE(checkpointer.write_fine(tiny_state(1)).ok());
  EXPECT_EQ(checkpointer.write_retries_used(), 1u);
  fault::disarm();
  EXPECT_TRUE(load_checkpoint(dir_.string(), RunFingerprint{}, 3).ok());
}

TEST_F(CheckpointChaos, FsyncAndRenameFaultsHealToo) {
  arm("io.fsync:fsync_error:max=1;io.rename:rename_error:max=1");
  CheckpointPolicy policy = fast_policy();
  policy.write_retries = 3;
  Checkpointer checkpointer(policy, RunFingerprint{});

  ASSERT_TRUE(checkpointer.write_fine(tiny_state(1)).ok());
  EXPECT_GE(checkpointer.write_retries_used(), 2u);
  EXPECT_EQ(checkpointer.write_failures(), 0u);
  fault::disarm();
  EXPECT_TRUE(load_checkpoint(dir_.string(), RunFingerprint{}, 3).ok());
}

TEST_F(CheckpointChaos, UnboundedWriteErrorTripsDegradation) {
  arm("io.write:write_error");  // every attempt fails
  CheckpointPolicy policy = fast_policy();
  policy.write_retries = 0;
  policy.degrade_after = 2;
  Checkpointer checkpointer(policy, RunFingerprint{});

  EXPECT_FALSE(checkpointer.write_fine(tiny_state(1)).ok());
  EXPECT_FALSE(checkpointer.write_fine(tiny_state(2)).ok());
  EXPECT_TRUE(checkpointer.degraded());
  EXPECT_FALSE(checkpointer.due());  // in-memory only from here on
  EXPECT_EQ(checkpointer.write_failures(), 2u);
  // The failed commits never published a file (nor left a torn tmp behind).
  EXPECT_FALSE(fs::exists(snapshot_file()));
  EXPECT_FALSE(fs::exists(snapshot_file() + ".tmp"));
}

TEST_F(CheckpointChaos, InjectedCorruptionFallsBackToPrev) {
  CheckpointPolicy policy = fast_policy();
  Checkpointer checkpointer(policy, RunFingerprint{});
  ASSERT_TRUE(checkpointer.write_fine(tiny_state(1)).ok());

  // The second commit "succeeds" — then the post-publish corruption flips a
  // byte in the primary. The checksummed load must reject it and resume from
  // the rotated ".prev" (the first snapshot).
  arm("seed=17;io.corrupt:corrupt:max=1");
  ASSERT_TRUE(checkpointer.write_fine(tiny_state(2)).ok());
  fault::disarm();

  const StatusOr<LoadedCheckpoint> loaded =
      load_checkpoint(dir_.string(), RunFingerprint{}, 3);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_NE(loaded->source_path.find(".prev"), std::string::npos);
  EXPECT_EQ(loaded->fine.entry_pos, 1u);
}

TEST_F(CheckpointChaos, DoubleCorruptionIsAResourceClassError) {
  CheckpointPolicy policy = fast_policy();
  Checkpointer checkpointer(policy, RunFingerprint{});
  ASSERT_TRUE(checkpointer.write_fine(tiny_state(1)).ok());
  ASSERT_TRUE(checkpointer.write_fine(tiny_state(2)).ok());
  ASSERT_TRUE(fs::exists(snapshot_file()));
  ASSERT_TRUE(fs::exists(snapshot_file() + ".prev"));

  flip_middle_byte(snapshot_file());
  flip_middle_byte(snapshot_file() + ".prev");

  // Storage holding only corrupt snapshots is an operational failure, not a
  // user mistake: resource class, so serve can flag degraded health instead
  // of silently starting fresh.
  const StatusOr<LoadedCheckpoint> loaded =
      load_checkpoint(dir_.string(), RunFingerprint{}, 3);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(status_error_class(loaded.status().code()), ErrorClass::kResource);
  EXPECT_NE(loaded.status().message().find("corrupt"), std::string::npos);
}

TEST_F(CheckpointChaos, MissingCheckpointStaysInputClass) {
  // Nothing on disk at all: that is a caller mistake (resume without a prior
  // run), not storage corruption.
  const StatusOr<LoadedCheckpoint> loaded =
      load_checkpoint(dir_.string(), RunFingerprint{}, 3);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CheckpointChaos, ConstructionSweepsStaleTmp) {
  const std::string tmp = snapshot_file() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary);
    out << "torn half-written snapshot";
  }
  ASSERT_TRUE(fs::exists(tmp));
  Checkpointer checkpointer(fast_policy(), RunFingerprint{});
  EXPECT_FALSE(fs::exists(tmp));  // crash residue swept on startup

  // A disabled checkpointer must not touch the directory.
  {
    std::ofstream out(tmp, std::ios::binary);
    out << "torn again";
  }
  Checkpointer off(CheckpointPolicy{}, RunFingerprint{});
  EXPECT_TRUE(fs::exists(tmp));
}

}  // namespace
}  // namespace lc::core
