#include "util/snapshot_io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace lc::snapshot {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test scratch directory under the system temp dir.
class SnapshotIo : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("lc_snapshot_io_" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    path_ = (dir_ / "state.lcsnap").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string read_file() const {
    std::ifstream in(path_, std::ios::binary);
    EXPECT_TRUE(in.good());
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  }

  void write_file(const std::string& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  fs::path dir_;
  std::string path_;
};

SnapshotWriter make_writer(std::uint32_t tag = 7) {
  SectionWriter body;
  body.u8(5);
  body.u32(tag);
  body.u64(0x1122334455667788ull);
  body.f64(0.25);
  body.pod_vector(std::vector<std::uint32_t>{1, 2, 3});
  SnapshotWriter writer;
  writer.add_section(1, std::move(body));
  return writer;
}

TEST_F(SnapshotIo, RoundTrip) {
  SnapshotWriter writer = make_writer();
  ASSERT_TRUE(writer.commit(path_).ok());
  EXPECT_GT(writer.committed_bytes(), 0u);

  StatusOr<Snapshot> loaded = Snapshot::load(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value().section_count(), 1u);
  EXPECT_TRUE(loaded.value().has_section(1));
  EXPECT_FALSE(loaded.value().has_section(2));
  EXPECT_EQ(loaded.value().file_bytes(), writer.committed_bytes());

  StatusOr<SectionReader> section = loaded.value().section(1);
  ASSERT_TRUE(section.ok());
  SectionReader reader = section.value();
  std::uint8_t v8 = 0;
  std::uint32_t v32 = 0;
  std::uint64_t v64 = 0;
  double vf = 0.0;
  std::vector<std::uint32_t> pod;
  ASSERT_TRUE(reader.u8(&v8).ok());
  ASSERT_TRUE(reader.u32(&v32).ok());
  ASSERT_TRUE(reader.u64(&v64).ok());
  ASSERT_TRUE(reader.f64(&vf).ok());
  ASSERT_TRUE(reader.pod_vector(&pod, 100).ok());
  EXPECT_TRUE(reader.expect_end().ok());
  EXPECT_EQ(v8, 5);
  EXPECT_EQ(v32, 7u);
  EXPECT_EQ(v64, 0x1122334455667788ull);
  EXPECT_EQ(vf, 0.25);
  EXPECT_EQ(pod, (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST_F(SnapshotIo, CommitRotatesPreviousSnapshot) {
  ASSERT_TRUE(make_writer(1).commit(path_).ok());
  ASSERT_TRUE(make_writer(2).commit(path_).ok());

  auto read_tag = [](const std::string& file) -> std::uint32_t {
    StatusOr<Snapshot> snap = Snapshot::load(file);
    EXPECT_TRUE(snap.ok()) << snap.status().to_string();
    StatusOr<SectionReader> section = snap.value().section(1);
    EXPECT_TRUE(section.ok());
    SectionReader reader = section.value();
    std::uint8_t v8 = 0;
    std::uint32_t tag = 0;
    EXPECT_TRUE(reader.u8(&v8).ok());
    EXPECT_TRUE(reader.u32(&tag).ok());
    return tag;
  };
  EXPECT_EQ(read_tag(path_), 2u);
  EXPECT_EQ(read_tag(path_ + ".prev"), 1u);
  EXPECT_FALSE(fs::exists(path_ + ".tmp"));
}

TEST_F(SnapshotIo, MissingFileIsAnError) {
  const StatusOr<Snapshot> loaded = Snapshot::load(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SnapshotIo, EveryTruncationIsDetected) {
  ASSERT_TRUE(make_writer().commit(path_).ok());
  const std::string good = read_file();
  for (std::size_t keep = 0; keep < good.size(); ++keep) {
    write_file(good.substr(0, keep));
    EXPECT_FALSE(Snapshot::load(path_).ok()) << "truncated to " << keep << " bytes";
  }
}

TEST_F(SnapshotIo, EveryByteFlipIsDetected) {
  ASSERT_TRUE(make_writer().commit(path_).ok());
  const std::string good = read_file();
  ASSERT_TRUE(Snapshot::load(path_).ok());
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    write_file(bad);
    EXPECT_FALSE(Snapshot::load(path_).ok()) << "flip at byte " << i;
  }
}

TEST_F(SnapshotIo, TrailingGarbageIsDetected) {
  ASSERT_TRUE(make_writer().commit(path_).ok());
  write_file(read_file() + "garbage");
  EXPECT_FALSE(Snapshot::load(path_).ok());
}

TEST_F(SnapshotIo, GarbageFileIsAnError) {
  write_file("this is not a snapshot at all, not even close............");
  const StatusOr<Snapshot> loaded = Snapshot::load(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("at byte"), std::string::npos);
}

TEST_F(SnapshotIo, ReadPastSectionEndIsAnError) {
  SectionWriter body;
  body.u32(9);
  SnapshotWriter writer;
  writer.add_section(3, std::move(body));
  ASSERT_TRUE(writer.commit(path_).ok());

  StatusOr<Snapshot> loaded = Snapshot::load(path_);
  ASSERT_TRUE(loaded.ok());
  SectionReader reader = loaded.value().section(3).value();
  std::uint64_t v64 = 0;
  const Status overrun = reader.u64(&v64);  // only 4 payload bytes exist
  ASSERT_FALSE(overrun.ok());
  EXPECT_NE(overrun.message().find("at byte"), std::string::npos);
}

TEST_F(SnapshotIo, UnconsumedPayloadFailsExpectEnd) {
  SnapshotWriter writer = make_writer();
  ASSERT_TRUE(writer.commit(path_).ok());
  StatusOr<Snapshot> loaded = Snapshot::load(path_);
  ASSERT_TRUE(loaded.ok());
  SectionReader reader = loaded.value().section(1).value();
  std::uint8_t v8 = 0;
  ASSERT_TRUE(reader.u8(&v8).ok());
  EXPECT_FALSE(reader.expect_end().ok());
}

TEST_F(SnapshotIo, ImplausiblePodCountIsRejectedBeforeAllocation) {
  SectionWriter body;
  body.u64(1ull << 60);  // a pod_vector length field with no payload behind it
  SnapshotWriter writer;
  writer.add_section(4, std::move(body));
  ASSERT_TRUE(writer.commit(path_).ok());

  StatusOr<Snapshot> loaded = Snapshot::load(path_);
  ASSERT_TRUE(loaded.ok());
  SectionReader reader = loaded.value().section(4).value();
  std::vector<std::uint64_t> out;
  const Status status = reader.pod_vector(&out, 1ull << 62);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("implausible"), std::string::npos);
  EXPECT_TRUE(out.empty());
}

TEST_F(SnapshotIo, MissingSectionIsAnError) {
  ASSERT_TRUE(make_writer().commit(path_).ok());
  StatusOr<Snapshot> loaded = Snapshot::load(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded.value().section(42).ok());
}

}  // namespace
}  // namespace lc::snapshot
