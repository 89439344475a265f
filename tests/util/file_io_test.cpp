#include "util/file_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

namespace lc {
namespace {

std::string temp_path(const std::string& name) { return testing::TempDir() + "/" + name; }

TEST(FileIo, WriteThenReadRoundTrips) {
  const std::string path = temp_path("lc_file_io_round_trip.txt");
  std::string bytes(200000, 'x');
  bytes[7] = '\0';
  bytes.back() = '\n';
  ASSERT_TRUE(write_text_file(path, bytes).ok());
  const StatusOr<std::string> read = read_text_file(path);
  ASSERT_TRUE(read.ok()) << read.status().to_string();
  EXPECT_EQ(*read, bytes);
  // A rewrite truncates.
  ASSERT_TRUE(write_text_file(path, "short").ok());
  EXPECT_EQ(*read_text_file(path), "short");
  ASSERT_TRUE(write_text_file(path, "").ok());
  EXPECT_EQ(*read_text_file(path), "");
  std::remove(path.c_str());
}

TEST(FileIo, ErrorsNameThePathAndTheErrno) {
  const std::string missing = temp_path("lc_file_io_no_such_dir/file.txt");
  const StatusOr<std::string> read = read_text_file(missing);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().message(),
            "cannot open '" + missing + "': No such file or directory");
  const Status written = write_text_file(missing, "x");
  EXPECT_EQ(written.message(), "cannot open '" + missing + "': No such file or directory");

  const std::string dir = temp_path("lc_file_io_dir");
  std::filesystem::create_directories(dir);
  EXPECT_EQ(read_text_file(dir).status().message(),
            "cannot read '" + dir + "': Is a directory");
  std::filesystem::remove_all(dir);
}

TEST(FileIo, FullDeviceFailsAtTheWriteOrTheFlush) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  // Small writes sit in the stdio buffer until the flush; large ones go
  // straight to write(2). Both must fail.
  for (const std::size_t size : {std::size_t{10}, std::size_t{1} << 20}) {
    const Status written = write_text_file("/dev/full", std::string(size, 'x'));
    EXPECT_EQ(written.message(), "cannot write '/dev/full': No space left on device")
        << size;
  }
}

}  // namespace
}  // namespace lc
