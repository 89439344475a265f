#include "util/file_io.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace lc {
namespace {

/// Closes a read descriptor on every return, the throwing ones included.
struct FdCloser {
  int fd;
  ~FdCloser() { ::close(fd); }
};

Status errno_status(const char* what, const std::string& path, int error) {
  return Status::internal(std::string(what) + " '" + path + "': " + std::strerror(error));
}

}  // namespace

StatusOr<std::string> read_text_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return errno_status("cannot open", path, errno);
  const FdCloser closer{fd};
  // A regular file is read into a buffer one byte larger than its size, so
  // the read that sees end of file needs no growth; a pipe's size is 0.
  struct stat info {};
  const bool regular = ::fstat(fd, &info) == 0 && S_ISREG(info.st_mode);
  std::string text(regular ? static_cast<std::size_t>(info.st_size) + 1 : 1 << 16, '\0');
  std::size_t size = 0;
  for (;;) {
    if (size == text.size()) text.resize(2 * text.size());
    const ssize_t got = ::read(fd, text.data() + size, text.size() - size);
    if (got == 0) break;
    if (got < 0) {
      if (errno == EINTR) continue;
      return errno_status("cannot read", path, errno);
    }
    size += static_cast<std::size_t>(got);
  }
  text.resize(size);
  return text;
}

Status write_text_file(const std::string& path, std::string_view bytes) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return errno_status("cannot open", path, errno);
  if (std::fwrite(bytes.data(), 1, bytes.size(), file) != bytes.size() ||
      std::fflush(file) != 0) {
    const int error = errno;
    std::fclose(file);
    return errno_status("cannot write", path, error);
  }
  if (std::fclose(file) != 0) return errno_status("cannot write", path, errno);
  return Status();
}

}  // namespace lc
