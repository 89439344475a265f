#include "util/snapshot_io.hpp"

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "util/fault_inject.hpp"
#include "util/fnv.hpp"

namespace lc::snapshot {
namespace {

constexpr char kMagic[8] = {'L', 'C', 'S', 'N', 'A', 'P', '0', '1'};
constexpr std::uint32_t kSectionMagic = 0x54434553u;  // "SECT"
constexpr std::uint32_t kCommitMagic = 0x544D4F43u;   // "COMT"
constexpr std::size_t kHeaderBytes = 16;   // magic + version + section count
constexpr std::size_t kSectionHeaderBytes = 24;
constexpr std::size_t kTrailerBytes = 16;  // commit magic + reserved + checksum

void append_u32(std::string& out, std::uint32_t value) {
  char raw[sizeof(value)];
  std::memcpy(raw, &value, sizeof(value));
  out.append(raw, sizeof(value));
}

void append_u64(std::string& out, std::uint64_t value) {
  char raw[sizeof(value)];
  std::memcpy(raw, &value, sizeof(value));
  out.append(raw, sizeof(value));
}

std::uint32_t read_u32(const char* data) {
  std::uint32_t value = 0;
  std::memcpy(&value, data, sizeof(value));
  return value;
}

std::uint64_t read_u64(const char* data) {
  std::uint64_t value = 0;
  std::memcpy(&value, data, sizeof(value));
  return value;
}

Status offset_error(const char* what, std::size_t offset) {
  return Status::invalid_argument(std::string("snapshot: ") + what +
                                  " at byte " + std::to_string(offset));
}

struct FileCloser {
  std::FILE* file = nullptr;
  FileCloser(const FileCloser&) = delete;
  FileCloser& operator=(const FileCloser&) = delete;
  explicit FileCloser(std::FILE* f) : file(f) {}
  ~FileCloser() {
    if (file != nullptr) std::fclose(file);
  }
  void close() {
    if (file != nullptr) std::fclose(file);
    file = nullptr;
  }
};

std::atomic<FileOps*> g_file_ops_override{nullptr};

}  // namespace

std::size_t FileOps::write(std::FILE* file, const void* data, std::size_t size) {
  std::uint64_t draw = 0;
  switch (fault::consume_io("io.write", &draw)) {
    case fault::FaultKind::kWriteError:
      errno = EIO;
      return 0;
    case fault::FaultKind::kShortWrite: {
      // Land half the payload so the tmp file is plausibly torn, not empty.
      const std::size_t half = size / 2;
      if (half > 0) std::fwrite(data, 1, half, file);
      errno = EIO;
      return half;
    }
    default:
      break;
  }
  return std::fwrite(data, 1, size, file);
}

int FileOps::flush_and_sync(std::FILE* file) {
  if (fault::consume_io("io.fsync") == fault::FaultKind::kFsyncError) {
    errno = EIO;
    return -1;
  }
  if (std::fflush(file) != 0) return -1;
  return ::fsync(::fileno(file));
}

int FileOps::rename_file(const char* from, const char* to) {
  if (fault::consume_io("io.rename") == fault::FaultKind::kRenameError) {
    errno = EIO;
    return -1;
  }
  return std::rename(from, to);
}

void FileOps::post_publish(const std::string& path) {
  std::uint64_t draw = 0;
  if (fault::consume_io("io.corrupt", &draw) != fault::FaultKind::kCorrupt) {
    return;
  }
  // Flip one byte at a seeded offset: the commit already reported success,
  // so only load()'s checksums stand between this and a wrong resume.
  FileCloser file(std::fopen(path.c_str(), "r+b"));
  if (file.file == nullptr) return;
  if (std::fseek(file.file, 0, SEEK_END) != 0) return;
  const long size = std::ftell(file.file);
  if (size <= 0) return;
  const long offset =
      static_cast<long>(draw % static_cast<std::uint64_t>(size));
  if (std::fseek(file.file, offset, SEEK_SET) != 0) return;
  const int byte = std::fgetc(file.file);
  if (byte == EOF) return;
  if (std::fseek(file.file, offset, SEEK_SET) != 0) return;
  std::fputc(byte ^ 0xFF, file.file);
}

FileOps& file_ops() {
  static FileOps default_ops;
  FileOps* override = g_file_ops_override.load(std::memory_order_acquire);
  return override != nullptr ? *override : default_ops;
}

FileOps* set_file_ops(FileOps* ops) {
  return g_file_ops_override.exchange(ops, std::memory_order_acq_rel);
}

void SectionWriter::u8(std::uint8_t value) {
  payload_.push_back(static_cast<char>(value));
}

void SectionWriter::u32(std::uint32_t value) { append_u32(payload_, value); }

void SectionWriter::u64(std::uint64_t value) { append_u64(payload_, value); }

void SectionWriter::f64(double value) {
  char raw[sizeof(value)];
  std::memcpy(raw, &value, sizeof(value));
  payload_.append(raw, sizeof(value));
}

void SectionWriter::bytes(const void* data, std::size_t size) {
  if (size > 0) payload_.append(static_cast<const char*>(data), size);
}

void SnapshotWriter::add_section(std::uint32_t id, SectionWriter body) {
  sections_.emplace_back(id, std::move(body));
}

std::string SnapshotWriter::serialize() const {
  std::size_t total = kHeaderBytes + kTrailerBytes;
  for (const auto& [id, body] : sections_) {
    total += kSectionHeaderBytes + body.size();
  }
  std::string out;
  out.reserve(total);
  out.append(kMagic, sizeof(kMagic));
  append_u32(out, kFormatVersion);
  append_u32(out, static_cast<std::uint32_t>(sections_.size()));
  for (const auto& [id, body] : sections_) {
    append_u32(out, kSectionMagic);
    append_u32(out, id);
    append_u64(out, body.size());
    append_u64(out, fnv1a64(body.payload().data(), body.size()));
    out += body.payload();
  }
  // Commit trailer: written last, checksum over everything before itself.
  append_u32(out, kCommitMagic);
  append_u32(out, 0);
  append_u64(out, fnv1a64(out.data(), out.size()));
  return out;
}

Status SnapshotWriter::commit(const std::string& path) {
  fault::maybe_fire("snapshot.serialize");
  const std::string blob = serialize();
  const std::string tmp = path + ".tmp";
  const std::string prev = path + ".prev";
  FileOps& ops = file_ops();
  // A *failed* commit must not orphan its torn tmp file — only a crash may
  // leave one (and the Checkpointer sweeps that residue at startup). The
  // guard unlinks the tmp on every error return; publishing disarms it.
  struct TmpCleaner {
    const std::string& tmp;
    bool keep = false;
    ~TmpCleaner() {
      if (!keep) std::remove(tmp.c_str());
    }
  } cleaner{tmp};
  {
    FileCloser out(std::fopen(tmp.c_str(), "wb"));
    if (out.file == nullptr) {
      return Status::internal("snapshot: cannot open " + tmp + ": " +
                              std::strerror(errno));
    }
    // Crash window: the tmp file is open and possibly half-written; the
    // primary and .prev are untouched.
    fault::maybe_fire("snapshot.write");
    const std::size_t wrote = ops.write(out.file, blob.data(), blob.size());
    if (wrote != blob.size()) {
      return Status::internal("snapshot: short write to " + tmp + " (" +
                              std::to_string(wrote) + " of " +
                              std::to_string(blob.size()) + " bytes)");
    }
    if (ops.flush_and_sync(out.file) != 0) {
      return Status::internal("snapshot: cannot flush " + tmp + ": " +
                              std::strerror(errno));
    }
  }
  std::error_code ec;
  if (std::filesystem::exists(path, ec)) {
    if (ops.rename_file(path.c_str(), prev.c_str()) != 0) {
      return Status::internal("snapshot: cannot rotate " + path + " to " + prev +
                              ": " + std::strerror(errno));
    }
  }
  // Crash window: the primary is gone but .prev holds the last good
  // snapshot; readers fall back to it.
  fault::maybe_fire("snapshot.rename");
  if (ops.rename_file(tmp.c_str(), path.c_str()) != 0) {
    return Status::internal("snapshot: cannot publish " + tmp + " as " + path +
                            ": " + std::strerror(errno));
  }
  cleaner.keep = true;  // the rename consumed the tmp
  ops.post_publish(path);
  committed_bytes_ = blob.size();
  return Status();
}

Status SectionReader::bytes(void* out, std::size_t size) {
  if (size > remaining()) {
    return offset_error("truncated section read", file_offset_ + cursor_);
  }
  if (size > 0) std::memcpy(out, data_ + cursor_, size);
  cursor_ += size;
  return Status();
}

Status SectionReader::u8(std::uint8_t* out) { return bytes(out, sizeof(*out)); }

Status SectionReader::u32(std::uint32_t* out) { return bytes(out, sizeof(*out)); }

Status SectionReader::u64(std::uint64_t* out) { return bytes(out, sizeof(*out)); }

Status SectionReader::f64(double* out) { return bytes(out, sizeof(*out)); }

Status SectionReader::expect_end() const {
  if (cursor_ != size_) {
    return offset_error("trailing bytes in section", file_offset_ + cursor_);
  }
  return Status();
}

StatusOr<Snapshot> Snapshot::load(const std::string& path) {
  fault::maybe_fire("snapshot.load");
  Snapshot snapshot;
  {
    FileCloser in(std::fopen(path.c_str(), "rb"));
    if (in.file == nullptr) {
      return Status::invalid_argument("snapshot: cannot open " + path + ": " +
                                      std::strerror(errno));
    }
    char buffer[1 << 16];
    std::size_t got = 0;
    while ((got = std::fread(buffer, 1, sizeof(buffer), in.file)) > 0) {
      snapshot.data_.append(buffer, got);
    }
    if (std::ferror(in.file) != 0) {
      return Status::internal("snapshot: read error on " + path);
    }
  }
  const std::string& data = snapshot.data_;
  if (data.size() < kHeaderBytes + kTrailerBytes) {
    return offset_error("file too small for header + trailer", data.size());
  }
  if (std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    return offset_error("bad magic", 0);
  }
  const std::uint32_t version = read_u32(data.data() + 8);
  if (version != kFormatVersion) {
    return Status::invalid_argument(
        "snapshot: unsupported format version " + std::to_string(version) +
        " (want " + std::to_string(kFormatVersion) + ") at byte 8");
  }
  // Validate the commit trailer first: its whole-file checksum catches any
  // corruption or truncation before section headers are even looked at.
  const std::size_t trailer = data.size() - kTrailerBytes;
  if (read_u32(data.data() + trailer) != kCommitMagic) {
    return offset_error("missing commit marker (torn write?)", trailer);
  }
  const std::uint64_t want_file = read_u64(data.data() + trailer + 8);
  const std::uint64_t got_file = fnv1a64(data.data(), trailer + 8);
  if (want_file != got_file) {
    return offset_error("whole-file checksum mismatch", trailer + 8);
  }
  const std::uint32_t section_count = read_u32(data.data() + 12);
  std::size_t cursor = kHeaderBytes;
  for (std::uint32_t s = 0; s < section_count; ++s) {
    if (trailer - cursor < kSectionHeaderBytes) {
      return offset_error("truncated section header", cursor);
    }
    if (read_u32(data.data() + cursor) != kSectionMagic) {
      return offset_error("bad section magic", cursor);
    }
    const std::uint32_t id = read_u32(data.data() + cursor + 4);
    const std::uint64_t size = read_u64(data.data() + cursor + 8);
    const std::uint64_t want = read_u64(data.data() + cursor + 16);
    cursor += kSectionHeaderBytes;
    if (size > trailer - cursor) {
      return offset_error("section overruns the file", cursor - 16);
    }
    const auto payload_size = static_cast<std::size_t>(size);
    if (fnv1a64(data.data() + cursor, payload_size) != want) {
      return offset_error("section checksum mismatch", cursor);
    }
    snapshot.sections_.push_back(SectionInfo{id, cursor, payload_size});
    cursor += payload_size;
  }
  if (cursor != trailer) {
    return offset_error("unaccounted bytes between sections and trailer", cursor);
  }
  return snapshot;
}

bool Snapshot::has_section(std::uint32_t id) const {
  for (const SectionInfo& info : sections_) {
    if (info.id == id) return true;
  }
  return false;
}

StatusOr<SectionReader> Snapshot::section(std::uint32_t id) const {
  for (const SectionInfo& info : sections_) {
    if (info.id == id) {
      return SectionReader(data_.data() + info.offset, info.size, info.offset);
    }
  }
  return Status::invalid_argument("snapshot: missing section id " +
                                  std::to_string(id));
}

}  // namespace lc::snapshot
