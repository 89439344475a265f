// Crash-consistent binary snapshot container (DESIGN.md §11).
//
// A snapshot file is a small set of typed, independently checksummed
// sections:
//
//   [0]      magic "LCSNAP01" (8 bytes)
//   [8]      u32 format version (kFormatVersion)
//   [12]     u32 section count
//            per section: u32 section magic, u32 id, u64 payload size,
//                         u64 FNV-1a checksum of the payload, payload bytes
//   [EOF-16] trailer: u32 commit magic, u32 reserved (0),
//            u64 FNV-1a checksum of every byte before the checksum field
//
// The trailer is the *commit marker*: it is the last thing written, and its
// whole-file checksum covers everything before it, so a torn write (crash
// mid-write, truncation, any byte flip) is always detected — load() returns
// an error Status naming the byte offset, never a wrong snapshot.
//
// Durability protocol (SnapshotWriter::commit):
//   1. serialize to memory,
//   2. write + fsync "<path>.tmp",
//   3. rename the current "<path>" (if any) to "<path>.prev",
//   4. rename "<path>.tmp" to "<path>".
// Each rename is atomic on POSIX, so a crash at any instant leaves either a
// valid "<path>" or a valid "<path>.prev"; readers fall back to ".prev" when
// the primary is missing or fails validation (core/checkpoint.cpp does).
//
// Integers are fixed-width and written in the host byte order (pod_vector
// payloads are raw memcpy), so snapshots resume on the machine — or
// architecture — that wrote them; they are not an interchange format.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "util/status.hpp"

namespace lc::snapshot {

inline constexpr std::uint32_t kFormatVersion = 1;

/// Pluggable file operations behind SnapshotWriter::commit — the seam the
/// chaos engine injects disk faults through. The default implementation
/// performs the real calls after consulting fault::consume_io() at the
/// io.write / io.fsync / io.rename / io.corrupt sites, so LC_FAULT_PLAN
/// clauses on those sites fail snapshot commits.
/// Tests may install their own ops (set_file_ops) to count or reorder calls.
class FileOps {
 public:
  virtual ~FileOps() = default;

  /// fwrite semantics: bytes actually written; fewer than `size` (with
  /// errno set) is a short write.
  virtual std::size_t write(std::FILE* file, const void* data, std::size_t size);

  /// fflush + fsync; 0 on success, -1 with errno set on failure.
  virtual int flush_and_sync(std::FILE* file);

  /// ::rename semantics (used for both the rotate-to-.prev and the publish
  /// rename).
  virtual int rename_file(const char* from, const char* to);

  /// Called once after a successful publish with the final path. The
  /// default delivers io.corrupt by flipping one deterministic byte in
  /// place — the commit "succeeded" but the disk lied; only load()'s
  /// checksums can catch it.
  virtual void post_publish(const std::string& path);
};

/// The ops commit() uses (the fault-aware default until set_file_ops
/// installs another).
[[nodiscard]] FileOps& file_ops();

/// Installs `ops` (nullptr restores the default); returns the previous
/// override (nullptr when the default was active).
FileOps* set_file_ops(FileOps* ops);

/// Append-only serializer for one section's payload.
class SectionWriter {
 public:
  void u8(std::uint8_t value);
  void u32(std::uint32_t value);
  void u64(std::uint64_t value);
  void f64(double value);
  void bytes(const void* data, std::size_t size);

  /// u64 element count, then the elements as one raw byte block. T must be
  /// trivially copyable AND padding-free (is_standard_layout + exact size is
  /// the caller's responsibility): padding bytes would serialize
  /// uninitialized memory. Structs with padding serialize field-wise instead.
  template <typename T>
  void pod_vector(const std::vector<T>& values) {
    static_assert(std::is_trivially_copyable_v<T>);
    u64(values.size());
    bytes(values.data(), values.size() * sizeof(T));
  }

  [[nodiscard]] const std::string& payload() const { return payload_; }
  [[nodiscard]] std::size_t size() const { return payload_.size(); }

 private:
  std::string payload_;
};

/// Assembles sections and commits them to disk atomically.
class SnapshotWriter {
 public:
  /// Adds one section (ids must be unique; checked on commit by readers
  /// only finding the first).
  void add_section(std::uint32_t id, SectionWriter body);

  /// Serializes and durably replaces `path` per the protocol above. On
  /// failure the primary and ".prev" files are untouched (a stale ".tmp"
  /// may remain; the next commit overwrites it). Phase fault sites:
  /// "snapshot.serialize", "snapshot.write" (while the tmp file is open),
  /// "snapshot.rename" (between the two renames — the torn window). Disk
  /// faults (short write, EIO, rename failure, post-publish corruption)
  /// inject through the FileOps seam above at the io.* sites.
  [[nodiscard]] Status commit(const std::string& path);

  /// Bytes of the last successful commit's file.
  [[nodiscard]] std::uint64_t committed_bytes() const { return committed_bytes_; }

 private:
  [[nodiscard]] std::string serialize() const;

  std::vector<std::pair<std::uint32_t, SectionWriter>> sections_;
  std::uint64_t committed_bytes_ = 0;
};

/// Bounds-checked cursor over one loaded section. Every read past the
/// section end returns an error Status carrying the absolute file offset.
class SectionReader {
 public:
  SectionReader(const char* data, std::size_t size, std::size_t file_offset)
      : data_(data), size_(size), file_offset_(file_offset) {}

  [[nodiscard]] Status u8(std::uint8_t* out);
  [[nodiscard]] Status u32(std::uint32_t* out);
  [[nodiscard]] Status u64(std::uint64_t* out);
  [[nodiscard]] Status f64(double* out);
  [[nodiscard]] Status bytes(void* out, std::size_t size);

  /// Inverse of SectionWriter::pod_vector. `max_count` bounds the element
  /// count before any allocation, so a corrupt length cannot trigger a
  /// gigantic resize (the checksums make corruption unreachable in practice;
  /// this keeps the reader safe standalone).
  template <typename T>
  [[nodiscard]] Status pod_vector(std::vector<T>* out, std::uint64_t max_count) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::uint64_t count = 0;
    if (Status status = u64(&count); !status.ok()) return status;
    if (count > max_count || count > remaining() / sizeof(T)) {
      return Status::invalid_argument(
          "snapshot: implausible element count at byte " +
          std::to_string(file_offset_ + cursor_ - 8));
    }
    out->resize(count);
    return bytes(out->data(), static_cast<std::size_t>(count) * sizeof(T));
  }

  [[nodiscard]] std::size_t remaining() const { return size_ - cursor_; }

  /// Error if payload bytes remain unconsumed (a format drift guard).
  [[nodiscard]] Status expect_end() const;

 private:
  const char* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t file_offset_ = 0;  ///< of payload[0] in the file, for messages
  std::size_t cursor_ = 0;
};

/// A fully validated snapshot file held in memory.
class Snapshot {
 public:
  /// Reads and validates `path`: magic, version, commit trailer, whole-file
  /// checksum, then every section header + per-section checksum. Any
  /// violation — including a single flipped byte anywhere before the stored
  /// checksum, or a truncation — returns an error Status with a byte offset.
  /// Fault site: "snapshot.load".
  [[nodiscard]] static StatusOr<Snapshot> load(const std::string& path);

  [[nodiscard]] bool has_section(std::uint32_t id) const;

  /// Reader over the payload of section `id`; error if absent.
  [[nodiscard]] StatusOr<SectionReader> section(std::uint32_t id) const;

  [[nodiscard]] std::size_t section_count() const { return sections_.size(); }
  [[nodiscard]] std::uint64_t file_bytes() const { return data_.size(); }

 private:
  struct SectionInfo {
    std::uint32_t id = 0;
    std::size_t offset = 0;  ///< payload start in data_
    std::size_t size = 0;    ///< payload bytes
  };

  std::string data_;
  std::vector<SectionInfo> sections_;
};

}  // namespace lc::snapshot
