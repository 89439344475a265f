// Whole-file text I/O with checked errors: one bulk read to end of file, and
// one write whose flush and close are checked, so that neither a directory
// passed as input nor a full disk passes unnoticed.
#pragma once

#include <string>
#include <string_view>

#include "util/status.hpp"

namespace lc {

/// Reads `path` to end of file. Regular files, pipes and /dev/stdin all
/// work. A failure names the path and the errno text ("cannot read '/tmp':
/// Is a directory").
[[nodiscard]] StatusOr<std::string> read_text_file(const std::string& path);

/// Creates or truncates `path` and writes `bytes` to it in one write, then
/// checks the flush and the close: a full device ("/dev/full") is an error
/// naming the path, not a silently short file.
[[nodiscard]] Status write_text_file(const std::string& path, std::string_view bytes);

}  // namespace lc
