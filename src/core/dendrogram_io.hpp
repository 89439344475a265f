// Dendrogram serialization: Newick trees (loadable by standard phylogeny /
// dendrogram viewers) and a flat text format for scripting. Extensions
// beyond the ICDCS paper so its output can actually be inspected downstream.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "core/dendrogram.hpp"
#include "util/status.hpp"

namespace lc::core {

/// Names a leaf (edge index) in exported output; defaults to "e<idx>".
using LeafNamer = std::function<std::string(EdgeIdx)>;

/// Newick export. Branch lengths are similarity drops: a child hanging off a
/// merge at similarity s has length (child_height - s), where leaves sit at
/// height 1 (the Tanimoto maximum). Multi-way coarse levels appear as
/// left-deep chains of zero-length internal edges.
std::string to_newick(const Dendrogram& dendrogram, const LeafNamer& namer = {});

/// Flat text: a "# leaves=N events=M" header, one "level from into
/// similarity" line per event, and a trailing "# fnv=<16 hex>" footer — the
/// FNV-1a checksum of the event-line bytes, so a truncated or edited file is
/// detected on load rather than silently reparsed. Each event line is the
/// bytes of printf("%u %u %u %.9g\n"), and the footer is the checksum of
/// exactly those bytes; the formatter writes them with std::to_chars into one
/// buffer sized up front, hashing each line as it is written.
std::string to_merge_list(const Dendrogram& dendrogram);

/// Parses to_merge_list() output. Untrusted input is safe: every malformed
/// byte — a garbled header, a non-numeric field, an out-of-range or
/// duplicated cluster id, a count overflow, a truncated final line, a
/// checksum mismatch — comes back as kInvalidArgument naming the byte offset
/// of the offence; nothing asserts, overreads, or over-allocates. The
/// checksum footer is verified when present and optional for backward
/// compatibility with files written before it existed.
[[nodiscard]] StatusOr<Dendrogram> parse_merge_list(std::string_view text);

/// parse_merge_list() behind the older optional-based signature; on failure
/// `*error` (if non-null) receives the status message.
std::optional<Dendrogram> from_merge_list(const std::string& text,
                                          std::string* error = nullptr);

}  // namespace lc::core
