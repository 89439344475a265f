// Shared pieces of lc_suite, the benchmark's helper binary (see README.md).
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/link_clusterer.hpp"
#include "util/rng.hpp"

namespace lc::suite {

/// A flat JSON object built field by field: every lc_suite command prints
/// one as its last stdout line, for run.py to parse.
class JsonObject {
 public:
  JsonObject& num(std::string_view key, double value);
  JsonObject& count(std::string_view key, std::uint64_t value);
  JsonObject& str(std::string_view key, std::string_view value);
  JsonObject& boolean(std::string_view key, bool value);
  /// `json` must already be valid JSON (an array or a nested object).
  JsonObject& raw(std::string_view key, std::string_view json);
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  void key(std::string_view name);
  std::string body_;
};

[[nodiscard]] std::string json_number(double value);
[[nodiscard]] std::string json_string(std::string_view value);
[[nodiscard]] std::string json_array(const std::vector<double>& values);
[[nodiscard]] std::string json_array(const std::vector<std::string>& values);

[[nodiscard]] std::optional<std::string> read_file(const std::string& path);
[[nodiscard]] bool write_file(const std::string& path, std::string_view text);

/// Times a fixed single-thread loop (dependent loads through 4 MiB, then an
/// ALU chain) in ms. On a shared host it slows with the clustering runs,
/// which is what run.py's box-speed correction relies on.
[[nodiscard]] double calib_ms();

/// The digest in a merge list's "# fnv=" footer; empty when there is none.
[[nodiscard]] std::string merge_list_fnv(std::string_view text);

/// `--checkpoint-every-ms` of the checkpointing workload (run.py passes the
/// same value to `linkcluster cluster`).
constexpr std::uint64_t kCheckpointEveryMs = 100;

/// The `linkcluster cluster` flags the benchmark passes, and the config the
/// CLI builds from them (every other flag at its default).
struct ClusterSpec {
  core::ClusterMode mode = core::ClusterMode::kFine;
  std::size_t threads = 1;
  std::string checkpoint_dir;  ///< empty = no snapshots
};

[[nodiscard]] core::LinkClusterer::Config cluster_config(const ClusterSpec& spec);

/// Parses "fine" / "coarse"; false on anything else.
[[nodiscard]] bool parse_mode(const std::string& text, core::ClusterMode* mode);
[[nodiscard]] std::string mode_name(core::ClusterMode mode);

/// Spawns `argv` (argv[0] a path) with stdin and stdout on the given
/// descriptors; stderr is inherited. Throws std::runtime_error on failure.
[[nodiscard]] pid_t spawn(const std::vector<std::string>& argv, int stdin_fd, int stdout_fd);

struct Reaped {
  bool clean = false;    ///< exited with status 0
  double rss_mib = 0.0;  ///< peak resident set (ru_maxrss)
};

/// Waits for a spawned child. Throws std::runtime_error if wait4 fails.
Reaped reap(pid_t pid);

/// One `lc serve` query of the benchmark's read mix.
enum class QueryKind : std::uint8_t {
  kLookup = 0,           ///< member edge=E (final labels, O(1))
  kMemberThreshold = 1,  ///< member edge=E threshold=T (a threshold replay)
  kCutThreshold = 2,     ///< cut threshold=T
  kCutK = 3,             ///< cut k=K
};

struct Query {
  QueryKind kind = QueryKind::kLookup;
  std::string line;        ///< the protocol request
  double threshold = 0.0;  ///< kMemberThreshold / kCutThreshold
  std::uint64_t k = 0;     ///< kCutK
};

/// The seeded read mix: half `member edge=` lookups, half cuts split evenly
/// over member-at-threshold, cut-at-threshold and cut-to-k. Thresholds are
/// drawn from the dendrogram's own merge heights so every cut lands inside
/// the hierarchy.
class QueryMix {
 public:
  QueryMix(std::uint64_t seed, std::uint64_t edges, std::vector<double> heights);
  Query next();

 private:
  Rng rng_;
  std::uint64_t edges_;
  std::vector<double> heights_;
};

/// The merge heights (event similarities) of a dendrogram.
[[nodiscard]] std::vector<double> merge_heights(const core::Dendrogram& dendrogram);

int cmd_trace(int argc, const char* const* argv);
int cmd_serve_client(int argc, const char* const* argv);

}  // namespace lc::suite
