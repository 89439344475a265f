#include "suite.hpp"

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/stopwatch.hpp"
#include "util/strings.hpp"

extern char** environ;

namespace lc::suite {

std::string json_number(double value) {
  return std::isfinite(value) ? strprintf("%.17g", value) : "null";
}

std::string json_string(std::string_view value) {
  std::string out = "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += strprintf("\\u%04x", static_cast<unsigned>(static_cast<unsigned char>(c)));
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += json_number(values[i]);
  }
  return out + "]";
}

std::string json_array(const std::vector<std::string>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += json_string(values[i]);
  }
  return out + "]";
}

void JsonObject::key(std::string_view name) {
  if (!body_.empty()) body_ += ',';
  body_ += json_string(name);
  body_ += ':';
}

JsonObject& JsonObject::num(std::string_view name, double value) {
  key(name);
  body_ += json_number(value);
  return *this;
}

JsonObject& JsonObject::count(std::string_view name, std::uint64_t value) {
  key(name);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::str(std::string_view name, std::string_view value) {
  key(name);
  body_ += json_string(value);
  return *this;
}

JsonObject& JsonObject::boolean(std::string_view name, bool value) {
  key(name);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::raw(std::string_view name, std::string_view json) {
  key(name);
  body_ += json;
  return *this;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return std::nullopt;
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

bool write_file(const std::string& path, std::string_view text) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file.write(text.data(), static_cast<std::streamsize>(text.size()));
  file.close();
  return static_cast<bool>(file);
}

double calib_ms() {
  constexpr std::size_t kTable = std::size_t{1} << 20;
  std::vector<std::uint32_t> table(kTable);
  Rng rng(12345);
  for (std::uint32_t& slot : table) slot = static_cast<std::uint32_t>(rng.next_below(kTable));
  Stopwatch watch;
  std::uint32_t at = 0;
  for (std::size_t i = 0; i < (std::size_t{1} << 21); ++i) at = table[at];
  std::uint64_t x = at;
  for (std::size_t i = 0; i < 20'000'000; ++i) x = x * 6364136223846793005ull + 1442695040888963407ull;
  asm volatile("" : : "r"(x));  // keeps both loops observable
  return watch.millis();
}

std::string merge_list_fnv(std::string_view text) {
  constexpr std::string_view kFooter = "# fnv=";
  const std::size_t at = text.rfind(kFooter);
  if (at == std::string_view::npos || (at > 0 && text[at - 1] != '\n')) return "";
  std::string_view digest = text.substr(at + kFooter.size());
  return std::string(digest.substr(0, digest.find('\n')));
}

core::LinkClusterer::Config cluster_config(const ClusterSpec& spec) {
  core::LinkClusterer::Config config;
  config.mode = spec.mode;
  config.threads = spec.threads;
  config.checkpoint.directory = spec.checkpoint_dir;
  config.checkpoint.interval_ms = kCheckpointEveryMs;
  return config;
}

bool parse_mode(const std::string& text, core::ClusterMode* mode) {
  if (text == "fine") {
    *mode = core::ClusterMode::kFine;
  } else if (text == "coarse") {
    *mode = core::ClusterMode::kCoarse;
  } else {
    return false;
  }
  return true;
}

std::string mode_name(core::ClusterMode mode) {
  return mode == core::ClusterMode::kFine ? "fine" : "coarse";
}

pid_t spawn(const std::vector<std::string>& argv, int stdin_fd, int stdout_fd) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, stdin_fd, STDIN_FILENO);
  posix_spawn_file_actions_adddup2(&actions, stdout_fd, STDOUT_FILENO);
  std::vector<char*> args;
  for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  pid_t pid = -1;
  const int spawned = posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (spawned != 0) {
    throw std::runtime_error("cannot spawn " + argv[0] + ": " + std::strerror(spawned));
  }
  return pid;
}

Reaped reap(pid_t pid) {
  int status = 0;
  rusage usage = {};
  if (::wait4(pid, &status, 0, &usage) != pid) throw std::runtime_error("wait4 failed");
  return {WIFEXITED(status) && WEXITSTATUS(status) == 0,
          static_cast<double>(usage.ru_maxrss) / 1024.0};
}

QueryMix::QueryMix(std::uint64_t seed, std::uint64_t edges, std::vector<double> heights)
    : rng_(seed), edges_(edges), heights_(std::move(heights)) {
  LC_CHECK_MSG(edges_ > 0 && !heights_.empty(), "query mix needs edges and merges");
}

Query QueryMix::next() {
  Query query;
  const std::uint64_t draw = rng_.next_below(6);
  const std::uint64_t edge = rng_.next_below(edges_);
  query.threshold = heights_[rng_.next_below(heights_.size())];
  query.k = 1 + rng_.next_below(edges_);
  const std::string threshold = strprintf("%.17g", query.threshold);
  if (draw < 3) {
    query.kind = QueryKind::kLookup;
    query.line = "member edge=" + std::to_string(edge);
  } else if (draw == 3) {
    query.kind = QueryKind::kMemberThreshold;
    query.line = "member edge=" + std::to_string(edge) + " threshold=" + threshold;
  } else if (draw == 4) {
    query.kind = QueryKind::kCutThreshold;
    query.line = "cut threshold=" + threshold;
  } else {
    query.kind = QueryKind::kCutK;
    query.line = "cut k=" + std::to_string(query.k);
  }
  return query;
}

std::vector<double> merge_heights(const core::Dendrogram& dendrogram) {
  std::vector<double> heights;
  heights.reserve(dendrogram.events().size());
  for (const core::MergeEvent& event : dendrogram.events()) heights.push_back(event.similarity);
  return heights;
}

}  // namespace lc::suite
