// Minimal machine-readable bench output: BENCH_<name>.json files carrying a
// workload description plus one record per measured configuration. The format
// is deliberately tiny (fopen/fprintf, no dependency) — downstream tooling
// diffs these files across commits to track the hot-path speedups.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "util/fault_inject.hpp"

namespace lc::bench {

struct BenchRun {
  std::size_t threads = 1;
  double wall_ms = 0.0;
  std::uint64_t peak_bytes = 0;   ///< VmHWM at the end of the run (0 = unknown)
  std::string extra;              ///< optional extra fields, raw JSON ("\"k\": v, ...")
};

/// The hardware/toolchain context a bench file was produced under — numbers
/// from different machines or build flags are not comparable, so the context
/// rides along in the JSON for downstream diff tooling to check.
inline std::string bench_context_json() {
  std::string compiler;
#if defined(__clang__)
  compiler = "clang " + std::to_string(__clang_major__) + "." +
             std::to_string(__clang_minor__);
#elif defined(__GNUC__)
  compiler = "gcc " + std::to_string(__GNUC__) + "." + std::to_string(__GNUC_MINOR__);
#else
  compiler = "unknown";
#endif
  std::string flags;
#if defined(NDEBUG)
  flags = "NDEBUG";
#else
  flags = "assertions";
#endif
#if defined(__OPTIMIZE__)
  flags += " -O";
#endif
  // The fault plan active in this process — or merely present in the
  // environment, since a bench that never arms it still ran under an
  // operator who intended fault injection. Non-empty means the numbers are
  // contaminated and must not be compared with clean runs.
  std::string plan = lc::fault::active_plan();
  if (plan.empty()) {
    const char* value = std::getenv("LC_FAULT_PLAN");
    if (value != nullptr) plan = value;
  }
  std::string escaped;
  escaped.reserve(plan.size());
  for (const char c : plan) {
    if (c == '"' || c == '\\') escaped += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) escaped += c;
  }
  return "\"hardware_concurrency\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": \"" + compiler + "\", \"build\": \"" + flags +
         "\", \"fault_plan\": \"" + escaped + "\"";
}

/// Writes {"name", "workload", "context": {...}, "runs": [{threads, wall_ms,
/// peak_bytes, ...}]}. Returns false (with a message on stderr) if the file
/// cannot be opened.
inline bool write_bench_json(const std::string& path, const std::string& name,
                             const std::string& workload, const std::vector<BenchRun>& runs) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "bench_json: cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(file, "{\n  \"name\": \"%s\",\n  \"workload\": \"%s\",\n  \"context\": {%s},\n  \"runs\": [\n",
               name.c_str(), workload.c_str(), bench_context_json().c_str());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const BenchRun& run = runs[i];
    std::fprintf(file, "    {\"threads\": %zu, \"wall_ms\": %.3f, \"peak_bytes\": %llu%s%s}%s\n",
                 run.threads, run.wall_ms, static_cast<unsigned long long>(run.peak_bytes),
                 run.extra.empty() ? "" : ", ", run.extra.c_str(),
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(file, "  ]\n}\n");
  std::fclose(file);
  return true;
}

}  // namespace lc::bench
