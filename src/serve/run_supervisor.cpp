#include "serve/run_supervisor.hpp"

#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <utility>
#include <vector>

#include "core/dendrogram_io.hpp"
#include "util/fault_inject.hpp"
#include "util/file_io.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"

namespace lc::serve {
namespace {

/// Doubles round-trip through the manifest as bit patterns: decimal text
/// could perturb a parameter, and the rerun would be a different run.
std::string f64_hex(double value) {
  return strprintf("0x%016llx",
                   static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(value)));
}

bool parse_u64(const std::string& text, std::uint64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 0);
  if (end == nullptr || *end != '\0') return false;
  *out = value;
  return true;
}

bool parse_f64_hex(const std::string& text, double* out) {
  std::uint64_t bits = 0;
  if (!parse_u64(text, &bits)) return false;
  *out = std::bit_cast<double>(bits);
  return true;
}

/// Writes `content` to `path` atomically (tmp + rename) so a reader — the
/// chaos smoke cmp-ing merge lists, a restarted server parsing a manifest —
/// never observes a half-written file.
Status write_file_atomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  if (Status written = write_text_file(tmp, content); !written.ok()) return written;
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::internal("rename " + tmp + " -> " + path + " failed");
  }
  return Status();
}

}  // namespace

const char* run_state_name(RunState state) {
  switch (state) {
    case RunState::kIdle:
      return "idle";
    case RunState::kRunning:
      return "running";
    case RunState::kDone:
      return "done";
    case RunState::kDegraded:
      return "degraded";
    case RunState::kCancelled:
      return "cancelled";
    case RunState::kFailed:
      return "failed";
  }
  return "failed";
}

std::string RunSupervisor::manifest_path(const std::string& directory) {
  return (std::filesystem::path(directory) / "run.manifest").string();
}

Status RunManifest::write(const std::string& path) const {
  std::string text = "lcserve-manifest v1\n";
  text += "graph=" + graph_path + "\n";
  text += "merges=" + merges_path + "\n";
  text += "threads=" + std::to_string(threads) + "\n";
  text += "mode=" + std::to_string(fingerprint.mode) + "\n";
  text += "edge_order=" + std::to_string(fingerprint.edge_order) + "\n";
  text += "measure=" + std::to_string(fingerprint.measure) + "\n";
  text += "seed=" + std::to_string(fingerprint.seed) + "\n";
  text += "min_similarity=" + f64_hex(fingerprint.min_similarity) + "\n";
  text += "gamma=" + f64_hex(fingerprint.gamma) + "\n";
  text += "phi=" + std::to_string(fingerprint.phi) + "\n";
  text += "delta0=" + std::to_string(fingerprint.delta0) + "\n";
  text += "eta0=" + f64_hex(fingerprint.eta0) + "\n";
  text += "rollback_capacity=" + std::to_string(fingerprint.rollback_capacity) + "\n";
  text += "max_rollbacks_per_level=" +
          std::to_string(fingerprint.max_rollbacks_per_level) + "\n";
  text += "graph_digest=" +
          strprintf("0x%016llx",
                    static_cast<unsigned long long>(fingerprint.graph_digest)) +
          "\n";
  return write_file_atomic(path, text);
}

StatusOr<RunManifest> RunManifest::read(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    return Status::invalid_argument("cannot read manifest " + path);
  }
  std::string line;
  if (!std::getline(file, line) || line != "lcserve-manifest v1") {
    return Status::invalid_argument("manifest " + path +
                                    " has an unknown header");
  }
  RunManifest manifest;
  const auto fail = [&path](const std::string& key) -> Status {
    return Status::invalid_argument("manifest " + path + ": bad field '" +
                                    key + "'");
  };
  std::uint64_t u64 = 0;
  while (std::getline(file, line)) {
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::invalid_argument("manifest " + path +
                                      ": line is not key=value");
    }
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    if (key == "graph") {
      manifest.graph_path = value;
    } else if (key == "merges") {
      manifest.merges_path = value;
    } else if (key == "threads") {
      if (!parse_u64(value, &manifest.threads)) return fail(key);
    } else if (key == "mode") {
      if (!parse_u64(value, &u64) || u64 > 0xff) return fail(key);
      manifest.fingerprint.mode = static_cast<std::uint8_t>(u64);
    } else if (key == "edge_order") {
      if (!parse_u64(value, &u64) || u64 > 0xff) return fail(key);
      manifest.fingerprint.edge_order = static_cast<std::uint8_t>(u64);
    } else if (key == "measure") {
      if (!parse_u64(value, &u64) || u64 > 0xff) return fail(key);
      manifest.fingerprint.measure = static_cast<std::uint8_t>(u64);
    } else if (key == "seed") {
      if (!parse_u64(value, &manifest.fingerprint.seed)) return fail(key);
    } else if (key == "min_similarity") {
      if (!parse_f64_hex(value, &manifest.fingerprint.min_similarity)) return fail(key);
    } else if (key == "gamma") {
      if (!parse_f64_hex(value, &manifest.fingerprint.gamma)) return fail(key);
    } else if (key == "phi") {
      if (!parse_u64(value, &manifest.fingerprint.phi)) return fail(key);
    } else if (key == "delta0") {
      if (!parse_u64(value, &manifest.fingerprint.delta0)) return fail(key);
    } else if (key == "eta0") {
      if (!parse_f64_hex(value, &manifest.fingerprint.eta0)) return fail(key);
    } else if (key == "rollback_capacity") {
      if (!parse_u64(value, &manifest.fingerprint.rollback_capacity)) return fail(key);
    } else if (key == "max_rollbacks_per_level") {
      if (!parse_u64(value, &manifest.fingerprint.max_rollbacks_per_level)) {
        return fail(key);
      }
    } else if (key == "graph_digest") {
      if (!parse_u64(value, &manifest.fingerprint.graph_digest)) return fail(key);
    }
    // Unknown keys are skipped: newer servers may add fields, and an old
    // binary recovering a newer manifest beats refusing to recover at all.
  }
  if (manifest.graph_path.empty()) {
    return Status::invalid_argument("manifest " + path + " names no graph");
  }
  return manifest;
}

RunSupervisor::~RunSupervisor() {
  cancel();
  wait(0);
  if (thread_.joinable()) thread_.join();
}

bool RunSupervisor::running() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return thread_active_;
}

RunReport RunSupervisor::report() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return report_;
}

std::shared_ptr<const core::ClusterResult> RunSupervisor::result() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return result_;
}

std::uint64_t RunSupervisor::runs_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return runs_total_;
}

std::uint64_t RunSupervisor::runs_failed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return runs_failed_;
}

void RunSupervisor::cancel() {
  std::shared_ptr<RunContext> ctx;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!thread_active_) return;
    cancel_requested_ = true;
    ctx = ctx_;
  }
  if (ctx != nullptr) ctx->request_cancel("cancelled by the supervisor");
}

bool RunSupervisor::wait(std::uint64_t timeout_ms) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto idle = [this] { return !thread_active_; };
  if (timeout_ms == 0) {
    finished_cv_.wait(lock, idle);
    return true;
  }
  return finished_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), idle);
}

Status RunSupervisor::launch(RunSpec spec) {
  std::uint64_t run_id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (thread_active_) {
      return Status::unavailable("a run is already in flight (run=" +
                                 std::to_string(report_.id) + ")");
    }
    if (spec.graph == nullptr) {
      return Status::invalid_argument("no graph loaded");
    }
    run_id = next_id_++;
    ++runs_total_;
    cancel_requested_ = false;
    report_ = RunReport{};
    report_.id = run_id;
    report_.state = RunState::kRunning;
    thread_active_ = true;
  }
  if (thread_.joinable()) thread_.join();  // reap the previous worker
  try {
    fault::maybe_fire("serve.worker.spawn");
    thread_ = std::thread([this, spec = std::move(spec), run_id]() mutable {
      worker(std::move(spec), run_id);
    });
  } catch (const std::exception& error) {
    // std::thread itself throws std::system_error when the OS is out of
    // threads (the serve.worker.spawn fault site models the same failure).
    // Roll the launch back so the server stays serviceable: the run never
    // started, so the slot must not stay occupied.
    std::lock_guard<std::mutex> lock(mutex_);
    thread_active_ = false;
    report_.state = RunState::kFailed;
    report_.status = Status::internal(std::string("cannot spawn worker: ") +
                                      error.what());
    ++runs_failed_;
    finished_cv_.notify_all();
    return report_.status;
  }
  return Status();
}

void RunSupervisor::worker(RunSpec spec, std::uint64_t run_id) {
  Stopwatch elapsed;
  RunReport report;
  report.id = run_id;
  report.state = RunState::kRunning;

  const std::string manifest =
      spec.state_dir.empty() || spec.graph_path.empty() ? "" : manifest_path(spec.state_dir);
  if (!manifest.empty()) {
    // Persist the manifest the startup autorecovery reruns; failure to
    // write it must not fail the run.
    std::error_code ec;
    std::filesystem::create_directories(spec.state_dir, ec);
    RunManifest m;
    m.fingerprint = core::LinkClusterer::fingerprint(*spec.graph, spec.config);
    m.threads = spec.config.threads;
    m.graph_path = spec.graph_path;
    m.merges_path = spec.merges_path;
    try {
      fault::maybe_fire("serve.manifest.write");
      (void)m.write(manifest);
    } catch (const std::exception&) {
      // Swallowed by design: losing the manifest only costs autorecovery
      // of this run, never the run itself.
    }
  }

  auto ctx = std::make_shared<RunContext>();
  if (spec.deadline_ms >= 0) {
    ctx->set_deadline_after(std::chrono::milliseconds(spec.deadline_ms));
  }
  if (spec.max_memory_mb > 0) {
    ctx->set_memory_budget(spec.max_memory_mb * 1024 * 1024);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ctx_ = ctx;
    if (cancel_requested_) ctx->request_cancel("cancelled by the supervisor");
    report_ = report;
  }
  spec.config.ctx = ctx.get();

  StatusOr<core::ClusterResult> run = core::LinkClusterer(spec.config).run(*spec.graph);
  report.memory_peak = ctx->memory_peak();
  std::shared_ptr<const core::ClusterResult> success;
  if (run.ok()) {
    auto result = std::make_shared<core::ClusterResult>(std::move(run).value());
    report.passes = result->passes;
    report.events = result->dendrogram.events().size();
    report.height = result->dendrogram.height();
    report.state = RunState::kDone;
    success = std::move(result);
  } else {
    report.status = run.status();
    report.state = report.status.code() == StatusCode::kCancelled ? RunState::kCancelled
                                                                   : RunState::kFailed;
  }
  report.elapsed_seconds = elapsed.seconds();

  if (success != nullptr) {
    if (!spec.merges_path.empty()) {
      const Status written = write_file_atomic(
          spec.merges_path, core::to_merge_list(success->dendrogram));
      if (!written.ok()) {
        // The dendrogram exists; only the export failed. Degrade, don't fail.
        report.state = RunState::kDegraded;
        report.status = written;
      }
    }
    if (!manifest.empty()) {
      // The run is complete; an autorecovery replay would only redo it.
      std::error_code ec;
      std::filesystem::remove(manifest, ec);
    }
  } else if (!manifest.empty() &&
             status_error_class(report.status.code()) == ErrorClass::kInput) {
    // Unusable requests will be just as unusable after a restart.
    std::error_code ec;
    std::filesystem::remove(manifest, ec);
  }

  std::lock_guard<std::mutex> lock(mutex_);
  if (success != nullptr) result_ = success;
  if (report.state == RunState::kFailed) ++runs_failed_;
  report_ = report;
  ctx_.reset();
  thread_active_ = false;
  finished_cv_.notify_all();
}

}  // namespace lc::serve
