#include "cli/chaos.hpp"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/checkpoint.hpp"
#include "core/dendrogram_io.hpp"
#include "core/link_clusterer.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "serve/run_supervisor.hpp"
#include "util/cli.hpp"
#include "util/fault_inject.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace lc::cli {
namespace {

// Every schedule clusters the same small ER graph, so the fault-free merge
// lists can be computed once in-process and compared byte-for-byte against
// whatever the tortured children leave behind.
constexpr std::size_t kGraphVertices = 64;
constexpr double kGraphDensity = 0.12;
constexpr std::uint64_t kGraphSeed = 9;
constexpr std::uint64_t kClusterSeed = 42;
constexpr std::uint32_t kChildTimeoutMs = 120000;

struct ChaosEnv {
  std::string exe;      ///< our own binary, re-exec'd as the child
  std::string workdir;  ///< scratch root; one subdirectory per schedule
  std::string graph;    ///< the shared edge-list file
  std::string ref_fine;
  std::string ref_coarse;
  bool verbose = false;
  std::ostream* log = nullptr;
};

const std::string& reference(const ChaosEnv& env, const std::string& mode) {
  return mode == "coarse" ? env.ref_coarse : env.ref_fine;
}

std::string read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

bool flip_byte(const std::string& path, std::uint64_t draw) {
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  if (!file) return false;
  file.seekg(0, std::ios::end);
  const std::streamoff size = file.tellg();
  if (size <= 0) return false;
  const std::streamoff offset =
      static_cast<std::streamoff>(draw % static_cast<std::uint64_t>(size));
  file.seekg(offset);
  const int byte = file.get();
  if (byte < 0) return false;
  file.seekp(offset);
  file.put(static_cast<char>(byte ^ 0xFF));
  return file.good();
}

bool wait_for_file(const std::string& path, std::uint32_t timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  std::error_code ec;
  while (!std::filesystem::exists(path, ec)) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

struct Child {
  pid_t pid = -1;
  int stdin_fd = -1;  ///< write end of the child's stdin pipe, -1 = /dev/null
  std::string stdout_path;
  std::string stderr_path;
};

struct ExitInfo {
  bool spawn_failed = false;
  bool timed_out = false;
  bool signaled = false;
  int signal_no = 0;
  int code = -1;
};

/// fork + execv of our own binary with `args` as the subcommand line.
/// `plan` (may be empty) becomes the child's LC_FAULT_PLAN; an empty plan
/// scrubs the variable so ambient state cannot leak into a schedule.
/// stdout/stderr land in files (never pipes, so a chatty child can't
/// deadlock against us).
Child spawn_child(const ChaosEnv& env, const std::vector<std::string>& args,
                  const std::string& plan, const std::string& dir,
                  const std::string& tag, bool want_stdin) {
  Child child;
  child.stdout_path = dir + "/" + tag + ".out";
  child.stderr_path = dir + "/" + tag + ".err";
  int pipe_fds[2] = {-1, -1};
  if (want_stdin && ::pipe(pipe_fds) != 0) return child;
  const pid_t pid = ::fork();
  if (pid < 0) {
    if (want_stdin) {
      ::close(pipe_fds[0]);
      ::close(pipe_fds[1]);
    }
    return child;
  }
  if (pid == 0) {
    if (want_stdin) {
      ::dup2(pipe_fds[0], STDIN_FILENO);
      ::close(pipe_fds[0]);
      ::close(pipe_fds[1]);
    } else {
      const int devnull = ::open("/dev/null", O_RDONLY);
      if (devnull >= 0) ::dup2(devnull, STDIN_FILENO);
    }
    const int out_fd = ::open(child.stdout_path.c_str(),
                              O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int err_fd = ::open(child.stderr_path.c_str(),
                              O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (out_fd >= 0) ::dup2(out_fd, STDOUT_FILENO);
    if (err_fd >= 0) ::dup2(err_fd, STDERR_FILENO);
    if (plan.empty()) {
      ::unsetenv("LC_FAULT_PLAN");
    } else {
      ::setenv("LC_FAULT_PLAN", plan.c_str(), 1);
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 2);
    static char name[] = "linkcluster";
    argv.push_back(name);
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(env.exe.c_str(), argv.data());
    _exit(127);
  }
  if (want_stdin) {
    ::close(pipe_fds[0]);
    child.stdin_fd = pipe_fds[1];
  }
  child.pid = pid;
  return child;
}

void write_stdin(Child& child, const std::string& text) {
  if (child.stdin_fd < 0) return;
  std::size_t offset = 0;
  while (offset < text.size()) {
    const ssize_t n =
        ::write(child.stdin_fd, text.data() + offset, text.size() - offset);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    offset += static_cast<std::size_t>(n);
  }
}

void close_stdin(Child& child) {
  if (child.stdin_fd >= 0) {
    ::close(child.stdin_fd);
    child.stdin_fd = -1;
  }
}

ExitInfo await_child(Child& child, std::uint32_t timeout_ms) {
  ExitInfo info;
  if (child.pid < 0) {
    info.spawn_failed = true;
    return info;
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  int status = 0;
  while (true) {
    const pid_t done = ::waitpid(child.pid, &status, WNOHANG);
    if (done == child.pid) break;
    if (done < 0 && errno != EINTR) {
      info.spawn_failed = true;
      close_stdin(child);
      return info;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      info.timed_out = true;
      ::kill(child.pid, SIGKILL);
      ::waitpid(child.pid, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  close_stdin(child);
  if (WIFEXITED(status)) {
    info.code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    info.signaled = true;
    info.signal_no = WTERMSIG(status);
  }
  return info;
}

/// One schedule's violation log. Keeping it a plain string list means a
/// scenario can record several independent violations before giving up.
using Violations = std::vector<std::string>;

void expect(Violations& bad, bool ok, const std::string& what) {
  if (!ok) bad.push_back(what);
}

/// Exit must be inside the CLI taxonomy (0 ok / 1 usage / 2 runtime /
/// 3 stopped); a signal death we did not inflict is always a violation.
void expect_exit(Violations& bad, const ExitInfo& info, int want,
                 const std::string& step) {
  if (info.spawn_failed) {
    bad.push_back(step + ": could not spawn the child");
    return;
  }
  if (info.timed_out) {
    bad.push_back(step + ": child hung past " +
                  std::to_string(kChildTimeoutMs) + " ms");
    return;
  }
  if (info.signaled) {
    bad.push_back(step + ": child died on signal " +
                  std::to_string(info.signal_no) +
                  " instead of exiting with code " + std::to_string(want));
    return;
  }
  if (info.code != want) {
    bad.push_back(step + ": exit code " + std::to_string(info.code) +
                  ", expected " + std::to_string(want));
  }
}

void expect_merges(Violations& bad, const ChaosEnv& env,
                   const std::string& mode, const std::string& merges_path,
                   const std::string& step) {
  std::error_code ec;
  if (!std::filesystem::exists(merges_path, ec)) {
    bad.push_back(step + ": merge list " + merges_path + " was never written");
    return;
  }
  if (read_file(merges_path) != reference(env, mode)) {
    bad.push_back(step + ": recovered merge list differs from the fault-free " +
                  mode + " reference");
  }
}

void expect_no_orphan_tmp(Violations& bad, const std::string& ckpt_dir,
                          const std::string& step) {
  std::error_code ec;
  const std::string tmp = core::snapshot_path(ckpt_dir) + ".tmp";
  if (std::filesystem::exists(tmp, ec)) {
    bad.push_back(step + ": orphan " + tmp + " survived recovery");
  }
}

/// A fine run snapshots at every boundary into `ckpt_dir`; a coarse run
/// writes no snapshots.
std::vector<std::string> cluster_args(const ChaosEnv& env,
                                      const std::string& mode,
                                      const std::string& ckpt_dir,
                                      const std::string& merges, bool resume) {
  std::vector<std::string> args = {
      "cluster", "--input",  env.graph, "--mode", mode, "--threads", "2",
      "--seed",  std::to_string(kClusterSeed), "--merges", merges};
  if (mode == "fine") {
    args.insert(args.end(),
                {"--checkpoint-dir", ckpt_dir, "--checkpoint-every-ms", "0"});
  }
  if (resume) args.push_back("--resume");
  return args;
}

ExitInfo run_cluster(const ChaosEnv& env, const std::string& plan,
                     const std::string& dir, const std::string& mode,
                     bool resume, const std::string& tag) {
  Child child = spawn_child(
      env, cluster_args(env, mode, dir + "/ckpt", dir + "/merges.txt", resume),
      plan, dir, tag, /*want_stdin=*/false);
  return await_child(child, kChildTimeoutMs);
}

std::string pick_mode(Rng& rng) {
  return rng.next_below(2) == 0 ? "fine" : "coarse";
}

/// "seed=N;" prefix each plan starts with, from the schedule's own stream —
/// the plan's probability draws replay with the schedule.
std::string plan_seed(Rng& rng) {
  return "seed=" + std::to_string(rng.next_u64());
}

// --- scenarios ------------------------------------------------------------

/// Bounded disk faults on a fine run's snapshots: at most two injected I/O
/// failures in total, which the default two retries per commit must absorb
/// without surfacing anything.
void scenario_cluster_faults(const ChaosEnv& env, Rng& rng,
                             const std::string& dir, Violations& bad) {
  static const char* kFaults[] = {"io.write:write_error:max=1",
                                  "io.write:short_write:max=1",
                                  "io.fsync:fsync_error:max=1"};
  const std::string mode = "fine";
  std::string plan = plan_seed(rng);
  const std::size_t clauses = 1 + rng.next_below(2);
  for (std::size_t i = 0; i < clauses; ++i) {
    plan += ";";
    plan += kFaults[rng.next_below(3)];
  }
  const ExitInfo run = run_cluster(env, plan, dir, mode, false, "run");
  expect_exit(bad, run, 0, "cluster_faults");
  expect_merges(bad, env, mode, dir + "/merges.txt", "cluster_faults");
  expect_no_orphan_tmp(bad, dir + "/ckpt", "cluster_faults");
}

/// A fatal runtime fault must exit through the taxonomy (bad_alloc → 3,
/// generic throw → 2), and a clean rerun must produce the reference bytes.
/// Every memory charge lies on the run's own path, so the fault always
/// lands: a clean exit is a violation.
void scenario_cluster_fatal(const ChaosEnv& env, Rng& rng,
                            const std::string& dir, Violations& bad) {
  const std::string mode = pick_mode(rng);
  const bool oom = rng.next_below(2) == 0;
  const std::string plan =
      plan_seed(rng) + ";memory.charge:" + (oom ? "bad_alloc" : "throw") +
      ":skip=" + std::to_string(rng.next_below(3)) + ":max=1";
  const ExitInfo fatal = run_cluster(env, plan, dir, mode, false, "fatal");
  expect_exit(bad, fatal, oom ? 3 : 2, "cluster_fatal");
  const ExitInfo recover = run_cluster(env, "", dir, mode, false, "recover");
  expect_exit(bad, recover, 0, "cluster_fatal recovery");
  expect_merges(bad, env, mode, dir + "/merges.txt", "cluster_fatal recovery");
  expect_no_orphan_tmp(bad, dir + "/ckpt", "cluster_fatal recovery");
}

/// SIGKILL a fine run once a snapshot exists, then --resume: the recovered
/// merge list must be byte-identical and the crash's ".tmp" must be cleaned
/// up.
void scenario_cluster_kill(const ChaosEnv& env, Rng& rng,
                           const std::string& dir, Violations& bad,
                           bool corrupt_after) {
  const std::string mode = "fine";
  const std::string ckpt = dir + "/ckpt";
  const std::string primary = core::snapshot_path(ckpt);
  // The sleep clause widens the kill window without changing any output.
  const std::string plan =
      plan_seed(rng) + ";memory.charge:sleep:sleep=15:p=0.5:max=100";
  Child child = spawn_child(env, cluster_args(env, mode, ckpt,
                                              dir + "/merges.txt", false),
                            plan, dir, "victim", /*want_stdin=*/false);
  const bool snapshot_seen = wait_for_file(primary, 15000);
  if (snapshot_seen && child.pid > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(rng.next_below(40)));
    ::kill(child.pid, SIGKILL);
  }
  const ExitInfo victim = await_child(child, kChildTimeoutMs);
  if (!victim.signaled && victim.code == 0) {
    // The run beat the kill. Its output still has to be right.
    expect_merges(bad, env, mode, dir + "/merges.txt", "cluster_kill (outran)");
    expect_no_orphan_tmp(bad, ckpt, "cluster_kill (outran)");
    return;
  }

  std::error_code ec;
  const bool has_primary = std::filesystem::exists(primary, ec);
  const bool has_prev = std::filesystem::exists(primary + ".prev", ec);
  if (corrupt_after && (has_primary || has_prev)) {
    if (has_prev && has_primary && rng.next_below(2) == 0) {
      // Corrupt the primary only: recovery must fall back to ".prev" and
      // still reproduce the reference bytes.
      expect(bad, flip_byte(primary, rng.next_u64()),
             "cluster_corrupt: could not corrupt the primary snapshot");
      const ExitInfo recover =
          run_cluster(env, "", dir, mode, true, "recover");
      expect_exit(bad, recover, 0, "cluster_corrupt .prev fallback");
      expect_merges(bad, env, mode, dir + "/merges.txt",
                    "cluster_corrupt .prev fallback");
    } else {
      // Corrupt every snapshot file: resume must refuse with the stopped
      // exit code (resource-class), and a fresh run must still succeed.
      if (has_primary) {
        expect(bad, flip_byte(primary, rng.next_u64()),
               "cluster_corrupt: could not corrupt the primary snapshot");
      }
      if (has_prev) {
        expect(bad, flip_byte(primary + ".prev", rng.next_u64()),
               "cluster_corrupt: could not corrupt the .prev snapshot");
      }
      const ExitInfo refused =
          run_cluster(env, "", dir, mode, true, "refused");
      expect_exit(bad, refused, 3, "cluster_corrupt double corruption");
      const ExitInfo fresh = run_cluster(env, "", dir, mode, false, "fresh");
      expect_exit(bad, fresh, 0, "cluster_corrupt fresh rerun");
      expect_merges(bad, env, mode, dir + "/merges.txt",
                    "cluster_corrupt fresh rerun");
    }
  } else {
    const bool resume = has_primary || has_prev;
    const ExitInfo recover =
        run_cluster(env, "", dir, mode, resume, "recover");
    expect_exit(bad, recover, 0, "cluster_kill recovery");
    expect_merges(bad, env, mode, dir + "/merges.txt", "cluster_kill recovery");
  }
  expect_no_orphan_tmp(bad, ckpt, "cluster_kill recovery");
}

std::vector<std::string> serve_args(const std::string& state_dir) {
  return {"serve", "--state-dir", state_dir, "--threads", "2"};
}

std::string serve_script(const ChaosEnv& env, const std::string& mode,
                         const std::string& merges) {
  return "load path=" + env.graph + "\nrun mode=" + mode +
         " threads=2 seed=" + std::to_string(kClusterSeed) +
         " merges=" + merges + "\nwait timeout_ms=" +
         std::to_string(kChildTimeoutMs) + "\nhealth\nshutdown\n";
}

/// A scripted serve session whose run hits an injected allocation failure.
/// The server must survive it, report it and acknowledge shutdown.
void scenario_serve_faults(const ChaosEnv& env, Rng& rng,
                           const std::string& dir, Violations& bad) {
  const std::string mode = pick_mode(rng);
  const std::string merges = dir + "/merges.txt";
  const std::string plan = plan_seed(rng) + ";memory.charge:bad_alloc:skip=" +
                           std::to_string(rng.next_below(3)) + ":max=1";
  Child child = spawn_child(env, serve_args(dir + "/state"), plan, dir, "serve",
                            /*want_stdin=*/true);
  write_stdin(child, serve_script(env, mode, merges));
  close_stdin(child);
  const ExitInfo info = await_child(child, kChildTimeoutMs);
  expect_exit(bad, info, 0, "serve_faults");
  const std::string out = read_file(child.stdout_path);
  expect(bad, out.find("ok bye=1") != std::string::npos,
         "serve_faults: server never acknowledged shutdown");
  // The run does no speculative work, so the injected bad_alloc always
  // lands on its path: the run fails with a resource-class error, and the
  // server stays up to report it.
  expect(bad, out.find("state=failed") != std::string::npos,
         "serve_faults: the injected allocation failure did not fail the run");
  expect(bad, out.find("class=resource") != std::string::npos,
         "serve_faults: injected allocation failure was not reported as a "
         "resource-class error");
  expect(bad, out.find("runs_failed=1") != std::string::npos,
         "serve_faults: health does not count the failed run");
}

/// SIGKILL a serving process mid-run, then restart it: autorecovery must
/// rerun the manifest's run from scratch, leave a byte-identical merge list
/// and write no snapshot into the state directory.
void scenario_serve_kill(const ChaosEnv& env, Rng& rng,
                         const std::string& dir, Violations& bad) {
  const std::string mode = pick_mode(rng);
  const std::string state = dir + "/state";
  const std::string merges = dir + "/merges.txt";
  const std::string manifest = serve::RunSupervisor::manifest_path(state);
  const std::string plan =
      plan_seed(rng) + ";memory.charge:sleep:sleep=15:p=0.5:max=100";
  Child victim = spawn_child(env, serve_args(state), plan, dir, "victim",
                             /*want_stdin=*/true);
  write_stdin(victim, "load path=" + env.graph + "\nrun mode=" + mode +
                          " threads=2 seed=" + std::to_string(kClusterSeed) +
                          " merges=" + merges + "\n");
  const bool manifest_seen = wait_for_file(manifest, 15000);
  if (manifest_seen && victim.pid > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(rng.next_below(40)));
  }
  if (victim.pid > 0) ::kill(victim.pid, SIGKILL);
  (void)await_child(victim, kChildTimeoutMs);

  std::error_code ec;
  const bool manifest_left = std::filesystem::exists(manifest, ec);
  Child revived = spawn_child(env, serve_args(state), "", dir, "revived",
                              /*want_stdin=*/true);
  write_stdin(revived, "wait timeout_ms=" + std::to_string(kChildTimeoutMs) +
                           "\nhealth\nshutdown\n");
  close_stdin(revived);
  const ExitInfo info = await_child(revived, kChildTimeoutMs);
  expect_exit(bad, info, 0, "serve_kill restart");
  const std::string out = read_file(revived.stdout_path);
  expect(bad, out.find("ok bye=1") != std::string::npos,
         "serve_kill: restarted server never acknowledged shutdown");
  if (manifest_left) {
    expect(bad, out.find("recovered=1") != std::string::npos,
           "serve_kill: manifest was present but health shows recovered=0");
    expect(bad, read_file(revived.stderr_path).find("re-running") != std::string::npos,
           "serve_kill: autorecovery did not rerun the interrupted run");
    expect_merges(bad, env, mode, merges, "serve_kill autorecovery");
    expect(bad, !std::filesystem::exists(manifest, ec),
           "serve_kill: manifest survived a completed recovery");
  }
  for (const auto& entry : std::filesystem::directory_iterator(state, ec)) {
    expect(bad, entry.path().string().find(".lcsnap") == std::string::npos,
           "serve_kill: the server wrote " + entry.path().string());
  }
}

constexpr const char* kScenarioNames[] = {
    "cluster_faults", "cluster_fatal", "cluster_kill",
    "cluster_corrupt", "serve_faults", "serve_kill",
};
constexpr std::size_t kScenarioCount =
    sizeof(kScenarioNames) / sizeof(kScenarioNames[0]);

void run_scenario(std::size_t which, const ChaosEnv& env, Rng& rng,
                  const std::string& dir, Violations& bad) {
  switch (which) {
    case 0: scenario_cluster_faults(env, rng, dir, bad); break;
    case 1: scenario_cluster_fatal(env, rng, dir, bad); break;
    case 2: scenario_cluster_kill(env, rng, dir, bad, false); break;
    case 3: scenario_cluster_kill(env, rng, dir, bad, true); break;
    case 4: scenario_serve_faults(env, rng, dir, bad); break;
    default: scenario_serve_kill(env, rng, dir, bad); break;
  }
}

StatusOr<std::string> reference_merges(const graph::WeightedGraph& graph,
                                       core::ClusterMode mode) {
  core::LinkClusterer::Config config;
  config.mode = mode;
  config.threads = 2;
  config.seed = kClusterSeed;
  StatusOr<core::ClusterResult> run = core::LinkClusterer(config).run(graph);
  if (!run.ok()) return run.status();
  return core::to_merge_list(run->dendrogram);
}

}  // namespace

int cmd_chaos(int argc, const char* const* argv, std::ostream& out,
              std::ostream& err) {
  CliFlags flags;
  flags.add_int("seed", 1, "base seed; schedule i runs with seed+i");
  flags.add_int("schedules", 50, "randomized schedules to run");
  flags.add_string("workdir", "",
                   "scratch directory (default: under the system temp dir)");
  flags.add_bool("keep", false,
                 "keep every schedule's scratch directory, not just failures");
  flags.add_bool("verbose", false, "print each schedule as it finishes");
  if (!flags.parse(argc, argv)) {
    err << "usage: linkcluster chaos [--seed N] [--schedules K] [--workdir DIR]\n";
    return 1;
  }
  // The driver itself must stay fault-free: references are computed in this
  // process, and children receive their plans explicitly.
  fault::disarm();

  ChaosEnv env;
  env.exe = "/proc/self/exe";
  env.verbose = flags.get_bool("verbose");
  env.log = &err;
  env.workdir = flags.get_string("workdir");
  if (env.workdir.empty()) {
    env.workdir = (std::filesystem::temp_directory_path() /
                   ("lc-chaos-" + std::to_string(::getpid())))
                      .string();
  }
  std::error_code ec;
  std::filesystem::create_directories(env.workdir, ec);
  if (ec) {
    err << "error: cannot create " << env.workdir << ": " << ec.message() << "\n";
    return 2;
  }

  graph::GeneratorOptions gen;
  gen.seed = kGraphSeed;
  const graph::WeightedGraph graph =
      graph::erdos_renyi(kGraphVertices, kGraphDensity, gen);
  env.graph = env.workdir + "/graph.edges";
  if (const graph::IoResult io = graph::write_edge_list(graph, env.graph); !io.ok) {
    err << "error: " << io.error << "\n";
    return 2;
  }
  StatusOr<std::string> fine = reference_merges(graph, core::ClusterMode::kFine);
  StatusOr<std::string> coarse =
      reference_merges(graph, core::ClusterMode::kCoarse);
  if (!fine.ok() || !coarse.ok()) {
    err << "error: cannot compute reference merges: "
        << (fine.ok() ? coarse.status() : fine.status()).to_string() << "\n";
    return 2;
  }
  env.ref_fine = std::move(fine).value();
  env.ref_coarse = std::move(coarse).value();

  const std::uint64_t base_seed =
      static_cast<std::uint64_t>(std::max<std::int64_t>(0, flags.get_int("seed")));
  const std::uint64_t schedules = static_cast<std::uint64_t>(
      std::max<std::int64_t>(1, flags.get_int("schedules")));
  const bool keep = flags.get_bool("keep");

  std::uint64_t failures = 0;
  for (std::uint64_t i = 0; i < schedules; ++i) {
    const std::uint64_t seed = base_seed + i;
    Rng rng(seed);
    const std::size_t scenario = rng.next_below(kScenarioCount);
    const std::string dir = env.workdir + "/s" + std::to_string(seed);
    std::filesystem::create_directories(dir, ec);
    Violations bad;
    run_scenario(scenario, env, rng, dir, bad);
    if (bad.empty()) {
      if (env.verbose) {
        out << "ok seed=" << seed << " scenario=" << kScenarioNames[scenario]
            << "\n";
      }
      if (!keep) std::filesystem::remove_all(dir, ec);
      continue;
    }
    ++failures;
    err << "FAIL seed=" << seed << " scenario=" << kScenarioNames[scenario]
        << " (artifacts kept in " << dir << ")\n";
    for (const std::string& what : bad) err << "  - " << what << "\n";
    err << "  replay: linkcluster chaos --seed " << seed
        << " --schedules 1 --keep\n";
  }

  out << schedules << " schedule(s), " << failures << " with violations\n";
  if (failures == 0 && !keep) std::filesystem::remove_all(env.workdir, ec);
  return failures == 0 ? 0 : 1;
}

}  // namespace lc::cli
