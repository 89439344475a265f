// `lc_suite serve-client`: a closed-loop client (no think time) driving a
// `linkcluster serve` child over its stdin and stdout.
//
// Set-up (timed per server): spawn, `load`, then `run` + `wait`; the last
// server stays. Then one cycle per line on stdin, each doing: one
// calibration sample; a timed `run` + `wait` (when asked); a `run` with
// queries sent while it computes, then `wait` (when asked); queries with the
// worker idle. Every query is reported with its cycle, so run.py takes the
// latency percentiles per cycle.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dendrogram_io.hpp"
#include "serve/protocol.hpp"
#include "suite.hpp"
#include "util/cli.hpp"
#include "util/stopwatch.hpp"

namespace lc::suite {
namespace {

/// Ends the session; unwinding reaps the server.
[[noreturn]] void fail(const std::string& what) { throw std::runtime_error(what); }

/// A `linkcluster serve` child (stderr shared with this process). The
/// destructor kills and reaps a child that was not shut down, so no exit
/// path leaves one behind.
class ServerProcess {
 public:
  explicit ServerProcess(const std::vector<std::string>& argv) {
    int to_child[2] = {-1, -1};
    int from_child[2] = {-1, -1};
    if (::pipe2(to_child, O_CLOEXEC) != 0 || ::pipe2(from_child, O_CLOEXEC) != 0) {
      fail(std::string("pipe: ") + std::strerror(errno));
    }
    to_child_ = to_child[1];
    from_child_ = from_child[0];
    ::fcntl(from_child_, F_SETFL, O_NONBLOCK);
    try {
      pid_ = spawn(argv, to_child[0], from_child[1]);
    } catch (const std::runtime_error&) {
      ::close(to_child[0]);
      ::close(from_child[1]);
      close_pipes();
      throw;
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
  }

  ~ServerProcess() {
    close_pipes();
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Sends one request line and returns its reply line; empty when the
  /// server closed its output. With `spin` the reply is awaited by spinning
  /// on the pipe, so a latency sample holds the server's time and not the
  /// client's own wake-up; otherwise the client sleeps in poll().
  std::string request(const std::string& line, bool spin = false) {
    const std::string data = line + "\n";
    std::size_t offset = 0;
    while (offset < data.size()) {
      const ssize_t n = ::write(to_child_, data.data() + offset, data.size() - offset);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return "";
      offset += static_cast<std::size_t>(n);
    }
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string reply = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return reply;
      }
      char chunk[4096];
      const ssize_t n = ::read(from_child_, chunk, sizeof(chunk));
      if (n < 0 && errno == EAGAIN && !spin) {
        pollfd ready = {from_child_, POLLIN, 0};
        ::poll(&ready, 1, -1);
      }
      if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
      if (n <= 0) return "";
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// Sends `shutdown`, closes the pipes and reaps the child. Returns its
  /// peak resident set in MiB; fails unless it exited cleanly.
  double shutdown() {
    if (request("shutdown") != "ok bye=1") fail("server did not acknowledge shutdown");
    close_pipes();
    const Reaped reaped = reap(pid_);
    pid_ = -1;
    if (!reaped.clean) fail("server exited abnormally");
    return reaped.rss_mib;
  }

 private:
  void close_pipes() {
    if (to_child_ >= 0) ::close(to_child_);
    if (from_child_ >= 0) ::close(from_child_);
    to_child_ = -1;
    from_child_ = -1;
  }

  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
  std::string buffer_;
};

int run_client(const CliFlags& flags) {
  const std::string binary = flags.get_string("linkcluster");
  const std::string input = flags.get_string("input");
  const std::string work = flags.get_string("work-dir");
  const std::string mode = flags.get_string("mode");

  std::unique_ptr<ServerProcess> server;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<std::string> digests;
  const auto failure = [&](const std::string& what) {
    ++failed;
    errors.push_back(what);
  };
  const auto send = [&](const std::string& line, bool spin = false) {
    ++attempted;
    std::string reply = server->request(line, spin);
    if (reply.empty()) fail("server closed its output after '" + line + "'");
    if (reply.rfind("ok", 0) != 0) failure(line + " -> " + reply);
    return reply;
  };
  std::vector<std::string> merges_files;
  const auto run = [&](const std::string& name) {
    const std::string path = work + "/" + name + ".merges";
    merges_files.push_back(path);
    send("run mode=" + mode + " merges=" + serve::quote_value(path));
  };
  const auto wait = [&]() {
    const std::string reply = send("wait");
    if (reply.rfind("ok", 0) == 0 && reply.find("state=done") == std::string::npos) {
      failure("wait -> " + reply);
    }
  };

  std::vector<double> setup_ms;
  std::uint64_t edges = 0;
  const auto setups = std::max<std::int64_t>(1, flags.get_int("setups"));
  for (std::int64_t s = 0; s < setups; ++s) {
    if (server != nullptr) (void)server->shutdown();
    Stopwatch watch;
    server = std::make_unique<ServerProcess>(std::vector<std::string>{
        binary, "serve", "--threads", std::to_string(flags.get_int("threads"))});
    const std::string loaded = send("load path=" + serve::quote_value(input));
    const std::size_t at = loaded.find(" edges=");
    if (at == std::string::npos) fail("load failed: " + loaded);
    edges = std::stoull(loaded.substr(at + 7));
    run("setup" + std::to_string(s));
    wait();
    setup_ms.push_back(watch.millis());
  }

  const std::optional<std::string> reference = read_file(merges_files.back());
  if (!reference.has_value()) fail("no merge list from the set-up run");
  StatusOr<core::Dendrogram> dendrogram = core::parse_merge_list(*reference);
  if (!dendrogram.ok()) fail("set-up merge list: " + dendrogram.status().to_string());
  QueryMix mix(static_cast<std::uint64_t>(flags.get_int("seed")), edges,
               merge_heights(*dendrogram));

  std::vector<double> calib;
  std::vector<double> run_ms;
  std::vector<double> query_cycle;
  std::vector<double> query_kind;
  std::vector<double> query_us;
  const auto busy_queries = flags.get_int("busy-queries");
  const auto idle_queries = flags.get_int("idle-queries");
  // run.py paces the session: one cycle per stdin line, each answered with
  // "done", so it can run its own timed steps between cycles and keep the
  // whole run within its time budget. End of input ends the session.
  std::cout << "ready" << std::endl;
  std::string request;
  for (std::int64_t cycle = 0; std::getline(std::cin, request); ++cycle) {
    const std::string tag = std::to_string(cycle);
    const auto query = [&]() {
      const Query q = mix.next();
      Stopwatch watch;
      send(q.line, /*spin=*/true);
      query_us.push_back(watch.seconds() * 1e6);
      query_kind.push_back(static_cast<double>(q.kind));
      query_cycle.push_back(static_cast<double>(cycle));
    };
    calib.push_back(calib_ms());
    if (flags.get_bool("timed-runs")) {
      Stopwatch watch;
      run("run" + tag);
      wait();
      run_ms.push_back(watch.millis());
    }
    if (busy_queries > 0) {
      run("busy" + tag);
      for (std::int64_t i = 0; i < busy_queries; ++i) query();
      wait();
    }
    for (std::int64_t i = 0; i < idle_queries; ++i) query();
    std::cout << "done" << std::endl;
  }
  const double server_rss_mib = server->shutdown();
  server.reset();

  for (const std::string& path : merges_files) {
    const std::optional<std::string> text = read_file(path);
    digests.push_back(text.has_value() ? merge_list_fnv(*text) : "");
  }
  JsonObject out;
  out.raw("setup_ms", json_array(setup_ms))
      .raw("calib_ms", json_array(calib))
      .raw("run_ms", json_array(run_ms))
      .num("server_rss_mib", server_rss_mib)
      .count("attempted", attempted)
      .count("failed", failed)
      .raw("errors", json_array(errors))
      .raw("digests", json_array(digests))
      .raw("query_cycle", json_array(query_cycle))
      .raw("query_kind", json_array(query_kind))
      .raw("query_us", json_array(query_us));
  std::cout << out.text() << "\n";
  return 0;
}

}  // namespace

int cmd_serve_client(int argc, const char* const* argv) {
  CliFlags flags;
  flags.add_string("linkcluster", "", "the linkcluster binary");
  flags.add_string("input", "", "edge-list file to load");
  flags.add_string("mode", "fine", "fine | coarse");
  flags.add_int("threads", 2, "serve --threads");
  flags.add_int("setups", 1, "servers started (each timed through its first run)");
  flags.add_bool("timed-runs", false, "start every cycle with a timed run + wait");
  flags.add_int("busy-queries", 0, "queries per cycle while a rerun computes");
  flags.add_int("idle-queries", 0, "queries per cycle with the worker idle");
  flags.add_int("seed", 7, "query mix seed");
  flags.add_string("work-dir", "", "the server's merge lists go here");
  if (!flags.parse(argc, argv) || flags.get_string("linkcluster").empty() ||
      flags.get_string("input").empty() || flags.get_string("work-dir").empty()) {
    return 1;
  }
  try {
    return run_client(flags);
  } catch (const std::runtime_error& error) {
    std::cerr << "lc_suite serve-client: " << error.what() << "\n";
    return 2;
  }
}

}  // namespace lc::suite
