#include "serve/server.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <iterator>
#include <limits>
#include <ostream>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <csignal>

#include "core/checkpoint.hpp"
#include "graph/io.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/signals.hpp"
#include "util/fault_inject.hpp"
#include "util/strings.hpp"

namespace lc::serve {
namespace {

bool parse_i64(const std::string& text, std::int64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || errno == ERANGE) return false;
  *out = value;
  return true;
}

bool parse_f64(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0') return false;
  *out = value;
  return true;
}

std::string err_line(Status status) { return format_error(status); }

std::string bad_arg(const std::string& key) {
  return err_line(Status::invalid_argument("argument '" + key +
                                           "' is missing or malformed"));
}

/// Canonical labels put every cluster's minimum position at label == index,
/// so counting fixed points counts clusters.
std::size_t count_clusters(const std::vector<core::EdgeIdx>& labels) {
  std::size_t clusters = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] == i) ++clusters;
  }
  return clusters;
}

}  // namespace

Server::Server(ServerOptions options, std::ostream* log)
    : options_(std::move(options)), log_(log) {}

std::string Server::report_line(const RunReport& report) const {
  std::string line = "ok run=" + std::to_string(report.id);
  line += " state=";
  line += run_state_name(report.state);
  line += " passes=" + std::to_string(report.passes);
  line += " elapsed_ms=" +
          std::to_string(static_cast<std::uint64_t>(report.elapsed_seconds * 1e3));
  if (report.state == RunState::kDone || report.state == RunState::kDegraded) {
    line += " events=" + std::to_string(report.events);
    line += " height=" + std::to_string(report.height);
  }
  if (!report.status.ok()) {
    line += " code=";
    line += status_code_token(report.status.code());
    line += " class=";
    line += error_class_name(status_error_class(report.status.code()));
    line += " retryable=";
    line += status_is_retryable(report.status.code()) ? '1' : '0';
    line += " msg=" + quote_value(report.status.message());
  }
  if (report.memory_peak > 0) {
    line += " memory_peak=" + std::to_string(report.memory_peak);
  }
  return line;
}

std::string Server::cmd_ping(const Request&) { return "ok pong=1"; }

std::string Server::cmd_load(const Request& request) {
  const std::string path = request.get("path");
  if (path.empty()) return bad_arg("path");
  graph::IoResult io;
  auto loaded = graph::read_edge_list(path, &io);
  if (!loaded.has_value()) {
    return err_line(Status::invalid_argument(io.error));
  }
  graph_ = std::make_shared<const graph::WeightedGraph>(std::move(*loaded));
  graph_path_ = path;
  graph_digest_ = core::graph_fingerprint(*graph_);
  std::string line = "ok vertices=" + std::to_string(graph_->vertex_count()) +
                     " edges=" + std::to_string(graph_->edge_count()) +
                     " digest=" +
                     strprintf("0x%016llx",
                               static_cast<unsigned long long>(graph_digest_));
  if (io.lines_skipped > 0) {
    line += " lines_skipped=" + std::to_string(io.lines_skipped);
  }
  return line;
}

std::string Server::cmd_run(const Request& request) {
  if (graph_ == nullptr) {
    return err_line(Status::invalid_argument("no graph loaded (use: load path=...)"));
  }
  // A key this command does not read would launch a run the client did not
  // ask for (a typo, or an option an older server took).
  static constexpr const char* kRunKeys[] = {
      "mode", "threads", "seed", "gamma", "phi", "delta0", "min_similarity",
      "deadline_ms", "max_memory_mb", "merges"};
  for (const auto& arg : request.args) {
    if (std::find(std::begin(kRunKeys), std::end(kRunKeys), arg.first) == std::end(kRunKeys)) {
      return err_line(Status::invalid_argument("unknown argument '" + arg.first + "'"));
    }
  }
  RunSpec spec;
  spec.graph = graph_;
  spec.graph_path = graph_path_;
  spec.merges_path = request.get("merges");
  spec.state_dir = options_.state_dir;

  core::LinkClusterer::Config& config = spec.config;
  const std::string mode = request.get("mode", "fine");
  if (mode == "fine") {
    config.mode = core::ClusterMode::kFine;
  } else if (mode == "coarse") {
    config.mode = core::ClusterMode::kCoarse;
  } else {
    return bad_arg("mode");
  }
  std::int64_t i64 = 0;
  double f64 = 0.0;
  config.threads = options_.threads;
  if (request.has("threads")) {
    if (!parse_i64(request.get("threads"), &i64) || i64 < 1 ||
        static_cast<std::uint64_t>(i64) > parallel::kMaxThreads) {
      return bad_arg("threads");
    }
    config.threads = static_cast<std::size_t>(i64);
  }
  if (request.has("seed")) {
    if (!parse_i64(request.get("seed"), &i64) || i64 < 0) return bad_arg("seed");
    config.seed = static_cast<std::uint64_t>(i64);
  }
  if (request.has("gamma")) {
    // !(>= 1) also rejects NaN.
    if (!parse_f64(request.get("gamma"), &f64) || !(f64 >= 1.0)) return bad_arg("gamma");
    config.coarse.gamma = f64;
  }
  if (request.has("phi")) {
    if (!parse_i64(request.get("phi"), &i64) || i64 < 0) return bad_arg("phi");
    config.coarse.phi = static_cast<std::size_t>(i64);
  }
  if (request.has("delta0")) {
    if (!parse_i64(request.get("delta0"), &i64) || i64 < 1) return bad_arg("delta0");
    config.coarse.delta0 = static_cast<std::uint64_t>(i64);
  }
  if (request.has("min_similarity")) {
    if (!parse_f64(request.get("min_similarity"), &f64)) return bad_arg("min_similarity");
    config.min_similarity = f64;
  }
  if (request.has("deadline_ms")) {
    if (!parse_i64(request.get("deadline_ms"), &i64)) return bad_arg("deadline_ms");
    spec.deadline_ms = i64;
  }
  if (request.has("max_memory_mb")) {
    if (!parse_i64(request.get("max_memory_mb"), &i64) || i64 < 0) {
      return bad_arg("max_memory_mb");
    }
    spec.max_memory_mb = static_cast<std::uint64_t>(i64);
  }

  if (Status launched = supervisor_.launch(std::move(spec)); !launched.ok()) {
    return err_line(launched);
  }
  return "ok run=" + std::to_string(supervisor_.report().id) + " state=running";
}

std::string Server::cmd_status(const Request&) {
  return report_line(supervisor_.report());
}

std::string Server::cmd_wait(const Request& request) {
  std::int64_t timeout_ms = 0;
  if (request.has("timeout_ms")) {
    if (!parse_i64(request.get("timeout_ms"), &timeout_ms) || timeout_ms < 0) {
      return bad_arg("timeout_ms");
    }
  }
  supervisor_.wait(static_cast<std::uint64_t>(timeout_ms));
  return report_line(supervisor_.report());
}

std::string Server::cmd_cancel(const Request&) {
  const RunReport report = supervisor_.report();
  supervisor_.cancel();
  return "ok cancelling=" + std::to_string(report.state == RunState::kRunning ? 1 : 0) +
         " run=" + std::to_string(report.id);
}

std::string Server::cmd_cut(const Request& request) {
  const std::shared_ptr<const core::ClusterResult> result = supervisor_.result();
  if (result == nullptr) {
    return err_line(Status::invalid_argument("no completed run to cut"));
  }
  const core::Dendrogram& dendrogram = result->dendrogram;
  std::vector<core::EdgeIdx> labels;
  std::int64_t i64 = 0;
  double f64 = 0.0;
  if (request.has("k")) {
    if (!parse_i64(request.get("k"), &i64) || i64 < 1) return bad_arg("k");
    // Every event removes exactly one cluster, so the cut with k clusters is
    // the prefix of (leaves - k) events, clamped to what the run recorded.
    const std::uint64_t want = static_cast<std::uint64_t>(i64);
    const std::uint64_t leaves = dendrogram.leaf_count();
    const std::uint64_t drop = want >= leaves ? 0 : leaves - want;
    labels = dendrogram.labels_after(
        std::min<std::uint64_t>(drop, dendrogram.events().size()));
  } else if (request.has("threshold")) {
    if (!parse_f64(request.get("threshold"), &f64)) return bad_arg("threshold");
    labels = dendrogram.labels_at_threshold(f64);
  } else if (request.has("level")) {
    if (!parse_i64(request.get("level"), &i64) || i64 < 0) return bad_arg("level");
    // Clamped, not wrapped: a level past the height cuts at the top.
    labels = dendrogram.labels_at_level(static_cast<std::uint32_t>(
        std::min<std::int64_t>(i64, std::numeric_limits<std::uint32_t>::max())));
  } else {
    return err_line(Status::invalid_argument(
        "cut needs one of k=, threshold=, level="));
  }
  std::string line = "ok clusters=" + std::to_string(count_clusters(labels)) +
                     " leaves=" + std::to_string(labels.size());
  const std::string out_path = request.get("out");
  if (!out_path.empty()) {
    std::string text;
    text.reserve(labels.size() * 8);
    for (const core::EdgeIdx label : labels) {
      text += std::to_string(label);
      text += '\n';
    }
    std::ofstream file(out_path, std::ios::binary | std::ios::trunc);
    if (!file || !(file << text)) {
      return err_line(Status::internal("cannot write " + out_path));
    }
    line += " out=" + quote_value(out_path);
  }
  return line;
}

std::string Server::cmd_member(const Request& request) {
  const std::shared_ptr<const core::ClusterResult> result = supervisor_.result();
  if (result == nullptr) {
    return err_line(Status::invalid_argument("no completed run to query"));
  }
  std::int64_t edge = 0;
  if (!request.has("edge") || !parse_i64(request.get("edge"), &edge) || edge < 0) {
    return bad_arg("edge");
  }
  if (static_cast<std::size_t>(edge) >= result->final_labels.size()) {
    return err_line(Status::invalid_argument(
        "edge " + std::to_string(edge) + " is out of range (run clustered " +
        std::to_string(result->final_labels.size()) + " edges)"));
  }
  const core::EdgeIdx position =
      result->edge_index.index_of(static_cast<core::EdgeIdx>(edge));
  core::EdgeIdx label = 0;
  if (request.has("threshold")) {
    double threshold = 0.0;
    if (!parse_f64(request.get("threshold"), &threshold)) return bad_arg("threshold");
    label = result->dendrogram.labels_at_threshold(threshold)[position];
  } else {
    label = result->final_labels[position];
  }
  return "ok edge=" + std::to_string(edge) + " label=" + std::to_string(label);
}

std::string Server::cmd_health(const Request&) {
  std::string line = "ok state=";
  line += supervisor_.running() ? "running" : "idle";
  line += " graph_loaded=";
  line += graph_ != nullptr ? '1' : '0';
  line += " runs_total=" + std::to_string(supervisor_.runs_total());
  line += " runs_failed=" + std::to_string(supervisor_.runs_failed());
  line += " recovered=";
  line += recovered_ ? '1' : '0';
  return line;
}

bool Server::handle_line(const std::string& line, std::string* response) {
  StatusOr<Request> parsed = parse_request(line);
  if (!parsed.ok()) {
    *response += err_line(parsed.status());
    *response += '\n';
    return true;
  }
  const Request& request = *parsed;
  if (request.command.empty()) return true;  // blank / comment
  std::string reply;
  bool keep_serving = true;
  if (request.command == "ping") {
    reply = cmd_ping(request);
  } else if (request.command == "load") {
    reply = cmd_load(request);
  } else if (request.command == "run") {
    reply = cmd_run(request);
  } else if (request.command == "status") {
    reply = cmd_status(request);
  } else if (request.command == "wait") {
    reply = cmd_wait(request);
  } else if (request.command == "cancel") {
    reply = cmd_cancel(request);
  } else if (request.command == "cut") {
    reply = cmd_cut(request);
  } else if (request.command == "member") {
    reply = cmd_member(request);
  } else if (request.command == "health") {
    reply = cmd_health(request);
  } else if (request.command == "shutdown") {
    // Drain before acknowledging: cancel the in-flight run and wait it
    // out, so the reply line is also the promise that the process owns no more work.
    supervisor_.cancel();
    supervisor_.wait(0);
    reply = "ok bye=1";
    keep_serving = false;
  } else {
    reply = err_line(Status::invalid_argument("unknown command '" +
                                              request.command + "'"));
  }
  *response += reply;
  *response += '\n';
  return keep_serving;
}

void Server::serve(std::istream& in, std::ostream& out) {
  std::string line;
  while (std::getline(in, line)) {
    std::string response;
    const bool keep_serving = handle_line(line, &response);
    out << response << std::flush;
    if (!keep_serving) return;
  }
}

Status Server::autorecover() {
  if (options_.state_dir.empty() || !options_.autorecover) return Status();
  const std::string manifest_file = RunSupervisor::manifest_path(options_.state_dir);
  if (!std::filesystem::exists(manifest_file)) return Status();

  StatusOr<RunManifest> manifest_or = RunManifest::read(manifest_file);
  if (!manifest_or.ok()) return manifest_or.status();
  const RunManifest& manifest = *manifest_or;

  graph::IoResult io;
  auto loaded = graph::read_edge_list(manifest.graph_path, &io);
  if (!loaded.has_value()) {
    return Status::invalid_argument("autorecovery: cannot reload graph " +
                                    manifest.graph_path + ": " + io.error);
  }
  auto graph = std::make_shared<const graph::WeightedGraph>(std::move(*loaded));
  const std::uint64_t digest = core::graph_fingerprint(*graph);
  if (digest != manifest.fingerprint.graph_digest) {
    return Status::invalid_argument(
        "autorecovery: " + manifest.graph_path +
        " no longer matches the interrupted run's graph digest; refusing to "
        "rerun it (remove " + manifest_file + " to discard the run)");
  }
  graph_ = graph;
  graph_path_ = manifest.graph_path;
  graph_digest_ = digest;

  RunSpec spec;
  spec.graph = graph;
  spec.graph_path = manifest.graph_path;
  spec.merges_path = manifest.merges_path;
  spec.state_dir = options_.state_dir;
  core::LinkClusterer::Config& config = spec.config;
  config.mode = manifest.fingerprint.mode == 0 ? core::ClusterMode::kFine
                                               : core::ClusterMode::kCoarse;
  config.edge_order = static_cast<core::EdgeOrder>(manifest.fingerprint.edge_order);
  config.measure =
      static_cast<core::SimilarityMeasure>(manifest.fingerprint.measure);
  config.seed = manifest.fingerprint.seed;
  config.min_similarity = manifest.fingerprint.min_similarity;
  config.coarse.gamma = manifest.fingerprint.gamma;
  config.coarse.phi = static_cast<std::size_t>(manifest.fingerprint.phi);
  config.coarse.delta0 = manifest.fingerprint.delta0;
  config.coarse.eta0 = manifest.fingerprint.eta0;
  config.coarse.rollback_capacity =
      static_cast<std::size_t>(manifest.fingerprint.rollback_capacity);
  config.coarse.max_rollbacks_per_level =
      static_cast<std::size_t>(manifest.fingerprint.max_rollbacks_per_level);
  config.threads = static_cast<std::size_t>(std::max<std::uint64_t>(1, manifest.threads));

  // The run is deterministic, so rerunning it from scratch writes exactly
  // the merge list the crash cost.
  if (log_ != nullptr) {
    *log_ << "autorecovery: re-running interrupted "
          << (config.mode == core::ClusterMode::kFine ? "fine" : "coarse") << " run on "
          << manifest.graph_path << "\n";
  }
  if (Status launched = supervisor_.launch(std::move(spec)); !launched.ok()) {
    return launched;
  }
  recovered_ = true;
  return Status();
}

StatusOr<int> listen_on(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::internal(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string what = std::strerror(errno);
    ::close(fd);
    return Status::internal("bind 127.0.0.1:" + std::to_string(port) + ": " + what);
  }
  if (::listen(fd, 8) != 0) {
    const std::string what = std::strerror(errno);
    ::close(fd);
    return Status::internal("listen: " + what);
  }
  return fd;
}

int listen_port(int fd) {
  sockaddr_in addr = {};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) return 0;
  return static_cast<int>(ntohs(addr.sin_port));
}

namespace {

struct Connection {
  int in_fd = -1;
  int out_fd = -1;
  bool owns_fd = false;  ///< accepted socket: close on teardown
  std::string buffer;
  bool discarding = false;  ///< oversized line: drop bytes through next '\n'
};

/// An unterminated request line larger than this is abuse or a broken
/// client, not a command; the server answers with a structured error and
/// discards through the next newline instead of buffering without bound.
constexpr std::size_t kMaxLineBytes = 64 * 1024;

void write_all(int fd, const std::string& data) {
  std::size_t offset = 0;
  while (offset < data.size()) {
    const ssize_t n = ::write(fd, data.data() + offset, data.size() - offset);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;  // dead peer: nothing useful to do with the rest
    }
    offset += static_cast<std::size_t>(n);
  }
}

}  // namespace

int serve_fds(Server& server, int listen_fd, bool use_stdin, std::ostream& log) {
  // A client that disconnects between poll() and our reply turns the write
  // into a SIGPIPE; default disposition would kill the whole server. Ignore
  // it so write_all() sees EPIPE and simply drops the dead peer.
  ::signal(SIGPIPE, SIG_IGN);
  std::vector<Connection> connections;
  if (use_stdin) connections.push_back(Connection{STDIN_FILENO, STDOUT_FILENO, false, {}});
  bool shutting_down = false;

  const auto drain = [&server, &log](const char* why) {
    log << "serve: " << why << ", draining\n" << std::flush;
    server.supervisor().cancel();
    server.supervisor().wait(0);
  };

  while (!shutting_down) {
    if (stop_signal() != 0) {
      // The signal handler only set a flag; the real SIGTERM semantics live
      // here: cancel the run and exit cleanly once it has unwound.
      drain("stop signal");
      break;
    }
    std::vector<pollfd> fds;
    fds.reserve(connections.size() + 1);
    for (const Connection& conn : connections) {
      fds.push_back(pollfd{conn.in_fd, POLLIN, 0});
    }
    if (listen_fd >= 0) fds.push_back(pollfd{listen_fd, POLLIN, 0});
    if (fds.empty()) {
      drain("no remaining clients");
      break;
    }
    const int ready = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 100);
    if (ready < 0) {
      if (errno == EINTR) continue;  // likely our own signal; loop re-checks
      log << "serve: poll: " << std::strerror(errno) << "\n";
      drain("poll failed");
      break;
    }
    if (ready == 0) continue;

    if (listen_fd >= 0 && (fds.back().revents & POLLIN) != 0) {
      const int client = ::accept(listen_fd, nullptr, nullptr);
      if (client >= 0) {
        try {
          fault::maybe_fire("serve.accept");
          connections.push_back(Connection{client, client, true, {}});
        } catch (const std::exception& error) {
          // Containment: a fault between accept and registration costs that
          // one client its connection, never the accept loop.
          log << "serve: accept: " << error.what() << "\n";
          ::close(client);
        }
      }
    }

    for (std::size_t i = connections.size(); i-- > 0;) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Connection& conn = connections[i];
      char chunk[4096];
      const ssize_t n = ::read(conn.in_fd, chunk, sizeof(chunk));
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        if (conn.owns_fd) ::close(conn.in_fd);
        connections.erase(connections.begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
      conn.buffer.append(chunk, static_cast<std::size_t>(n));
      std::size_t start = 0;
      if (conn.discarding) {
        const std::size_t nl = conn.buffer.find('\n');
        if (nl == std::string::npos) {
          conn.buffer.clear();
          continue;  // still inside the oversized line
        }
        conn.discarding = false;
        start = nl + 1;
      }
      for (std::size_t nl = conn.buffer.find('\n', start);
           nl != std::string::npos && !shutting_down;
           nl = conn.buffer.find('\n', start)) {
        const std::string line = conn.buffer.substr(start, nl - start);
        start = nl + 1;
        std::string response;
        if (line.size() > kMaxLineBytes) {
          response = err_line(Status::invalid_argument(
                         "request line exceeds " +
                         std::to_string(kMaxLineBytes) + " bytes")) +
                     "\n";
        } else if (!server.handle_line(line, &response)) {
          shutting_down = true;
        }
        write_all(conn.out_fd, response);
      }
      conn.buffer.erase(0, start);
      if (!shutting_down && conn.buffer.size() > kMaxLineBytes) {
        // The unterminated tail already exceeds the cap: answer now, stop
        // buffering, and drop everything through the line's eventual end.
        // The connection itself survives — only the request is rejected.
        write_all(conn.out_fd,
                  err_line(Status::invalid_argument(
                      "request line exceeds " + std::to_string(kMaxLineBytes) +
                      " bytes")) +
                      "\n");
        conn.buffer.clear();
        conn.discarding = true;
      }
    }
  }

  for (const Connection& conn : connections) {
    if (conn.owns_fd) ::close(conn.in_fd);
  }
  if (listen_fd >= 0) ::close(listen_fd);
  return 0;
}

}  // namespace lc::serve
