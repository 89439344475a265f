// The long-lived `lc serve` server (DESIGN.md §14).
//
// A Server owns one RunSupervisor, at most one loaded graph, and the
// command dispatch for the line protocol of serve/protocol.hpp:
//
//   ping                                liveness
//   load path=<edges>                   load (or replace) the graph
//   run [mode=..] [threads=..] ...      launch a supervised clustering run
//   status / wait [timeout_ms=..]       inspect / await the run
//   cut k=.. | threshold=.. | level=..  dendrogram cut of the last result
//   member edge=.. [threshold=..]       cluster membership of one edge
//   cancel                              cooperative cancel of the run
//   health                              server-level health surface
//   shutdown                            drain and stop
//
// Containment is the point: a failed, over-budget, or cancelled run answers
// with a structured `err code=... class=... retryable=...` line and the
// server keeps serving. Startup autorecovery reads the run.manifest a
// crashed server left in --state-dir and reruns the interrupted run from
// scratch; the run is deterministic, so it writes the merge list the crash
// cost. Serve runs write no snapshots.
//
// handle_line()/serve() run the protocol over any iostream pair (that is
// what the unit tests drive); serve_fds() is the production loop — poll()
// over stdin and an optional TCP listener, draining cleanly on SIGTERM.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "graph/graph.hpp"
#include "serve/protocol.hpp"
#include "serve/run_supervisor.hpp"
#include "util/status.hpp"

namespace lc::serve {

struct ServerOptions {
  std::string state_dir;                   ///< holds run.manifest; empty = no recovery
  bool autorecover = true;                 ///< rerun run.manifest's run on startup
  std::size_t threads = 1;                 ///< default worker threads per run
};

class Server {
 public:
  /// `log` (optional) receives human-oriented progress lines ("recovering
  /// run ..."); protocol responses never go there.
  explicit Server(ServerOptions options, std::ostream* log = nullptr);

  /// Handles one request line, appending exactly one response line (with
  /// trailing newline) to `response` — except blank/comment lines, which
  /// produce nothing. Returns false when the line asked for shutdown.
  bool handle_line(const std::string& line, std::string* response);

  /// Blocking request loop over an iostream pair; returns on shutdown or
  /// EOF. Flushes after every response so a pipe-driven client can pipeline.
  void serve(std::istream& in, std::ostream& out);

  /// Scans options_.state_dir for a run manifest and relaunches the
  /// interrupted run from scratch. OK when there was nothing to recover; an
  /// error Status reports *why* recovery was refused (mismatched graph,
  /// unreadable manifest) — the server still serves.
  Status autorecover();

  [[nodiscard]] RunSupervisor& supervisor() { return supervisor_; }
  [[nodiscard]] const ServerOptions& options() const { return options_; }
  [[nodiscard]] bool graph_loaded() const { return graph_ != nullptr; }

 private:
  std::string cmd_ping(const Request& request);
  std::string cmd_load(const Request& request);
  std::string cmd_run(const Request& request);
  std::string cmd_status(const Request& request);
  std::string cmd_wait(const Request& request);
  std::string cmd_cancel(const Request& request);
  std::string cmd_cut(const Request& request);
  std::string cmd_member(const Request& request);
  std::string cmd_health(const Request& request);
  std::string report_line(const RunReport& report) const;

  ServerOptions options_;
  std::ostream* log_;
  RunSupervisor supervisor_;
  std::shared_ptr<const graph::WeightedGraph> graph_;
  std::string graph_path_;
  std::uint64_t graph_digest_ = 0;
  bool recovered_ = false;  ///< autorecover() relaunched a run
};

/// Binds a TCP listener on 127.0.0.1:`port`. Returns the listening fd.
[[nodiscard]] StatusOr<int> listen_on(int port);

/// The local port a listen_on() fd is bound to (0 on error) — lets tests
/// bind port 0 and discover the kernel-assigned port.
[[nodiscard]] int listen_port(int fd);

/// The production serve loop: poll() over stdin (when `use_stdin`) and
/// `listen_fd` (>= 0 accepts line-protocol TCP clients), dispatching into
/// `server`. Returns the process exit code. A SIGTERM/SIGINT (via
/// serve/signals.hpp — the caller installs the handlers) cancels the active
/// run, waits for it to unwind, and drains cleanly.
int serve_fds(Server& server, int listen_fd, bool use_stdin, std::ostream& log);

}  // namespace lc::serve
