// The supervised server end to end: containment, memory budgets, busy
// signalling, dendrogram queries, manifest round-trip, and in-process
// autorecovery (serve/server.hpp, serve/run_supervisor.hpp).
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "core/dendrogram_io.hpp"
#include "core/link_clusterer.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/run_supervisor.hpp"
#include "serve/signals.hpp"

#include "../util/address_space_limit.hpp"

namespace lc::serve {
namespace {

namespace fs = std::filesystem;

graph::WeightedGraph small_graph() {
  return graph::erdos_renyi(120, 0.08, {11, graph::WeightPolicy::kUniform});
}

/// Big enough that fine mode's score triangles (K2 × 8 B, about 10 MiB)
/// charge well past a 4 MiB budget, which then buys more passes; its forest
/// pairs alone (about 2.7 MiB) do not fit in 2 MiB.
graph::WeightedGraph budget_tripping_graph() {
  return graph::erdos_renyi(3000, 0.01, {7, graph::WeightPolicy::kUniform});
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("lc_serve_" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Writes `graph` as an edge list inside the test directory.
  std::string write_graph(const graph::WeightedGraph& graph,
                          const std::string& name = "graph.edges") {
    const std::string path = (dir_ / name).string();
    const graph::IoResult io = graph::write_edge_list(graph, path);
    EXPECT_TRUE(io.ok) << io.error;
    return path;
  }

  /// One request line in, one response line out (stripped of the newline).
  static std::string ask(Server& server, const std::string& line) {
    std::string response;
    server.handle_line(line, &response);
    if (!response.empty() && response.back() == '\n') response.pop_back();
    return response;
  }

  fs::path dir_;
};

TEST_F(ServerTest, PingAndUnknownCommand) {
  Server server({});
  EXPECT_EQ(ask(server, "ping"), "ok pong=1");
  const std::string unknown = ask(server, "frobnicate x=1");
  EXPECT_EQ(unknown.rfind("err code=invalid_argument", 0), 0u) << unknown;
  EXPECT_EQ(ask(server, ""), "");
  EXPECT_EQ(ask(server, "# comment"), "");
}

TEST_F(ServerTest, LoadFailureIsContained) {
  Server server({});
  const std::string bad = ask(server, "load path=/nonexistent/graph.edges");
  EXPECT_EQ(bad.rfind("err ", 0), 0u) << bad;
  EXPECT_FALSE(server.graph_loaded());
  // The server still serves: a real load succeeds afterwards.
  const std::string path = write_graph(small_graph());
  const std::string good = ask(server, "load path=" + path);
  EXPECT_EQ(good.rfind("ok vertices=120 ", 0), 0u) << good;
  EXPECT_TRUE(server.graph_loaded());
}

TEST_F(ServerTest, LoadOfAGraphTooLargeToAllocateRepliesErr) {
  if (testing_support::kSanitizerReservesAddressSpace) {
    GTEST_SKIP() << "the sanitizer reserves more address space than the limit";
  }
  // "4294967295 1" is an accepted edge that asks for 2^32 vertices.
  const std::string path = (dir_ / "huge_id.edges").string();
  std::ofstream(path) << "4294967295 1\n";
  EXPECT_EXIT(
      {
        if (!testing_support::limit_address_space(1ull << 30)) std::_Exit(3);
        Server server({});
        const std::string reply = ask(server, "load path=" + path);
        const bool named = reply.rfind("err ", 0) == 0 &&
                           reply.find("4294967296 vertices") != std::string::npos;
        std::_Exit(named && !server.graph_loaded() ? 0 : 1);
      },
      testing::ExitedWithCode(0), "");
}

TEST_F(ServerTest, CutToAFullDeviceRepliesErr) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  Server server({});
  ASSERT_EQ(ask(server, "load path=" + write_graph(small_graph())).rfind("ok ", 0), 0u);
  ASSERT_EQ(ask(server, "run").rfind("ok ", 0), 0u);
  ASSERT_EQ(ask(server, "wait").rfind("ok ", 0), 0u);
  const std::string reply = ask(server, "cut k=7 out=/dev/full");
  EXPECT_EQ(reply.rfind("err ", 0), 0u) << reply;
  EXPECT_NE(reply.find("/dev/full"), std::string::npos) << reply;
}

TEST_F(ServerTest, RunRejectsOutOfRangeArguments) {
  Server server({});
  const std::string path = write_graph(small_graph());
  ASSERT_EQ(ask(server, "load path=" + path).rfind("ok ", 0), 0u);
  const std::string too_many = std::to_string(parallel::kMaxThreads + 1);
  for (const std::string& args :
       {std::string("mode=coarse gamma=0.5"), std::string("mode=coarse gamma=nan"),
        std::string("mode=coarse phi=-1"), "threads=" + too_many,
        std::string("threads=1000000000"), std::string("threads=0"),
        std::string("threads=-4"), std::string("max_memory_mb=-7"),
        std::string("min_similarity=nan"), std::string("mode=coarse min_similarity=nan")}) {
    const std::string reply = ask(server, "run " + args);
    EXPECT_EQ(reply.rfind("err code=invalid_argument", 0), 0u) << args << ": " << reply;
  }
  // Refused at the boundary: no run was launched, so no pool was built.
  EXPECT_EQ(server.supervisor().runs_total(), 0u);
  EXPECT_FALSE(server.supervisor().running());
}

TEST_F(ServerTest, RunRefusesAnUnknownKey) {
  // A key `run` does not read would launch a run the client did not ask
  // for: a typo, or an option the server no longer takes.
  Server server({});
  const std::string path = write_graph(small_graph());
  ASSERT_EQ(ask(server, "load path=" + path).rfind("ok ", 0), 0u);
  for (const std::string& args : {std::string("resume=1"), std::string("treads=4"),
                                  std::string("mode=coarse phi=5 delta=10")}) {
    const std::string reply = ask(server, "run " + args);
    EXPECT_EQ(reply.rfind("err code=invalid_argument", 0), 0u) << args << ": " << reply;
    EXPECT_NE(reply.find("unknown argument"), std::string::npos) << args << ": " << reply;
  }
  EXPECT_EQ(server.supervisor().runs_total(), 0u);
  // Every key the command reads is still accepted.
  const std::string merges = (dir_ / "merges.txt").string();
  const std::string all_keys =
      "run mode=coarse threads=2 seed=7 gamma=2 phi=10 delta0=100 "
      "min_similarity=0 deadline_ms=60000 max_memory_mb=0 merges=" + merges;
  EXPECT_EQ(ask(server, all_keys).rfind("ok run=1 ", 0), 0u);
  EXPECT_NE(ask(server, "wait").find("state=done"), std::string::npos);
}

TEST_F(ServerTest, RunWithoutGraphIsAnError) {
  Server server({});
  EXPECT_EQ(ask(server, "run").rfind("err ", 0), 0u);
}

TEST_F(ServerTest, RunWaitCutMemberRoundTrip) {
  Server server({});
  const std::string path = write_graph(small_graph());
  ASSERT_EQ(ask(server, "load path=" + path).rfind("ok ", 0), 0u);
  ASSERT_EQ(ask(server, "run mode=fine threads=2").rfind("ok run=1 ", 0), 0u);
  const std::string done = ask(server, "wait");
  EXPECT_NE(done.find("state=done"), std::string::npos) << done;
  EXPECT_NE(done.find("passes=1"), std::string::npos) << done;

  // The supervised result is bitwise the direct library result.
  core::LinkClusterer::Config config;
  config.threads = 2;
  StatusOr<core::ClusterResult> direct =
      core::LinkClusterer(config).run(small_graph());
  ASSERT_TRUE(direct.ok());
  const std::shared_ptr<const core::ClusterResult> served =
      server.supervisor().result();
  ASSERT_NE(served, nullptr);
  EXPECT_EQ(core::to_merge_list(served->dendrogram),
            core::to_merge_list(direct->dendrogram));

  // cut k=N: clusters(after leaves - N events) == N when N is reachable.
  const std::string cut = ask(server, "cut k=7");
  EXPECT_EQ(cut.rfind("ok clusters=7 ", 0), 0u) << cut;
  // cut with a label dump.
  const std::string out_path = (dir_ / "labels.txt").string();
  const std::string dumped = ask(server, "cut k=7 out=" + out_path);
  EXPECT_NE(dumped.find("out=" + out_path), std::string::npos) << dumped;
  std::ifstream labels(out_path);
  std::size_t lines = 0;
  for (std::string line; std::getline(labels, line);) ++lines;
  EXPECT_EQ(lines, served->final_labels.size());

  // member agrees with the result's label array through the edge index.
  const std::string member = ask(server, "member edge=3");
  const core::EdgeIdx position = served->edge_index.index_of(3);
  EXPECT_EQ(member, "ok edge=3 label=" +
                        std::to_string(served->final_labels[position]));
  // Out-of-range edge is an input error, not a crash.
  EXPECT_EQ(ask(server, "member edge=999999").rfind("err ", 0), 0u);

  // cut level=: a level past the height cuts at the top, 2^32 included.
  const std::string top = ask(server, "cut level=99999999999");
  const std::set<core::EdgeIdx> roots(served->final_labels.begin(),
                                      served->final_labels.end());
  EXPECT_EQ(top, "ok clusters=" + std::to_string(roots.size()) +
                     " leaves=" + std::to_string(served->final_labels.size()));
  EXPECT_EQ(ask(server, "cut level=4294967295"), top);
  EXPECT_EQ(ask(server, "cut level=4294967296"), top);
  EXPECT_NE(ask(server, "cut level=0"), top);
}

TEST_F(ServerTest, CutWithoutRunIsAnError) {
  Server server({});
  EXPECT_EQ(ask(server, "cut k=3").rfind("err ", 0), 0u);
  EXPECT_EQ(ask(server, "member edge=0").rfind("err ", 0), 0u);
}

TEST_F(ServerTest, DeadlineTripIsContainedAndReported) {
  Server server({});
  const std::string path = write_graph(small_graph());
  ASSERT_EQ(ask(server, "load path=" + path).rfind("ok ", 0), 0u);
  ASSERT_EQ(ask(server, "run deadline_ms=0").rfind("ok run=1 ", 0), 0u);
  const std::string failed = ask(server, "wait");
  EXPECT_NE(failed.find("state=failed"), std::string::npos) << failed;
  EXPECT_NE(failed.find("code=deadline_exceeded"), std::string::npos) << failed;
  EXPECT_NE(failed.find("class=resource"), std::string::npos) << failed;
  EXPECT_NE(failed.find("retryable=0"), std::string::npos) << failed;

  // Containment: the next run on the same server succeeds.
  ASSERT_EQ(ask(server, "run").rfind("ok run=2 ", 0), 0u);
  EXPECT_NE(ask(server, "wait").find("state=done"), std::string::npos);
  const std::string health = ask(server, "health");
  EXPECT_NE(health.find("runs_total=2"), std::string::npos) << health;
  EXPECT_NE(health.find("runs_failed=1"), std::string::npos) << health;
}

TEST_F(ServerTest, MemoryTripWithoutDegradeFails) {
  Server server({});
  const std::string path = write_graph(budget_tripping_graph());
  ASSERT_EQ(ask(server, "load path=" + path).rfind("ok ", 0), 0u);
  ASSERT_EQ(ask(server, "run max_memory_mb=2").rfind("ok run=1 ", 0), 0u);
  const std::string failed = ask(server, "wait");
  EXPECT_NE(failed.find("state=failed"), std::string::npos) << failed;
  EXPECT_NE(failed.find("code=resource_exhausted"), std::string::npos) << failed;
  // The message names what one pass needs.
  EXPECT_NE(failed.find("bytes"), std::string::npos) << failed;
}

TEST_F(ServerTest, MemoryBudgetBuysPassesNotADifferentAnswer) {
  const graph::WeightedGraph graph = budget_tripping_graph();
  StatusOr<core::ClusterResult> unbudgeted = core::LinkClusterer().run(graph);
  ASSERT_TRUE(unbudgeted.ok());
  Server server({});
  const std::string path = write_graph(graph);
  ASSERT_EQ(ask(server, "load path=" + path).rfind("ok ", 0), 0u);
  ASSERT_EQ(ask(server, "run max_memory_mb=4").rfind("ok run=1 ", 0), 0u);
  const std::string report = ask(server, "wait");
  EXPECT_NE(report.find("state=done"), std::string::npos) << report;
  EXPECT_NE(report.find(" events=" + std::to_string(unbudgeted->dendrogram.events().size()) +
                        " "),
            std::string::npos)
      << report;
  const RunReport final_report = server.supervisor().report();
  EXPECT_EQ(final_report.state, RunState::kDone);
  EXPECT_GT(final_report.passes, 1u);
  EXPECT_LE(final_report.memory_peak, 4u * 1024 * 1024);
  const std::shared_ptr<const core::ClusterResult> served = server.supervisor().result();
  ASSERT_NE(served, nullptr);
  EXPECT_EQ(core::to_merge_list(served->dendrogram),
            core::to_merge_list(unbudgeted->dendrogram));
}

TEST_F(ServerTest, BusyServerAnswersUnavailable) {
  Server server({});
  const std::string path = write_graph(budget_tripping_graph());
  ASSERT_EQ(ask(server, "load path=" + path).rfind("ok ", 0), 0u);
  ASSERT_EQ(ask(server, "run threads=1").rfind("ok run=1 ", 0), 0u);
  // The second submission races the first run's completion; either it lost
  // the race (run done, new run accepted) or it was refused as busy with the
  // retryable unavailable taxonomy. Both keep the server consistent.
  const std::string second = ask(server, "run threads=1");
  if (second.rfind("err ", 0) == 0) {
    EXPECT_NE(second.find("code=unavailable"), std::string::npos) << second;
    EXPECT_NE(second.find("retryable=1"), std::string::npos) << second;
  } else {
    EXPECT_EQ(second.rfind("ok run=2 ", 0), 0u) << second;
  }
  ask(server, "wait");
}

TEST_F(ServerTest, CancelThenServeAgain) {
  Server server({});
  const std::string path = write_graph(budget_tripping_graph());
  ASSERT_EQ(ask(server, "load path=" + path).rfind("ok ", 0), 0u);
  ASSERT_EQ(ask(server, "run").rfind("ok run=1 ", 0), 0u);
  ask(server, "cancel");
  const std::string report = ask(server, "wait");
  // The cancel races completion: cancelled when it landed in time, done
  // otherwise. Either way the server accepts the next run.
  EXPECT_TRUE(report.find("state=cancelled") != std::string::npos ||
              report.find("state=done") != std::string::npos)
      << report;
  ASSERT_EQ(ask(server, "run deadline_ms=10000").rfind("ok run=2 ", 0), 0u);
  EXPECT_NE(ask(server, "wait").find("state=done"), std::string::npos);
}

TEST_F(ServerTest, ShutdownDrainsAndStopsTheSession) {
  Server server({});
  std::istringstream in("ping\nshutdown\nping\n");
  std::ostringstream out;
  server.serve(in, out);
  // The post-shutdown ping is never answered: serve() returned.
  EXPECT_EQ(out.str(), "ok pong=1\nok bye=1\n");
}

TEST(SignalsTest, StopSignalLatchesAndTheWatcherFires) {
  install_stop_handlers();
  reset_stop_signal();
  ASSERT_EQ(stop_signal(), 0);

  std::atomic<int> seen{0};
  SignalWatcher watcher([&seen](int signo) { seen.store(signo); },
                        std::chrono::milliseconds(2));
  ::raise(SIGTERM);
  for (int i = 0; i < 500 && !watcher.fired(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(watcher.fired());
  EXPECT_EQ(seen.load(), SIGTERM);
  EXPECT_EQ(stop_signal(), SIGTERM);

  // A second raise() must not re-latch a fresh signal number: the flag is
  // one-shot until reset (SA_RESETHAND means the *third* would kill us; the
  // handler re-arms only via install_stop_handlers()).
  reset_stop_signal();
  install_stop_handlers();
  EXPECT_EQ(stop_signal(), 0);
}

TEST(RunSupervisorTest, LaunchWithoutGraphIsInvalid) {
  RunSupervisor supervisor;
  EXPECT_EQ(supervisor.launch(RunSpec{}).code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(supervisor.running());
  EXPECT_TRUE(supervisor.wait(5));
  EXPECT_EQ(supervisor.result(), nullptr);
  EXPECT_EQ(supervisor.report().state, RunState::kIdle);
}

TEST(RunSupervisorTest, StateNames) {
  EXPECT_STREQ(run_state_name(RunState::kIdle), "idle");
  EXPECT_STREQ(run_state_name(RunState::kRunning), "running");
  EXPECT_STREQ(run_state_name(RunState::kDone), "done");
  EXPECT_STREQ(run_state_name(RunState::kDegraded), "degraded");
  EXPECT_STREQ(run_state_name(RunState::kCancelled), "cancelled");
  EXPECT_STREQ(run_state_name(RunState::kFailed), "failed");
}

TEST_F(ServerTest, ManifestRoundTripsExactly) {
  const graph::WeightedGraph graph = small_graph();
  core::LinkClusterer::Config config;
  config.mode = core::ClusterMode::kCoarse;
  config.min_similarity = 0.375;
  config.coarse.gamma = 2.5;
  config.seed = 1234;
  RunManifest manifest;
  manifest.fingerprint = core::LinkClusterer::fingerprint(graph, config);
  manifest.threads = 6;
  manifest.graph_path = "/data/my graph.edges";
  manifest.merges_path = (dir_ / "merges.txt").string();
  const std::string path = RunSupervisor::manifest_path(dir_.string());
  ASSERT_TRUE(manifest.write(path).ok());

  StatusOr<RunManifest> read = RunManifest::read(path);
  ASSERT_TRUE(read.ok()) << read.status().to_string();
  EXPECT_EQ(read->threads, 6u);
  EXPECT_EQ(read->graph_path, manifest.graph_path);
  EXPECT_EQ(read->merges_path, manifest.merges_path);
  const core::RunFingerprint& got = read->fingerprint;
  const core::RunFingerprint& want = manifest.fingerprint;
  EXPECT_EQ(got.graph_digest, want.graph_digest);
  EXPECT_EQ(got.mode, want.mode);
  EXPECT_EQ(got.seed, want.seed);
  // Doubles travel as bit patterns: exact equality, including the -inf
  // default when min_similarity is armed elsewhere.
  EXPECT_EQ(got.min_similarity, want.min_similarity);
  EXPECT_EQ(got.gamma, want.gamma);
  EXPECT_EQ(got.eta0, want.eta0);
}

TEST_F(ServerTest, ManifestReadRejectsGarbage) {
  const std::string path = (dir_ / "run.manifest").string();
  std::ofstream(path) << "not a manifest\n";
  EXPECT_FALSE(RunManifest::read(path).ok());
  EXPECT_FALSE(RunManifest::read((dir_ / "absent").string()).ok());
}

TEST_F(ServerTest, AutorecoveryReRunsAnInterruptedRun) {
  const std::string graph_path = write_graph(small_graph());
  const std::string merges_path = (dir_ / "merges.txt").string();
  const fs::path state = dir_ / "state";

  for (const core::ClusterMode mode : {core::ClusterMode::kFine, core::ClusterMode::kCoarse}) {
    SCOPED_TRACE(mode == core::ClusterMode::kFine ? "fine" : "coarse");
    fs::remove_all(state);
    fs::remove(merges_path);
    // A crashed server's leftovers: the manifest alone. Recovery reruns the
    // run from scratch.
    core::LinkClusterer::Config config;
    config.mode = mode;
    RunManifest manifest;
    manifest.fingerprint = core::LinkClusterer::fingerprint(small_graph(), config);
    manifest.threads = 2;
    manifest.graph_path = graph_path;
    manifest.merges_path = merges_path;
    fs::create_directories(state);
    ASSERT_TRUE(manifest.write(RunSupervisor::manifest_path(state.string())).ok());

    ServerOptions options;
    options.state_dir = state.string();
    Server server(options);
    ASSERT_TRUE(server.autorecover().ok());
    const std::string report = ServerTest::ask(server, "wait");
    EXPECT_NE(report.find("state=done"), std::string::npos) << report;
    EXPECT_NE(ServerTest::ask(server, "health").find("recovered=1"),
              std::string::npos);

    // The recovered run produced the exact merge list the original would have.
    config.threads = 2;
    StatusOr<core::ClusterResult> direct =
        core::LinkClusterer(config).run(small_graph());
    ASSERT_TRUE(direct.ok());
    std::ifstream merges(merges_path);
    std::stringstream written;
    written << merges.rdbuf();
    EXPECT_EQ(written.str(), core::to_merge_list(direct->dendrogram));

    // Success removed the manifest, and the rerun wrote no snapshot: a
    // restart has nothing left to recover.
    EXPECT_FALSE(fs::exists(RunSupervisor::manifest_path(state.string())));
    for (const fs::directory_entry& entry : fs::directory_iterator(state)) {
      EXPECT_EQ(entry.path().string().find(".lcsnap"), std::string::npos)
          << entry.path();
    }
    Server second(options);
    ASSERT_TRUE(second.autorecover().ok());
    EXPECT_EQ(second.supervisor().report().state, RunState::kIdle);
  }
}

TEST_F(ServerTest, ManifestLandsInACheckpointDirThatDoesNotExistYet) {
  // Nothing else creates the state directory, so the supervisor must create
  // it itself or a crash mid-run leaves no recovery state at all.
  const std::string graph_path = write_graph(small_graph());
  const fs::path nested = dir_ / "state" / "nested";
  ServerOptions options;
  options.state_dir = nested.string();
  Server server(options);
  ASSERT_EQ(ask(server, "load path=" + graph_path).substr(0, 2), "ok");
  ask(server, "run deadline_ms=0");
  EXPECT_NE(ask(server, "wait").find("state=failed"), std::string::npos);
  // A resource-tripped run stays retryable after a restart: its manifest
  // survives, in a directory that did not exist before the run.
  EXPECT_TRUE(fs::exists(RunSupervisor::manifest_path(nested.string())));
}

TEST_F(ServerTest, AutorecoveryRefusesAMismatchedGraph) {
  // The manifest names a graph whose digest no longer matches its content.
  const std::string graph_path = write_graph(small_graph());
  core::LinkClusterer::Config config;
  RunManifest manifest;
  manifest.fingerprint =
      core::LinkClusterer::fingerprint(budget_tripping_graph(), config);
  manifest.threads = 1;
  manifest.graph_path = graph_path;
  ASSERT_TRUE(manifest.write(RunSupervisor::manifest_path(dir_.string())).ok());

  ServerOptions options;
  options.state_dir = dir_.string();
  Server server(options);
  const Status refused = server.autorecover();
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
  // Refusal is not a crash: the server still serves fresh requests.
  EXPECT_EQ(ServerTest::ask(server, "ping"), "ok pong=1");
}

/// Blocking localhost connect to `port`; returns the socket fd.
int connect_local(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << "connect: " << errno;
  return fd;
}

void send_all(int fd, const std::string& data) {
  std::size_t offset = 0;
  while (offset < data.size()) {
    const ssize_t n = ::send(fd, data.data() + offset, data.size() - offset, 0);
    ASSERT_GT(n, 0) << "send: " << errno;
    offset += static_cast<std::size_t>(n);
  }
}

/// Reads one '\n'-terminated response line (newline stripped).
std::string recv_line(int fd) {
  std::string line;
  char byte = 0;
  while (::recv(fd, &byte, 1, 0) == 1) {
    if (byte == '\n') return line;
    line.push_back(byte);
  }
  return line;  // peer closed
}

TEST(ServeTcpTest, OversizedLineGetsAnErrorAndTheConnectionSurvives) {
  StatusOr<int> listener = listen_on(0);
  ASSERT_TRUE(listener.ok()) << listener.status().to_string();
  const int port = listen_port(*listener);
  ASSERT_GT(port, 0);

  Server server({});
  std::ostringstream log;
  std::thread loop([&] { serve_fds(server, *listener, /*use_stdin=*/false, log); });

  const int client = connect_local(port);
  // 80 KiB of garbage in one request line: past the 64 KiB cap.
  send_all(client, std::string(80 * 1024, 'a') + "\n");
  const std::string rejected = recv_line(client);
  EXPECT_EQ(rejected.rfind("err code=invalid_argument", 0), 0u) << rejected;
  EXPECT_NE(rejected.find("exceeds"), std::string::npos) << rejected;
  // Same connection, next request: the server only dropped the line.
  send_all(client, "ping\n");
  EXPECT_EQ(recv_line(client), "ok pong=1");
  send_all(client, "shutdown\n");
  EXPECT_EQ(recv_line(client), "ok bye=1");
  loop.join();
  ::close(client);
}

TEST(ServeTcpTest, ClientVanishingMidCommandDoesNotKillTheLoop) {
  StatusOr<int> listener = listen_on(0);
  ASSERT_TRUE(listener.ok()) << listener.status().to_string();
  const int port = listen_port(*listener);
  ASSERT_GT(port, 0);

  Server server({});
  std::ostringstream log;
  std::thread loop([&] { serve_fds(server, *listener, /*use_stdin=*/false, log); });

  // First client dies mid-command: bytes sent, no newline, then gone.
  const int rude = connect_local(port);
  send_all(rude, "pin");
  ::close(rude);

  // The accept loop must still be alive for the next client.
  const int polite = connect_local(port);
  send_all(polite, "ping\n");
  EXPECT_EQ(recv_line(polite), "ok pong=1");
  send_all(polite, "shutdown\n");
  EXPECT_EQ(recv_line(polite), "ok bye=1");
  loop.join();
  ::close(polite);
}

TEST_F(ServerTest, AutorecoveryDisabledLeavesTheManifestAlone) {
  const std::string graph_path = write_graph(small_graph());
  core::LinkClusterer::Config config;
  RunManifest manifest;
  manifest.fingerprint = core::LinkClusterer::fingerprint(small_graph(), config);
  manifest.graph_path = graph_path;
  ASSERT_TRUE(manifest.write(RunSupervisor::manifest_path(dir_.string())).ok());

  ServerOptions options;
  options.state_dir = dir_.string();
  options.autorecover = false;
  Server server(options);
  ASSERT_TRUE(server.autorecover().ok());
  EXPECT_EQ(server.supervisor().report().state, RunState::kIdle);
  EXPECT_TRUE(fs::exists(RunSupervisor::manifest_path(dir_.string())));
}

}  // namespace
}  // namespace lc::serve
