// Fault-injection integration suite. Each test arms one fault::maybe_fire()
// site inside a clustering phase (or the snapshot, baseline and serve paths)
// and proves the failure surfaces as a non-OK Status from LinkClusterer::run()
// — never a process death — and that a disarmed rerun reproduces the exact
// pre-fault dendrogram. The sites are live in every build.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/edge_similarity_matrix.hpp"
#include "baseline/nbm.hpp"
#include "core/dendrogram.hpp"
#include "core/link_clusterer.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "serve/run_supervisor.hpp"
#include "serve/server.hpp"
#include "util/fault_inject.hpp"
#include "util/run_context.hpp"
#include "util/status.hpp"

namespace lc::core {
namespace {

const graph::WeightedGraph& test_graph() {
  static const graph::WeightedGraph graph =
      graph::erdos_renyi(300, 0.05, {11, graph::WeightPolicy::kUniform});
  return graph;
}

LinkClusterer::Config make_config(std::size_t threads, ClusterMode mode) {
  LinkClusterer::Config config;
  config.threads = threads;
  config.mode = mode;
  return config;
}

/// FNV-1a over the merge-event stream (same digest as the pinned one in
/// tests/core/thread_invariance_test.cpp):
/// any difference in merge order, partners, or heights changes it.
std::uint64_t dendrogram_digest(const Dendrogram& dendrogram) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (byte * 8)) & 0xFFu;
      h *= 1099511628211ull;
    }
  };
  for (const MergeEvent& event : dendrogram.events()) {
    mix((static_cast<std::uint64_t>(event.level) << 32) | event.from);
    mix(event.into);
    mix(std::bit_cast<std::uint64_t>(event.similarity));
  }
  return h;
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::disarm(); }
};

struct SiteCase {
  const char* site;
  std::size_t threads;
  ClusterMode mode;
};

// Every site paired with a configuration whose code path reaches it.
const SiteCase kThrowCases[] = {
    {"sim.pass1", 1, ClusterMode::kFine},
    {"build.gather", 1, ClusterMode::kFine},
    {"sweep.entry", 1, ClusterMode::kFine},
    {"sim.pass1", 8, ClusterMode::kFine},
    {"build.gather", 8, ClusterMode::kFine},
    {"sweep.entry", 8, ClusterMode::kFine},
    // forest.prim runs once per Prim block, inline at T = 1 and on the pool
    // workers at T = 8.
    {"forest.prim", 1, ClusterMode::kFine},
    {"forest.prim", 8, ClusterMode::kFine},
    // sweep.bucket sits inside BucketSweepSource::sort_bucket, which only the
    // coarse sweep reads — it reaches it on the caller thread (first bucket)
    // and on the prefetch thread (later buckets, rethrown at the handoff).
    {"sweep.bucket", 1, ClusterMode::kCoarse},
    {"sweep.bucket", 8, ClusterMode::kCoarse},
    {"coarse.chunk", 1, ClusterMode::kCoarse},
    {"coarse.apply", 1, ClusterMode::kCoarse},
    {"coarse.journal", 1, ClusterMode::kCoarse},
    {"coarse.chunk", 8, ClusterMode::kCoarse},
    {"coarse.apply", 8, ClusterMode::kCoarse},
    {"coarse.journal", 8, ClusterMode::kCoarse},
};

// The call sites that dedicated tests arm instead of a kThrowCases row:
// coarse.snapshot needs a RunContext, the snapshot.* sites a checkpointing
// run, the baseline.* sites the baseline builders, the serve.* sites a
// server, and memory.charge is armed by tests/util/fault_plan_test.cpp.
// A site joins this list only together with a test that arms it.
const char* const kDedicatedSites[] = {
    "coarse.snapshot",    "baseline.matrix",      "baseline.nbm",
    "snapshot.serialize", "snapshot.write",       "snapshot.rename",
    "snapshot.load",      "serve.accept",         "serve.manifest.write",
    "serve.worker.spawn", "memory.charge",
};

TEST(FaultSiteCoverage, EveryCallSiteIsArmedByATest) {
  for (const char* name : kDedicatedSites) {
    EXPECT_NE(fault::find_site(name), nullptr) << name << " is not registered";
  }
  for (const fault::SiteInfo& site : fault::site_registry()) {
    if (site.cls == fault::SiteClass::kIo) continue;  // checkpoint_chaos_test
    const std::string_view name = site.name;
    const bool thrown = std::any_of(
        std::begin(kThrowCases), std::end(kThrowCases),
        [name](const SiteCase& c) { return name == c.site; });
    const bool dedicated = std::any_of(
        std::begin(kDedicatedSites), std::end(kDedicatedSites),
        [name](const char* listed) { return name == listed; });
    EXPECT_TRUE(thrown || dedicated) << name << " is armed by no test";
  }
}

TEST_F(FaultInjectionTest, ThrowAtEverySiteBecomesInternalStatus) {
  for (const SiteCase& c : kThrowCases) {
    SCOPED_TRACE(testing::Message() << c.site << " threads=" << c.threads);
    fault::arm(c.site, fault::FaultKind::kThrow);
    const StatusOr<ClusterResult> run =
        LinkClusterer(make_config(c.threads, c.mode))
            .run(test_graph());
    EXPECT_GE(fault::fire_count(), 1u) << "site never reached";
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::kInternal);
    EXPECT_NE(run.status().message().find("injected fault"), std::string::npos);
    EXPECT_NE(run.status().message().find(c.site), std::string::npos);
    fault::disarm();
  }
}

TEST_F(FaultInjectionTest, SnapshotSiteFiresWhenContextAttached) {
  // coarse.snapshot only exists on the accounting path, so it needs a ctx.
  RunContext ctx;
  LinkClusterer::Config config =
      make_config(1, ClusterMode::kCoarse);
  config.ctx = &ctx;
  fault::arm("coarse.snapshot", fault::FaultKind::kThrow);
  const StatusOr<ClusterResult> run = LinkClusterer(config).run(test_graph());
  EXPECT_GE(fault::fire_count(), 1u);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInternal);
}

TEST_F(FaultInjectionTest, BadAllocBecomesResourceExhausted) {
  // A bad_alloc inside a gather block on a pool worker is rethrown on the
  // caller and classified at the run boundary.
  fault::arm("build.gather", fault::FaultKind::kBadAlloc);
  const StatusOr<ClusterResult> run =
      LinkClusterer(make_config(8, ClusterMode::kFine)).run(test_graph());
  EXPECT_GE(fault::fire_count(), 1u);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(run.status().message().find("allocation failed"), std::string::npos);
}

TEST_F(FaultInjectionTest, SleepTripsArmedDeadline) {
  // Pass 1 stalls past the deadline; the next poll site converts the overrun
  // into kDeadlineExceeded. sim.pass1 is hit once per worker slice, so the
  // stall is bounded. The graph is built before the deadline is armed, so
  // only the run itself races the 10 ms budget.
  const graph::WeightedGraph& graph = test_graph();
  RunContext ctx;
  ctx.set_deadline_after(std::chrono::milliseconds{10});
  LinkClusterer::Config config = make_config(1, ClusterMode::kFine);
  config.ctx = &ctx;
  fault::arm("sim.pass1", fault::FaultKind::kSleep, 0, 50);
  const StatusOr<ClusterResult> run = LinkClusterer(config).run(graph);
  EXPECT_GE(fault::fire_count(), 1u);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(FaultInjectionTest, DisarmedRerunReproducesDendrogramExactly) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    const LinkClusterer clusterer(
        make_config(threads, ClusterMode::kFine));
    const StatusOr<ClusterResult> before = clusterer.run(test_graph());
    ASSERT_TRUE(before.ok());
    const std::uint64_t reference = dendrogram_digest(before.value().dendrogram);

    fault::arm("sim.pass1", fault::FaultKind::kThrow);
    EXPECT_FALSE(clusterer.run(test_graph()).ok());
    fault::disarm();

    const StatusOr<ClusterResult> after = clusterer.run(test_graph());
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(dendrogram_digest(after.value().dendrogram), reference);
  }
}

TEST_F(FaultInjectionTest, GatherFaultDisarmedRerunReproducesDendrogramExactly) {
  // A fault inside the gather pass-2 block unwinds the default build (serial
  // and through the pool), and a disarmed rerun reproduces the exact
  // dendrogram — the per-worker output blocks hold no state that survives
  // the unwound run.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    const LinkClusterer clusterer(
        make_config(threads, ClusterMode::kFine));
    const StatusOr<ClusterResult> before = clusterer.run(test_graph());
    ASSERT_TRUE(before.ok());
    const std::uint64_t reference = dendrogram_digest(before.value().dendrogram);

    fault::arm("build.gather", fault::FaultKind::kThrow);
    EXPECT_FALSE(clusterer.run(test_graph()).ok());
    fault::disarm();

    const StatusOr<ClusterResult> after = clusterer.run(test_graph());
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(dendrogram_digest(after.value().dendrogram), reference);
  }
}

TEST_F(FaultInjectionTest, DisarmedRerunReproducesCoarseDendrogramExactly) {
  // Same round trip through the coarse mode. coarse.apply is hit once per
  // chunk at every thread count: the sweep applies 12 chunks, so skipping 6
  // hits throws in the seventh chunk, after six chunks' unions are in the
  // DSU. A fresh run afterwards reproduces the exact coarse dendrogram at
  // both thread counts.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    const LinkClusterer clusterer(
        make_config(threads, ClusterMode::kCoarse));
    const StatusOr<ClusterResult> before = clusterer.run(test_graph());
    ASSERT_TRUE(before.ok());
    const std::uint64_t reference = dendrogram_digest(before.value().dendrogram);

    fault::arm("coarse.apply", fault::FaultKind::kThrow, /*skip_hits=*/6);
    EXPECT_FALSE(clusterer.run(test_graph()).ok());
    fault::disarm();

    const StatusOr<ClusterResult> after = clusterer.run(test_graph());
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(dendrogram_digest(after.value().dendrogram), reference);
  }
}

TEST_F(FaultInjectionTest, SkipHitsDelaysTheFault) {
  // build.gather is passed once per gather block. With skip_hits = 3, the
  // first three of the eight blocks succeed and the fourth throws — proving
  // mid-phase unwinding, not just entry-point unwinding.
  fault::arm("build.gather", fault::FaultKind::kThrow, /*skip_hits=*/3);
  const StatusOr<ClusterResult> run =
      LinkClusterer(make_config(8, ClusterMode::kFine)).run(test_graph());
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInternal);
}

class SnapshotFaultTest : public FaultInjectionTest {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("lc_fault_snapshot_" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    fault::disarm();
    std::filesystem::remove_all(dir_);
  }

  [[nodiscard]] LinkClusterer::Config checkpointing_config(
      std::uint64_t max_snapshots) const {
    LinkClusterer::Config config =
        make_config(1, ClusterMode::kFine);
    config.checkpoint.directory = dir_.string();
    config.checkpoint.interval_ms = 0;
    config.checkpoint.max_snapshots = max_snapshots;
    return config;
  }

  std::filesystem::path dir_;
};

TEST_F(SnapshotFaultTest, FailedSnapshotWriteNeverFailsTheRun) {
  // A fault inside the snapshot write path — a throw while the tmp file is
  // open, or an allocation failure while serializing — is swallowed by the
  // Checkpointer: the run completes, produces the exact reference dendrogram,
  // and simply has no snapshot (and no orphaned tmp file) to show for it.
  const StatusOr<ClusterResult> reference =
      LinkClusterer(make_config(1, ClusterMode::kFine))
          .run(test_graph());
  ASSERT_TRUE(reference.ok());

  const struct {
    const char* site;
    fault::FaultKind kind;
  } kInputs[] = {
      {"snapshot.write", fault::FaultKind::kThrow},
      {"snapshot.serialize", fault::FaultKind::kBadAlloc},
  };
  const std::string primary = snapshot_path(dir_.string());
  for (const auto& input : kInputs) {
    SCOPED_TRACE(input.site);
    fault::arm(input.site, input.kind);
    const StatusOr<ClusterResult> run =
        LinkClusterer(checkpointing_config(/*max_snapshots=*/4)).run(test_graph());
    EXPECT_GE(fault::fire_count(), 1u);
    fault::disarm();
    ASSERT_TRUE(run.ok()) << run.status().to_string();
    EXPECT_EQ(dendrogram_digest(run.value().dendrogram),
              dendrogram_digest(reference.value().dendrogram));
    EXPECT_FALSE(std::filesystem::exists(primary));
    EXPECT_FALSE(std::filesystem::exists(primary + ".tmp"));
  }
}

TEST_F(SnapshotFaultTest, CrashBetweenRenamesLeavesLoadablePrev) {
  // Snapshot #1 commits normally. Snapshot #2 rotates the primary to .prev
  // and then "crashes" between the two renames — the torn window. The
  // primary is gone, but .prev holds snapshot #1 and resume still works.
  const StatusOr<ClusterResult> reference =
      LinkClusterer(make_config(1, ClusterMode::kFine))
          .run(test_graph());
  ASSERT_TRUE(reference.ok());

  fault::arm("snapshot.rename", fault::FaultKind::kThrow, /*skip_hits=*/1);
  const StatusOr<ClusterResult> writer =
      LinkClusterer(checkpointing_config(/*max_snapshots=*/2)).run(test_graph());
  EXPECT_GE(fault::fire_count(), 1u);
  fault::disarm();
  ASSERT_TRUE(writer.ok()) << writer.status().to_string();

  const std::string primary = snapshot_path(dir_.string());
  EXPECT_FALSE(std::filesystem::exists(primary));
  ASSERT_TRUE(std::filesystem::exists(primary + ".prev"));

  LinkClusterer::Config resuming = checkpointing_config(/*max_snapshots=*/0);
  resuming.checkpoint.interval_ms = 3600000;
  resuming.resume = true;
  const StatusOr<ClusterResult> resumed = LinkClusterer(resuming).run(test_graph());
  ASSERT_TRUE(resumed.ok()) << resumed.status().to_string();
  EXPECT_EQ(dendrogram_digest(resumed.value().dendrogram),
            dendrogram_digest(reference.value().dendrogram));
}

TEST_F(SnapshotFaultTest, TransientWriteFaultIsHealedByRetry) {
  // The fault fires twice and then falls silent (max_fires) — exactly a
  // transient I/O glitch. Two retries with backoff recover the snapshot:
  // no failure is recorded, the file lands on disk, and the result is the
  // reference bit for bit.
  const StatusOr<ClusterResult> reference =
      LinkClusterer(make_config(1, ClusterMode::kFine))
          .run(test_graph());
  ASSERT_TRUE(reference.ok());

  LinkClusterer::Config config = checkpointing_config(/*max_snapshots=*/1);
  config.checkpoint.write_retries = 2;
  config.checkpoint.backoff_initial_ms = 1;  // bounded: 1 + 2 ms of backoff
  config.checkpoint.backoff_max_ms = 8;
  fault::arm("snapshot.write", fault::FaultKind::kThrow, /*skip_hits=*/0,
             /*sleep_ms=*/0, /*max_fires=*/2);
  const StatusOr<ClusterResult> run = LinkClusterer(config).run(test_graph());
  EXPECT_EQ(fault::fire_count(), 2u);
  fault::disarm();

  ASSERT_TRUE(run.ok()) << run.status().to_string();
  ASSERT_TRUE(run.value().ckpt.has_value());
  EXPECT_EQ(run.value().ckpt->retries_used, 2u);
  EXPECT_EQ(run.value().ckpt->write_failures, 0u);
  EXPECT_FALSE(run.value().ckpt->degraded);
  EXPECT_GE(run.value().ckpt->snapshots_written, 1u);
  EXPECT_TRUE(std::filesystem::exists(snapshot_path(dir_.string())));
  EXPECT_EQ(dendrogram_digest(run.value().dendrogram),
            dendrogram_digest(reference.value().dendrogram));
}

TEST_F(SnapshotFaultTest, TransientRenameFaultIsHealedByRetry) {
  LinkClusterer::Config config = checkpointing_config(/*max_snapshots=*/1);
  config.checkpoint.write_retries = 1;
  config.checkpoint.backoff_initial_ms = 0;  // immediate retry
  fault::arm("snapshot.rename", fault::FaultKind::kThrow, /*skip_hits=*/0,
             /*sleep_ms=*/0, /*max_fires=*/1);
  const StatusOr<ClusterResult> run = LinkClusterer(config).run(test_graph());
  EXPECT_EQ(fault::fire_count(), 1u);
  fault::disarm();

  ASSERT_TRUE(run.ok()) << run.status().to_string();
  ASSERT_TRUE(run.value().ckpt.has_value());
  EXPECT_EQ(run.value().ckpt->retries_used, 1u);
  EXPECT_EQ(run.value().ckpt->write_failures, 0u);
  EXPECT_TRUE(std::filesystem::exists(snapshot_path(dir_.string())));
}

TEST_F(SnapshotFaultTest, ExhaustedRetriesDegradeButNeverFailTheRun) {
  // The fault never heals. One commit burns its retries and records the
  // failure; degrade_after=1 flips the checkpointer to in-memory-only, so
  // no further snapshot is attempted — and the run still returns the exact
  // reference dendrogram.
  const StatusOr<ClusterResult> reference =
      LinkClusterer(make_config(1, ClusterMode::kFine))
          .run(test_graph());
  ASSERT_TRUE(reference.ok());

  LinkClusterer::Config config = checkpointing_config(/*max_snapshots=*/0);
  config.checkpoint.write_retries = 2;
  config.checkpoint.backoff_initial_ms = 0;
  config.checkpoint.degrade_after = 1;
  fault::arm("snapshot.write", fault::FaultKind::kThrow);
  const StatusOr<ClusterResult> run = LinkClusterer(config).run(test_graph());
  // 1 attempt + 2 retries, then the degraded checkpointer stops trying.
  EXPECT_EQ(fault::fire_count(), 3u);
  fault::disarm();

  ASSERT_TRUE(run.ok()) << run.status().to_string();
  ASSERT_TRUE(run.value().ckpt.has_value());
  EXPECT_EQ(run.value().ckpt->write_failures, 1u);
  EXPECT_EQ(run.value().ckpt->retries_used, 2u);
  EXPECT_TRUE(run.value().ckpt->degraded);
  EXPECT_EQ(run.value().ckpt->snapshots_written, 0u);
  EXPECT_EQ(dendrogram_digest(run.value().dendrogram),
            dendrogram_digest(reference.value().dendrogram));

  // Disarmed rerun from scratch: digest-identical, snapshots healthy again.
  // (Capped — an uncapped every-entry snapshot rerun is all disk time.)
  config.checkpoint.max_snapshots = 2;
  StatusOr<ClusterResult> rerun = LinkClusterer(config).run(test_graph());
  ASSERT_TRUE(rerun.ok());
  EXPECT_FALSE(rerun.value().ckpt->degraded);
  EXPECT_EQ(dendrogram_digest(rerun.value().dendrogram),
            dendrogram_digest(reference.value().dendrogram));
}

TEST_F(SnapshotFaultTest, LoadFaultSurfacesAsStatusOnResume) {
  ASSERT_TRUE(
      LinkClusterer(checkpointing_config(/*max_snapshots=*/1)).run(test_graph()).ok());

  LinkClusterer::Config resuming = checkpointing_config(/*max_snapshots=*/0);
  resuming.checkpoint.interval_ms = 3600000;
  resuming.resume = true;
  fault::arm("snapshot.load", fault::FaultKind::kThrow);
  const StatusOr<ClusterResult> resumed = LinkClusterer(resuming).run(test_graph());
  EXPECT_GE(fault::fire_count(), 1u);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kInternal);
}

TEST_F(FaultInjectionTest, MultiSitePlanFiresEachWindowInOrder) {
  // Two sites armed simultaneously, each with a one-fire window. The
  // first run dies in the similarity build, the second survives it (that
  // clause is spent) and dies at the sweep, the third finds every window
  // spent and completes with the reference dendrogram.
  const LinkClusterer clusterer(
      make_config(1, ClusterMode::kFine));
  const StatusOr<ClusterResult> reference = clusterer.run(test_graph());
  ASSERT_TRUE(reference.ok());

  const StatusOr<fault::FaultPlan> plan =
      fault::parse_plan("build.gather:throw:max=1;sweep.entry:throw:max=1");
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  ASSERT_TRUE(fault::arm_plan(*plan).ok());

  const StatusOr<ClusterResult> first = clusterer.run(test_graph());
  ASSERT_FALSE(first.ok());
  EXPECT_NE(first.status().message().find("build.gather"), std::string::npos)
      << first.status().to_string();

  const StatusOr<ClusterResult> second = clusterer.run(test_graph());
  ASSERT_FALSE(second.ok());
  EXPECT_NE(second.status().message().find("sweep.entry"), std::string::npos)
      << second.status().to_string();

  const StatusOr<ClusterResult> third = clusterer.run(test_graph());
  ASSERT_TRUE(third.ok()) << third.status().to_string();
  EXPECT_EQ(fault::fire_count(), 2u);
  EXPECT_EQ(dendrogram_digest(third.value().dendrogram),
            dendrogram_digest(reference.value().dendrogram));
}

class ServeFaultTest : public FaultInjectionTest {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("lc_fault_serve_" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    graph_path_ = (dir_ / "graph.edges").string();
    const graph::IoResult io = graph::write_edge_list(
        graph::erdos_renyi(80, 0.1, {13, graph::WeightPolicy::kUniform}),
        graph_path_);
    ASSERT_TRUE(io.ok) << io.error;
  }
  void TearDown() override {
    fault::disarm();
    std::filesystem::remove_all(dir_);
  }

  static std::string ask(serve::Server& server, const std::string& line) {
    std::string response;
    server.handle_line(line, &response);
    if (!response.empty() && response.back() == '\n') response.pop_back();
    return response;
  }

  std::filesystem::path dir_;
  std::string graph_path_;
};

TEST_F(ServeFaultTest, WorkerSpawnFaultIsContainedAndTheNextRunLaunches) {
  serve::Server server({});
  ASSERT_EQ(ask(server, "load path=" + graph_path_).substr(0, 2), "ok");

  fault::arm("serve.worker.spawn", fault::FaultKind::kThrow, /*skip_hits=*/0,
             /*sleep_ms=*/0, /*max_fires=*/1);
  const std::string refused = ask(server, "run");
  EXPECT_EQ(refused.rfind("err code=internal", 0), 0u) << refused;
  EXPECT_EQ(fault::fire_count(), 1u);

  // The supervisor is idle again (not wedged "running" with no thread), so
  // the next launch — with the one-fire window spent — goes through.
  const std::string launched = ask(server, "run");
  EXPECT_EQ(launched.rfind("ok run=", 0), 0u) << launched;
  EXPECT_NE(ask(server, "wait").find("state=done"), std::string::npos);
}

TEST_F(ServeFaultTest, ManifestWriteFaultNeverFailsTheRun) {
  // The manifest is recovery insurance; losing it must not lose the run.
  serve::ServerOptions options;
  options.checkpoint_dir = (dir_ / "ckpt").string();
  serve::Server server(options);
  ASSERT_EQ(ask(server, "load path=" + graph_path_).substr(0, 2), "ok");

  fault::arm("serve.manifest.write", fault::FaultKind::kThrow);
  ASSERT_EQ(ask(server, "run").substr(0, 2), "ok");
  EXPECT_NE(ask(server, "wait").find("state=done"), std::string::npos);
  EXPECT_GE(fault::fire_count(), 1u);
  EXPECT_FALSE(std::filesystem::exists(
      serve::RunSupervisor::manifest_path(options.checkpoint_dir)));
}

TEST_F(ServeFaultTest, AcceptFaultDropsOneClientNotTheListener) {
  StatusOr<int> listener = serve::listen_on(0);
  ASSERT_TRUE(listener.ok()) << listener.status().to_string();
  const int port = serve::listen_port(*listener);
  ASSERT_GT(port, 0);

  serve::Server server({});
  std::ostringstream log;
  fault::arm("serve.accept", fault::FaultKind::kThrow, /*skip_hits=*/0,
             /*sleep_ms=*/0, /*max_fires=*/1);
  std::thread loop(
      [&] { serve::serve_fds(server, *listener, /*use_stdin=*/false, log); });

  const auto connect_local = [port]() {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    return fd;
  };
  const auto send_all = [](int fd, const std::string& data) {
    EXPECT_EQ(::send(fd, data.data(), data.size(), 0),
              static_cast<ssize_t>(data.size()));
  };
  const auto recv_line = [](int fd) {
    std::string line;
    char byte = 0;
    while (::recv(fd, &byte, 1, 0) == 1 && byte != '\n') line.push_back(byte);
    return line;
  };

  // The first client is the accept fault's victim: the server closes it
  // immediately (EOF on read) and logs the containment.
  const int victim = connect_local();
  send_all(victim, "ping\n");
  EXPECT_EQ(recv_line(victim), "");
  ::close(victim);

  // The listener survived; the next client is served normally.
  const int survivor = connect_local();
  send_all(survivor, "ping\n");
  EXPECT_EQ(recv_line(survivor), "ok pong=1");
  send_all(survivor, "shutdown\n");
  EXPECT_EQ(recv_line(survivor), "ok bye=1");
  loop.join();
  ::close(survivor);
  EXPECT_EQ(fault::fire_count(), 1u);
  EXPECT_NE(log.str().find("serve.accept"), std::string::npos) << log.str();
}

TEST_F(FaultInjectionTest, BaselineSitesThrow) {
  const graph::WeightedGraph& graph = test_graph();
  const SimilarityMap map = build_similarity_map(graph, {});
  const EdgeIndex index(graph.edge_count(), EdgeOrder::kNatural, 0);

  fault::arm("baseline.matrix", fault::FaultKind::kThrow);
  EXPECT_THROW(baseline::EdgeSimilarityMatrix::build(graph, map, index),
               std::runtime_error);
  fault::disarm();

  const auto matrix = baseline::EdgeSimilarityMatrix::build(graph, map, index);
  ASSERT_TRUE(matrix.has_value());
  fault::arm("baseline.nbm", fault::FaultKind::kThrow);
  EXPECT_THROW(baseline::nbm_cluster(*matrix), std::runtime_error);
}

}  // namespace
}  // namespace lc::core
