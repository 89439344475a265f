// Chaos-engine unit suite: the fault-plan grammar, the programmatic site
// registry, clause windows (skip/max/probability) and their seeded
// determinism, and the memory.charge call site and the io.* seam consumed by
// util/snapshot_io.
#include "util/fault_inject.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/link_clusterer.hpp"
#include "graph/generators.hpp"
#include "util/run_context.hpp"
#include "util/status.hpp"

namespace lc::fault {
namespace {

class FaultPlanTest : public ::testing::Test {
 protected:
  void TearDown() override {
    disarm();
    ::unsetenv("LC_FAULT_PLAN");
  }
};

TEST_F(FaultPlanTest, ParsesMultiClausePlan) {
  const StatusOr<FaultPlan> plan = parse_plan(
      "seed=7; io.write:write_error:p=0.5:max=2; "
      "memory.charge:sleep:sleep=250:skip=3");
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  EXPECT_EQ(plan->seed, 7u);
  ASSERT_EQ(plan->clauses.size(), 2u);
  EXPECT_EQ(plan->clauses[0].site, "io.write");
  EXPECT_EQ(plan->clauses[0].kind, FaultKind::kWriteError);
  EXPECT_DOUBLE_EQ(plan->clauses[0].probability, 0.5);
  EXPECT_EQ(plan->clauses[0].max_fires, 2u);
  EXPECT_EQ(plan->clauses[1].site, "memory.charge");
  EXPECT_EQ(plan->clauses[1].kind, FaultKind::kSleep);
  EXPECT_EQ(plan->clauses[1].sleep_ms, 250u);
  EXPECT_EQ(plan->clauses[1].skip_hits, 3u);
}

TEST_F(FaultPlanTest, ToStringRoundTrips) {
  const StatusOr<FaultPlan> plan =
      parse_plan("seed=11;io.fsync:fsync_error:max=1;memory.charge:bad_alloc");
  ASSERT_TRUE(plan.ok());
  const StatusOr<FaultPlan> again = parse_plan(plan->to_string());
  ASSERT_TRUE(again.ok()) << again.status().to_string();
  EXPECT_EQ(again->to_string(), plan->to_string());
  EXPECT_EQ(again->seed, 11u);
  ASSERT_EQ(again->clauses.size(), 2u);
  EXPECT_EQ(again->clauses[0].kind, FaultKind::kFsyncError);
}

TEST_F(FaultPlanTest, RejectsMalformedPlans) {
  EXPECT_FALSE(parse_plan("no.such.site:throw").ok());
  EXPECT_FALSE(parse_plan("sweep.entry:frobnicate").ok());
  EXPECT_FALSE(parse_plan("sweep.entry").ok());
  EXPECT_FALSE(parse_plan("seed=banana").ok());
  EXPECT_FALSE(parse_plan("io.write:write_error:p=1.5").ok());
  EXPECT_FALSE(parse_plan("io.write:write_error:bogus=3").ok());
  // Kind/site cross-wiring: I/O kinds only at their io.* site, call-site
  // kinds never at an io.* site.
  EXPECT_FALSE(parse_plan("sweep.entry:write_error").ok());
  EXPECT_FALSE(parse_plan("io.write:throw").ok());
  EXPECT_FALSE(parse_plan("io.write:fsync_error").ok());
  EXPECT_FALSE(parse_plan("io.corrupt:write_error").ok());
}

TEST_F(FaultPlanTest, EmptyPlanParsesAndDisarms) {
  const StatusOr<FaultPlan> plan = parse_plan("  ;; ");
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->empty());
  arm("memory.charge", FaultKind::kThrow);
  EXPECT_TRUE(any_armed());
  ASSERT_TRUE(arm_plan(*plan).ok());
  EXPECT_FALSE(any_armed());
}

TEST_F(FaultPlanTest, RegistryCoversEveryClass) {
  const std::vector<SiteInfo>& sites = site_registry();
  ASSERT_FALSE(sites.empty());
  bool call = false;
  bool io = false;
  for (const SiteInfo& site : sites) {
    ASSERT_NE(site.name, nullptr);
    ASSERT_NE(site.summary, nullptr);
    EXPECT_EQ(find_site(site.name), &site) << site.name;
    call |= site.cls == SiteClass::kCall;
    io |= site.cls == SiteClass::kIo;
    // The class follows the name: io.* sites and only they take I/O kinds.
    EXPECT_EQ(site.cls == SiteClass::kIo,
              std::string_view(site.name).substr(0, 3) == "io.")
        << site.name;
  }
  EXPECT_TRUE(call);
  EXPECT_TRUE(io);
  EXPECT_EQ(find_site("memory.charge")->cls, SiteClass::kCall);
  EXPECT_EQ(find_site("sweep.entry")->cls, SiteClass::kCall);
  EXPECT_EQ(find_site("io.write")->cls, SiteClass::kIo);
  EXPECT_EQ(find_site("serve.accept")->cls, SiteClass::kCall);
  EXPECT_EQ(find_site("made.up.site"), nullptr);
}

TEST_F(FaultPlanTest, KindSiteMatrix) {
  const SiteInfo& sweep = *find_site("sweep.entry");
  const SiteInfo& charge = *find_site("memory.charge");
  const SiteInfo& io_write = *find_site("io.write");
  EXPECT_TRUE(kind_allowed_at(sweep, FaultKind::kThrow));
  EXPECT_TRUE(kind_allowed_at(charge, FaultKind::kBadAlloc));
  EXPECT_FALSE(kind_allowed_at(sweep, FaultKind::kWriteError));
  EXPECT_FALSE(kind_allowed_at(io_write, FaultKind::kThrow));
  EXPECT_TRUE(kind_allowed_at(io_write, FaultKind::kShortWrite));
  EXPECT_TRUE(kind_allowed_at(io_write, FaultKind::kWriteError));
  EXPECT_FALSE(kind_allowed_at(io_write, FaultKind::kRenameError));
  EXPECT_FALSE(kind_allowed_at(sweep, FaultKind::kNone));
}

TEST_F(FaultPlanTest, RuntimeSiteFiresInEveryBuild) {
  // Every call site is live in every build: maybe_fire needs no special
  // compile to deliver an armed fault.
  arm("memory.charge", FaultKind::kThrow, /*skip_hits=*/2);
  EXPECT_NO_THROW(maybe_fire("memory.charge"));
  EXPECT_NO_THROW(maybe_fire("memory.charge"));
  EXPECT_THROW(maybe_fire("memory.charge"), std::runtime_error);
  EXPECT_EQ(fire_count(), 1u);
  EXPECT_EQ(fire_count("memory.charge"), 1u);
}

TEST_F(FaultPlanTest, MaxFiresWindowFallsSilent) {
  arm("memory.charge", FaultKind::kBadAlloc, /*skip_hits=*/0, /*sleep_ms=*/0,
      /*max_fires=*/2);
  EXPECT_THROW(maybe_fire("memory.charge"), std::bad_alloc);
  EXPECT_THROW(maybe_fire("memory.charge"), std::bad_alloc);
  EXPECT_NO_THROW(maybe_fire("memory.charge"));
  EXPECT_EQ(fire_count(), 2u);
}

TEST_F(FaultPlanTest, MultipleSitesArmSimultaneously) {
  const StatusOr<FaultPlan> plan = parse_plan(
      "memory.charge:throw:max=1;io.write:write_error:max=1;"
      "io.fsync:fsync_error");
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(arm_plan(*plan).ok());
  EXPECT_THROW(maybe_fire("memory.charge"), std::runtime_error);
  EXPECT_EQ(consume_io("io.write"), FaultKind::kWriteError);
  EXPECT_EQ(consume_io("io.write"), FaultKind::kNone);  // max=1 spent
  EXPECT_EQ(consume_io("io.fsync"), FaultKind::kFsyncError);
  EXPECT_EQ(consume_io("io.fsync"), FaultKind::kFsyncError);  // unbounded
  EXPECT_EQ(fire_count(), 4u);
}

TEST_F(FaultPlanTest, DeliveryChannelsDoNotCrossWire) {
  // An io clause never throws out of maybe_fire, and a call-site clause
  // is never returned by consume_io — even when the site name matches.
  const StatusOr<FaultPlan> plan =
      parse_plan("io.write:write_error;memory.charge:throw");
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(arm_plan(*plan).ok());
  EXPECT_NO_THROW(maybe_fire("io.write"));
  EXPECT_EQ(consume_io("memory.charge"), FaultKind::kNone);
  EXPECT_EQ(fire_count(), 0u);
}

TEST_F(FaultPlanTest, SkipWindowAppliesToIoSites) {
  const StatusOr<FaultPlan> plan =
      parse_plan("io.rename:rename_error:skip=1:max=2");
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(arm_plan(*plan).ok());
  EXPECT_EQ(consume_io("io.rename"), FaultKind::kNone);  // skipped
  EXPECT_EQ(consume_io("io.rename"), FaultKind::kRenameError);
  EXPECT_EQ(consume_io("io.rename"), FaultKind::kRenameError);
  EXPECT_EQ(consume_io("io.rename"), FaultKind::kNone);  // spent
}

TEST_F(FaultPlanTest, SeededProbabilityReplaysIdentically) {
  const StatusOr<FaultPlan> plan =
      parse_plan("seed=99;io.write:write_error:p=0.5");
  ASSERT_TRUE(plan.ok());
  const auto pattern = [&plan] {
    std::vector<bool> fired;
    EXPECT_TRUE(arm_plan(*plan).ok());
    for (int i = 0; i < 64; ++i) {
      fired.push_back(consume_io("io.write") != FaultKind::kNone);
    }
    return fired;
  };
  const std::vector<bool> first = pattern();
  const std::vector<bool> second = pattern();
  EXPECT_EQ(first, second);
  // A p=0.5 stream over 64 hits should actually mix fires and passes.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
}

TEST_F(FaultPlanTest, CorruptDrawIsDeterministic) {
  const StatusOr<FaultPlan> plan = parse_plan("seed=5;io.corrupt:corrupt:max=1");
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(arm_plan(*plan).ok());
  std::uint64_t first = 0;
  EXPECT_EQ(consume_io("io.corrupt", &first), FaultKind::kCorrupt);
  ASSERT_TRUE(arm_plan(*plan).ok());
  std::uint64_t second = 0;
  EXPECT_EQ(consume_io("io.corrupt", &second), FaultKind::kCorrupt);
  EXPECT_EQ(first, second);
}

TEST_F(FaultPlanTest, ActivePlanReportsCanonicalText) {
  EXPECT_EQ(active_plan(), "");
  const StatusOr<FaultPlan> plan =
      parse_plan("seed=3;io.write:short_write:max=1");
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(arm_plan(*plan).ok());
  EXPECT_EQ(active_plan(), "seed=3;io.write:short_write:max=1");
  disarm();
  EXPECT_EQ(active_plan(), "");
}

TEST_F(FaultPlanTest, ArmsFromEnvironmentPlan) {
  ASSERT_EQ(::setenv("LC_FAULT_PLAN", "memory.charge:bad_alloc:max=1", 1), 0);
  EXPECT_TRUE(arm_from_env());
  EXPECT_TRUE(any_armed());
  EXPECT_THROW(maybe_fire("memory.charge"), std::bad_alloc);
}

TEST_F(FaultPlanTest, ArmsFromPlanFile) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "lc_fault_plan_test.txt")
          .string();
  {
    std::ofstream file(path);
    file << "seed=21;io.fsync:fsync_error:max=1\n";
  }
  ASSERT_EQ(::setenv("LC_FAULT_PLAN", ("@" + path).c_str(), 1), 0);
  EXPECT_TRUE(arm_from_env());
  EXPECT_EQ(consume_io("io.fsync"), FaultKind::kFsyncError);
  std::filesystem::remove(path);
}

TEST_F(FaultPlanTest, EnvUnsetArmsNothing) {
  ::unsetenv("LC_FAULT_PLAN");
  EXPECT_FALSE(arm_from_env());
  EXPECT_FALSE(any_armed());
}

TEST_F(FaultPlanTest, ChargeMemoryDeliversInjectedBadAlloc) {
  arm("memory.charge", FaultKind::kBadAlloc, /*skip_hits=*/0, /*sleep_ms=*/0,
      /*max_fires=*/1);
  RunContext ctx;
  EXPECT_THROW(ctx.charge_memory(1024, "test"), std::bad_alloc);
  EXPECT_NO_THROW(ctx.charge_memory(1024, "test"));
}

TEST_F(FaultPlanTest, InjectedOomSurfacesAsResourceExhausted) {
  // End to end through the clusterer: the memory.charge site turns
  // into the same kResourceExhausted a real failed allocation produces.
  const graph::WeightedGraph graph = graph::erdos_renyi(40, 0.2, {3});
  arm("memory.charge", FaultKind::kBadAlloc);
  core::LinkClusterer::Config config;
  RunContext ctx;
  config.ctx = &ctx;
  const StatusOr<core::ClusterResult> run =
      core::LinkClusterer(config).run(graph);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kResourceExhausted);
  disarm();
  const StatusOr<core::ClusterResult> healthy =
      core::LinkClusterer(config).run(graph);
  EXPECT_TRUE(healthy.ok()) << healthy.status().to_string();
}

}  // namespace
}  // namespace lc::fault
