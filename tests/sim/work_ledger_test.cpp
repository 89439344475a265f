#include "sim/work_ledger.hpp"

#include <gtest/gtest.h>

namespace lc::sim {
namespace {

TEST(WorkLedger, TotalAndCriticalPath) {
  WorkLedger ledger;
  ledger.begin_phase("p");
  ledger.begin_round(3);
  ledger.add_work(0, 10);
  ledger.add_work(1, 30);
  ledger.add_work(2, 20);
  ledger.begin_round(2);
  ledger.add_work(0, 5);
  ledger.add_work(1, 5);
  EXPECT_EQ(ledger.total_work(), 70u);
  EXPECT_EQ(ledger.critical_path(), 35u);  // max 30 + max 5
}

TEST(WorkLedger, BarrierCostPerRound) {
  WorkLedger ledger;
  ledger.begin_phase("p");
  ledger.begin_round(2);
  ledger.add_work(0, 10);
  ledger.begin_round(2);
  ledger.add_work(1, 10);
  EXPECT_EQ(ledger.critical_path(0), 20u);
  EXPECT_EQ(ledger.critical_path(5), 30u);
}

TEST(WorkLedger, SerialSectionsAreWidthOneRounds) {
  WorkLedger ledger;
  ledger.add_serial(100);
  ledger.add_serial(50);
  EXPECT_EQ(ledger.total_work(), 150u);
  EXPECT_EQ(ledger.critical_path(), 150u);
}

TEST(WorkLedger, SpeedupAgainstSerialBaseline) {
  WorkLedger ledger;
  ledger.begin_phase("parallel");
  ledger.begin_round(4);
  for (std::size_t t = 0; t < 4; ++t) ledger.add_work(t, 25);
  // Perfect 4-way split of 100 units: speedup 4 against a 100-unit serial run.
  EXPECT_DOUBLE_EQ(ledger.speedup_vs(100), 4.0);
  // Imbalance reduces it.
  ledger.begin_round(4);
  ledger.add_work(0, 40);
  EXPECT_DOUBLE_EQ(ledger.speedup_vs(140), 140.0 / 65.0);
}

TEST(WorkLedger, SpeedupWithZeroPathIsOne) {
  WorkLedger ledger;
  EXPECT_DOUBLE_EQ(ledger.speedup_vs(1000), 1.0);
}

TEST(WorkLedger, ClearResets) {
  WorkLedger ledger;
  ledger.add_serial(10);
  ledger.clear();
  EXPECT_EQ(ledger.total_work(), 0u);
  EXPECT_TRUE(ledger.phases().empty());
}

TEST(WorkLedger, MultiplePhasesAccumulate) {
  WorkLedger ledger;
  ledger.begin_phase("a");
  ledger.begin_round(2);
  ledger.add_work(0, 7);
  ledger.begin_phase("b");
  ledger.begin_round(1);
  ledger.add_work(0, 3);
  ASSERT_EQ(ledger.phases().size(), 2u);
  EXPECT_EQ(ledger.phases()[0].name, "a");
  EXPECT_EQ(ledger.total_work(), 10u);
}

TEST(WorkLedger, PhasesWithPrefixKeepOnlyThoseLayers) {
  WorkLedger ledger;
  ledger.begin_phase("init.a");
  ledger.begin_round(2);
  ledger.add_work(0, 7);
  ledger.add_work(1, 5);
  ledger.begin_phase("sweep.b");
  ledger.add_serial(3);
  ledger.begin_phase("init.c");
  ledger.add_serial(4);
  const WorkLedger init = ledger.phases_with_prefix("init.");
  ASSERT_EQ(init.phases().size(), 2u);
  EXPECT_EQ(init.phases()[1].name, "init.c");
  EXPECT_EQ(init.total_work(), 16u);
  EXPECT_EQ(init.critical_path(), 11u);
  EXPECT_EQ(ledger.phases_with_prefix("sweep.").total_work(), 3u);
  EXPECT_TRUE(ledger.phases_with_prefix("none").phases().empty());
}

TEST(WorkLedgerDeathTest, RoundBeforePhase) {
  WorkLedger ledger;
  EXPECT_DEATH(ledger.begin_round(2), "begin_phase");
}

TEST(WorkLedgerDeathTest, WorkBeforeRound) {
  WorkLedger ledger;
  ledger.begin_phase("p");
  EXPECT_DEATH(ledger.add_work(0, 1), "begin_round");
}

TEST(WorkLedgerDeathTest, SlotOutOfRange) {
  WorkLedger ledger;
  ledger.begin_phase("p");
  ledger.begin_round(2);
  EXPECT_DEATH(ledger.add_work(5, 1), "slot out of range");
}

}  // namespace
}  // namespace lc::sim
