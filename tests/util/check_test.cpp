#include "util/check.hpp"

#include <gtest/gtest.h>

namespace lc {
namespace {

TEST(CheckDeathTest, FailingCheckAbortsWithLocation) {
  EXPECT_DEATH(LC_CHECK(1 == 2), "LC_CHECK failed");
  EXPECT_DEATH(LC_CHECK(false), "false");
}

TEST(CheckDeathTest, MessageIsIncluded) {
  EXPECT_DEATH(LC_CHECK_MSG(false, "the invariant text"), "the invariant text");
}

TEST(CheckDeathTest, LocationNamesThisFile) {
  EXPECT_DEATH(LC_CHECK(2 + 2 == 5), "check_test.cpp");
}

TEST(CheckDeathTest, ExpressionTextIsStringized) {
  const int edges = 3;
  EXPECT_DEATH(LC_CHECK(edges > 10), "edges > 10");
}

#ifndef NDEBUG
TEST(CheckDeathTest, DcheckAbortsInDebugBuilds) {
  EXPECT_DEATH(LC_DCHECK(false), "LC_CHECK failed");
}
#endif

TEST(Check, PassingChecksAreSilent) {
  LC_CHECK(1 + 1 == 2);
  LC_CHECK_MSG(true, "never printed");
  LC_DCHECK(true);
}

TEST(Check, SideEffectsEvaluateExactlyOnceInCheck) {
  int calls = 0;
  auto bump = [&calls] {
    ++calls;
    return true;
  };
  LC_CHECK(bump());
  EXPECT_EQ(calls, 1);
}

#ifdef NDEBUG
TEST(Check, DcheckCompiledOutInRelease) {
  int calls = 0;
  // Unused by design: the release LC_DCHECK discards its expression.
  [[maybe_unused]] auto bump = [&calls] {
    ++calls;
    return true;
  };
  LC_DCHECK(bump());
  EXPECT_EQ(calls, 0);  // release builds must not evaluate the expression
}
#endif

}  // namespace
}  // namespace lc
