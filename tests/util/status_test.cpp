// Status / StatusOr / StoppedError semantics (util/status.hpp).
#include "util/status.hpp"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace lc {
namespace {

TEST(Status, DefaultIsOk) {
  const Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.to_string(), "ok");
}

TEST(Status, FactoriesCarryCodeAndMessage) {
  const Status cancelled = Status::cancelled("user hit ctrl-c");
  EXPECT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.code(), StatusCode::kCancelled);
  EXPECT_EQ(cancelled.message(), "user hit ctrl-c");
  EXPECT_EQ(cancelled.to_string(), "cancelled: user hit ctrl-c");

  EXPECT_EQ(Status::deadline_exceeded("x").code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Status::resource_exhausted("x").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::invalid_argument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::internal("x").code(), StatusCode::kInternal);
}

TEST(Status, CodeNames) {
  EXPECT_STREQ(status_code_name(StatusCode::kOk), "ok");
  EXPECT_STREQ(status_code_name(StatusCode::kCancelled), "cancelled");
  EXPECT_STREQ(status_code_name(StatusCode::kDeadlineExceeded), "deadline exceeded");
  EXPECT_STREQ(status_code_name(StatusCode::kResourceExhausted), "resource exhausted");
  EXPECT_STREQ(status_code_name(StatusCode::kInvalidArgument), "invalid argument");
  EXPECT_STREQ(status_code_name(StatusCode::kInternal), "internal");
}

TEST(Status, EmptyMessageOmitsColon) {
  EXPECT_EQ(Status::internal("").to_string(), "internal");
}

TEST(StoppedError, CarriesStatusAndWhat) {
  const StoppedError error(Status::deadline_exceeded("deadline passed"));
  EXPECT_EQ(error.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_STREQ(error.what(), "deadline exceeded: deadline passed");
}

TEST(StatusOr, HoldsValue) {
  StatusOr<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.status().ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
}

TEST(StatusOr, HoldsError) {
  const StatusOr<int> result = Status::cancelled("stop");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(result.status().message(), "stop");
}

TEST(StatusOr, MoveOnlyValueMovesOut) {
  StatusOr<std::vector<int>> result = std::vector<int>{1, 2, 3};
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 3u);
  const std::vector<int> taken = std::move(result).value();
  EXPECT_EQ(taken, (std::vector<int>{1, 2, 3}));
}

TEST(Status, UnavailableFactory) {
  const Status busy = Status::unavailable("a run is already in flight");
  EXPECT_EQ(busy.code(), StatusCode::kUnavailable);
  EXPECT_EQ(busy.to_string(), "unavailable: a run is already in flight");
  EXPECT_STREQ(status_code_name(StatusCode::kUnavailable), "unavailable");
}

TEST(ErrorClass, TaxonomyPartitionsTheCodes) {
  EXPECT_EQ(status_error_class(StatusCode::kOk), ErrorClass::kNone);
  EXPECT_EQ(status_error_class(StatusCode::kCancelled), ErrorClass::kCancel);
  EXPECT_EQ(status_error_class(StatusCode::kDeadlineExceeded), ErrorClass::kResource);
  EXPECT_EQ(status_error_class(StatusCode::kResourceExhausted), ErrorClass::kResource);
  EXPECT_EQ(status_error_class(StatusCode::kInvalidArgument), ErrorClass::kInput);
  EXPECT_EQ(status_error_class(StatusCode::kInternal), ErrorClass::kTransient);
  EXPECT_EQ(status_error_class(StatusCode::kUnavailable), ErrorClass::kTransient);
}

TEST(ErrorClass, RetryableIsExactlyTransient) {
  // Retry chases flaky effects (I/O, busy server); resubmitting a cancelled
  // or over-budget request unchanged cannot succeed.
  EXPECT_TRUE(status_is_retryable(StatusCode::kInternal));
  EXPECT_TRUE(status_is_retryable(StatusCode::kUnavailable));
  EXPECT_FALSE(status_is_retryable(StatusCode::kOk));
  EXPECT_FALSE(status_is_retryable(StatusCode::kCancelled));
  EXPECT_FALSE(status_is_retryable(StatusCode::kDeadlineExceeded));
  EXPECT_FALSE(status_is_retryable(StatusCode::kResourceExhausted));
  EXPECT_FALSE(status_is_retryable(StatusCode::kInvalidArgument));
}

TEST(ErrorClass, Names) {
  EXPECT_STREQ(error_class_name(ErrorClass::kNone), "none");
  EXPECT_STREQ(error_class_name(ErrorClass::kCancel), "cancel");
  EXPECT_STREQ(error_class_name(ErrorClass::kTransient), "transient");
  EXPECT_STREQ(error_class_name(ErrorClass::kResource), "resource");
  EXPECT_STREQ(error_class_name(ErrorClass::kInput), "input");
}

}  // namespace
}  // namespace lc
