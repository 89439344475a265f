// Recoverable-error types: Status, StatusOr<T>, and StoppedError.
//
// The failure model (DESIGN.md §9) splits errors into two classes:
//   - programming errors (broken invariants) abort via LC_CHECK;
//   - input/resource/runtime conditions — cancellation, deadlines, memory
//     budgets, worker exceptions — travel as Status values so long runs can
//     unwind cleanly instead of taking the process down.
//
// Deep parallel call stacks unwind by throwing StoppedError (a Status carrier);
// LinkClusterer::run and the CLI catch it at the run boundary and convert the
// outcome into a StatusOr / process exit code. Library code below that
// boundary never catches it.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/check.hpp"

namespace lc {

enum class StatusCode : std::uint8_t {
  kOk = 0,
  kCancelled,          ///< RunContext::request_cancel()
  kDeadlineExceeded,   ///< RunContext deadline passed
  kResourceExhausted,  ///< memory budget exceeded / allocation failed
  kInvalidArgument,    ///< unusable input (not a broken invariant)
  kInternal,           ///< an unexpected exception escaped a phase
  kUnavailable,        ///< the server cannot take the request right now
};

/// Stable lowercase name of the code ("ok", "cancelled", ...).
const char* status_code_name(StatusCode code);

/// Coarse failure taxonomy over StatusCode, used by the serving layer and the
/// retry policies to decide what a caller may do with an error:
///   - kCancel:    the caller asked for the stop; nothing to retry.
///   - kTransient: environment hiccup (I/O error, busy server, unexpected
///                 exception); retrying the identical request can succeed.
///   - kResource:  the request exceeded a budget (deadline, memory); retrying
///                 unchanged would trip again. Fine mode already spends a
///                 memory budget on more passes (DESIGN.md §16), so its
///                 memory trip means the budget cannot hold even one pass.
///   - kInput:     the request itself is unusable; retrying is pointless.
enum class ErrorClass : std::uint8_t {
  kNone = 0,   ///< StatusCode::kOk
  kCancel,
  kTransient,
  kResource,
  kInput,
};

/// Maps a StatusCode onto its ErrorClass.
ErrorClass status_error_class(StatusCode code);

/// True when retrying the identical request may succeed (kTransient).
bool status_is_retryable(StatusCode code);

/// Stable lowercase name of the class ("none", "cancel", "transient", ...).
const char* error_class_name(ErrorClass cls);

class Status {
 public:
  /// Default-constructed Status is OK.
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status cancelled(std::string message) {
    return {StatusCode::kCancelled, std::move(message)};
  }
  static Status deadline_exceeded(std::string message) {
    return {StatusCode::kDeadlineExceeded, std::move(message)};
  }
  static Status resource_exhausted(std::string message) {
    return {StatusCode::kResourceExhausted, std::move(message)};
  }
  static Status invalid_argument(std::string message) {
    return {StatusCode::kInvalidArgument, std::move(message)};
  }
  static Status internal(std::string message) {
    return {StatusCode::kInternal, std::move(message)};
  }
  static Status unavailable(std::string message) {
    return {StatusCode::kUnavailable, std::move(message)};
  }

  [[nodiscard]] bool ok() const { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const { return code_; }
  [[nodiscard]] const std::string& message() const { return message_; }

  /// "cancelled: stop requested" / "ok".
  [[nodiscard]] std::string to_string() const;

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Exception carrier for a non-OK Status: thrown at cooperative check sites
/// deep inside the clustering phases, caught once at the run boundary.
class StoppedError : public std::runtime_error {
 public:
  explicit StoppedError(Status status)
      : std::runtime_error(status.to_string()), status_(std::move(status)) {}

  [[nodiscard]] const Status& status() const { return status_; }

 private:
  Status status_;
};

/// A Status or a value: the return type of the run-boundary APIs.
template <typename T>
class StatusOr {
 public:
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT(google-explicit-constructor)
    LC_CHECK_MSG(!status_.ok(), "StatusOr built from a Status must carry an error");
  }
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] bool ok() const { return value_.has_value(); }
  [[nodiscard]] const Status& status() const { return status_; }

  [[nodiscard]] T& value() & {
    LC_CHECK_MSG(ok(), "StatusOr::value() on an error status");
    return *value_;
  }
  [[nodiscard]] const T& value() const& {
    LC_CHECK_MSG(ok(), "StatusOr::value() on an error status");
    return *value_;
  }
  [[nodiscard]] T&& value() && {
    LC_CHECK_MSG(ok(), "StatusOr::value() on an error status");
    return *std::move(value_);
  }

  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }
  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }

 private:
  Status status_;  ///< OK iff value_ holds
  std::optional<T> value_;
};

}  // namespace lc
