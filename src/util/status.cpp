#include "util/status.hpp"

namespace lc {

const char* status_code_name(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kCancelled:
      return "cancelled";
    case StatusCode::kDeadlineExceeded:
      return "deadline exceeded";
    case StatusCode::kResourceExhausted:
      return "resource exhausted";
    case StatusCode::kInvalidArgument:
      return "invalid argument";
    case StatusCode::kInternal:
      return "internal";
    case StatusCode::kUnavailable:
      return "unavailable";
  }
  return "unknown";
}

ErrorClass status_error_class(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return ErrorClass::kNone;
    case StatusCode::kCancelled:
      return ErrorClass::kCancel;
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kResourceExhausted:
      return ErrorClass::kResource;
    case StatusCode::kInvalidArgument:
      return ErrorClass::kInput;
    case StatusCode::kInternal:
    case StatusCode::kUnavailable:
      return ErrorClass::kTransient;
  }
  return ErrorClass::kTransient;
}

bool status_is_retryable(StatusCode code) {
  return status_error_class(code) == ErrorClass::kTransient;
}

const char* error_class_name(ErrorClass cls) {
  switch (cls) {
    case ErrorClass::kNone:
      return "none";
    case ErrorClass::kCancel:
      return "cancel";
    case ErrorClass::kTransient:
      return "transient";
    case ErrorClass::kResource:
      return "resource";
    case ErrorClass::kInput:
      return "input";
  }
  return "transient";
}

std::string Status::to_string() const {
  if (ok()) return "ok";
  std::string text = status_code_name(code_);
  if (!message_.empty()) {
    text += ": ";
    text += message_;
  }
  return text;
}

}  // namespace lc
