//===- parmonc/support/Status.h - Error handling without exceptions ------===//
//
// Part of the PARMONC reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lightweight error propagation types. Library code does not throw; every
/// fallible operation returns a Status (or a Result<T> carrying a payload).
/// This mirrors the style of llvm::Error / llvm::Expected in spirit while
/// staying dependency-free.
///
//===----------------------------------------------------------------------===//

#ifndef PARMONC_SUPPORT_STATUS_H
#define PARMONC_SUPPORT_STATUS_H

#include <cassert>
#include <string>
#include <utility>

namespace parmonc {

/// Broad classification of a failure. Keep this list short: callers mostly
/// branch on success/failure and use the message for diagnostics.
enum class StatusCode {
  Ok = 0,
  InvalidArgument,
  NotFound,
  IoError,
  ParseError,
  FailedPrecondition,
  OutOfRange,
  Internal,
};

/// Returns a stable human-readable name for \p Code ("ok", "io-error", ...).
const char *statusCodeName(StatusCode Code);

/// A success/failure value with an optional diagnostic message. The type is
/// [[nodiscard]]: a fallible call whose Status is dropped is a correctness
/// bug (a failed save-point or merge would silently corrupt results), so
/// the compiler — and mclint rule R11 — reject it. Deliberate discards must
/// be spelled `(void)call(...)`.
class [[nodiscard]] Status {
public:
  /// Constructs a success status.
  Status() : Code(StatusCode::Ok) {}

  /// Constructs a failure status. \p Code must not be StatusCode::Ok; use the
  /// default constructor (or Status::ok()) for success.
  Status(StatusCode Code, std::string Message)
      : Code(Code), Message(std::move(Message)) {
    assert(Code != StatusCode::Ok && "use Status::ok() for success");
  }

  /// Named constructor for the success value.
  static Status ok() { return Status(); }

  bool isOk() const { return Code == StatusCode::Ok; }
  explicit operator bool() const { return isOk(); }

  StatusCode code() const { return Code; }

  /// Diagnostic message; empty for success statuses.
  const std::string &message() const { return Message; }

  /// Renders "ok" or "<code-name>: <message>" for logs and test failures.
  std::string toString() const;

private:
  StatusCode Code;
  std::string Message;
};

/// Convenience factories matching the StatusCode enumerators.
Status invalidArgument(std::string Message);
Status notFound(std::string Message);
Status ioError(std::string Message);
Status parseError(std::string Message);
Status failedPrecondition(std::string Message);
Status outOfRange(std::string Message);
Status internalError(std::string Message);

/// A value-or-error type. Holds either a T (success) or a failure Status.
/// Accessing value() on a failed Result asserts. [[nodiscard]] for the same
/// reason as Status: dropping one drops an error.
template <typename T> class [[nodiscard]] Result {
public:
  /// Success: wraps the payload.
  Result(T Value) : Value(std::move(Value)) {}

  /// Failure: wraps a non-ok status. Asserts if \p Failure is ok, because a
  /// success status carries no payload.
  Result(Status Failure) : Failure(std::move(Failure)) {
    assert(!this->Failure.isOk() && "Result from an ok Status has no value");
  }

  bool isOk() const { return Failure.isOk(); }
  explicit operator bool() const { return isOk(); }

  /// The failure status; Status::ok() when the result holds a value.
  const Status &status() const { return Failure; }

  const T &value() const & {
    assert(isOk() && "value() on a failed Result");
    return Value;
  }
  T &value() & {
    assert(isOk() && "value() on a failed Result");
    return Value;
  }
  T &&value() && {
    assert(isOk() && "value() on a failed Result");
    return std::move(Value);
  }

  /// Returns the payload, or \p Default when this result is a failure.
  T valueOr(T Default) const & { return isOk() ? Value : std::move(Default); }

private:
  T Value{};
  Status Failure;
};

} // namespace parmonc

#endif // PARMONC_SUPPORT_STATUS_H
