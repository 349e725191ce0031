// Exception-free error model for the serving query path.
//
// The serving front doors (serve::InferenceServer, net::NetServer)
// promise that a query can never throw at a client: overload, deadline
// misses, unknown model names and shutdown races are ordinary answers, not
// stack unwinding. Status carries one of a small closed set of codes plus a
// static message; StatusOr<T> is "a T or the Status explaining why not".
//
// Two properties matter for the hot path:
//
//   Never allocates. Status is two words (code + const char* to a string
//   literal) and trivially copyable, so returning one from the
//   zero-allocation cache-hit path costs nothing. Messages must therefore
//   be string literals (or otherwise outlive every holder) — there is
//   deliberately no std::string constructor.
//
//   Never throws. value() on a non-ok StatusOr is a programming error
//   caught by assert, mirroring the library's shape checks, not an
//   exception.
#pragma once

#include <cassert>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace irgnn::support {

// The numeric values are the wire protocol: net/codec.h transmits a
// Response's code as this exact byte (wire format version 1), so a client
// built from one revision must decode a server built from another. New codes
// append at the end with the next value; existing values NEVER change or
// reorder. The static_asserts below pin every assignment so an accidental
// insertion fails the build instead of silently renumbering the wire enum.
enum class StatusCode : std::uint8_t {
  kOk = 0,
  kOverloaded = 1,        // admission queue or connection write buffer full
  kDeadlineExceeded = 2,  // request out-waited its deadline_us in the queue
  kModelNotFound = 3,     // no model is served under the requested name
  kShuttingDown = 4,      // submitted after shutdown() began
  kInternal = 5,          // the answering forward failed (e.g. bad_alloc)
  kUnavailable = 6,       // peer unreachable: connect/send/recv failed
  kInvalidArgument = 7,  // malformed request (e.g. empty graph), never admitted
};

inline constexpr std::uint8_t kNumStatusCodes = 8;

static_assert(static_cast<std::uint8_t>(StatusCode::kOk) == 0 &&
                  static_cast<std::uint8_t>(StatusCode::kOverloaded) == 1 &&
                  static_cast<std::uint8_t>(StatusCode::kDeadlineExceeded) ==
                      2 &&
                  static_cast<std::uint8_t>(StatusCode::kModelNotFound) == 3 &&
                  static_cast<std::uint8_t>(StatusCode::kShuttingDown) == 4 &&
                  static_cast<std::uint8_t>(StatusCode::kInternal) == 5 &&
                  static_cast<std::uint8_t>(StatusCode::kUnavailable) == 6 &&
                  static_cast<std::uint8_t>(StatusCode::kInvalidArgument) == 7,
              "StatusCode values are wire format v1 (net/codec.h): append new "
              "codes, never renumber existing ones");

inline const char* status_code_name(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "Ok";
    case StatusCode::kOverloaded: return "Overloaded";
    case StatusCode::kDeadlineExceeded: return "DeadlineExceeded";
    case StatusCode::kModelNotFound: return "ModelNotFound";
    case StatusCode::kShuttingDown: return "ShuttingDown";
    case StatusCode::kInternal: return "Internal";
    case StatusCode::kUnavailable: return "Unavailable";
    case StatusCode::kInvalidArgument: return "InvalidArgument";
  }
  return "Unknown";
}

class Status {
 public:
  constexpr Status() = default;  // Ok

  constexpr bool ok() const { return code_ == StatusCode::kOk; }
  constexpr StatusCode code() const { return code_; }
  constexpr const char* message() const { return message_; }
  const char* code_name() const { return status_code_name(code_); }

  // Named constructors, one per code.
  static constexpr Status Ok() { return Status(); }
  static constexpr Status Overloaded(
      const char* message = "admission queue full") {
    return Status(StatusCode::kOverloaded, message);
  }
  static constexpr Status DeadlineExceeded(
      const char* message = "deadline expired before the query was served") {
    return Status(StatusCode::kDeadlineExceeded, message);
  }
  static constexpr Status ModelNotFound(
      const char* message = "no model published under the requested name") {
    return Status(StatusCode::kModelNotFound, message);
  }
  static constexpr Status ShuttingDown(
      const char* message = "server is shutting down") {
    return Status(StatusCode::kShuttingDown, message);
  }
  static constexpr Status Internal(const char* message = "internal error") {
    return Status(StatusCode::kInternal, message);
  }
  static constexpr Status Unavailable(
      const char* message = "connection unavailable") {
    return Status(StatusCode::kUnavailable, message);
  }
  static constexpr Status InvalidArgument(
      const char* message = "malformed request") {
    return Status(StatusCode::kInvalidArgument, message);
  }

  friend constexpr bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;  // codes define identity; messages are detail
  }
  friend constexpr bool operator!=(const Status& a, const Status& b) {
    return !(a == b);
  }

 private:
  constexpr Status(StatusCode code, const char* message)
      : code_(code), message_(message) {}

  StatusCode code_ = StatusCode::kOk;
  const char* message_ = "";  // static-duration string, never owned
};

/// A value of type T, or the Status explaining its absence. Move-only (the
/// serve layer stores move-only Futures in it); the value is engaged exactly
/// when status().ok().
template <typename T>
class StatusOr {
 public:
  /// Error state. `status` must not be Ok — an Ok StatusOr must carry a T.
  StatusOr(Status status) : status_(status) {  // NOLINT: implicit by design
    assert(!status.ok() && "StatusOr(Status) requires an error status");
    if (status_.ok()) status_ = Status::Internal("Ok status without a value");
  }

  StatusOr(T value) : status_(Status::Ok()) {  // NOLINT: implicit by design
    ::new (&storage_) T(std::move(value));
  }

  StatusOr(StatusOr&& other) noexcept(
      std::is_nothrow_move_constructible_v<T>)
      : status_(other.status_) {
    if (status_.ok()) ::new (&storage_) T(std::move(other.ref()));
  }

  StatusOr& operator=(StatusOr&& other) noexcept(
      std::is_nothrow_move_constructible_v<T>) {
    if (this != &other) {
      destroy();
      status_ = other.status_;
      if (status_.ok()) ::new (&storage_) T(std::move(other.ref()));
    }
    return *this;
  }

  StatusOr(const StatusOr&) = delete;
  StatusOr& operator=(const StatusOr&) = delete;

  ~StatusOr() { destroy(); }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  T& value() & {
    assert(ok() && "value() on a non-ok StatusOr");
    return ref();
  }
  const T& value() const& {
    assert(ok() && "value() on a non-ok StatusOr");
    return ref();
  }
  T&& value() && {
    assert(ok() && "value() on a non-ok StatusOr");
    return std::move(ref());
  }

  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }
  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T&& operator*() && { return std::move(*this).value(); }

 private:
  T& ref() { return *std::launder(reinterpret_cast<T*>(&storage_)); }
  const T& ref() const {
    return *std::launder(reinterpret_cast<const T*>(&storage_));
  }
  void destroy() {
    if (status_.ok()) ref().~T();
  }

  Status status_;
  std::aligned_storage_t<sizeof(T), alignof(T)> storage_;
};

}  // namespace irgnn::support
