#pragma once

/// @file cancel.h
/// Cooperative cancellation with wall-clock deadlines.
///
/// A CancelToken is a cheap, thread-safe stop signal: any thread may call
/// cancel() (or arm a deadline), and long-running numerical loops poll
/// stopped() / throw_if_stopped() at their iteration boundaries — the
/// Newton inner loop and the transient step loop both do (see
/// spice::SolverOptions::cancel).  Tokens chain: a child token constructed
/// with a parent stops whenever the parent stops, which is how carbon_simd
/// nests each request's deadline inside the server-wide drain token.
///
/// Polling cost is one relaxed atomic load plus (when a deadline is armed)
/// one steady_clock read — negligible against even a single sparse-LU
/// refactor, so checking every Newton iteration is free in practice.

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>

namespace carbon::phys {

/// Thrown by throw_if_stopped() when a token fired.  Deliberately NOT a
/// ConvergenceError: cancellation is not a solver failure, and the
/// convergence escalation ladder must never swallow it as "this homotopy
/// rung did not converge".
class CancelledError : public std::runtime_error {
 public:
  CancelledError(bool deadline_expired, const std::string& where);

  /// True when a deadline elapsed; false for an explicit cancel().
  bool deadline_expired() const { return deadline_expired_; }
  /// The loop that observed the stop ("newton", "transient", ...).
  const std::string& where() const { return where_; }

 private:
  bool deadline_expired_;
  std::string where_;
};

class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  CancelToken() = default;
  /// A child token: stops when either itself or @p parent stops.  The
  /// parent must outlive the child.
  explicit CancelToken(const CancelToken* parent) : parent_(parent) {}

  // The atomic flag is identity, not value; tokens are shared by pointer.
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Request a stop.  Safe from any thread, repeatable.
  void cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// Arm (or re-arm) a wall-clock deadline @p seconds from now.
  /// seconds <= 0 fires immediately.
  void set_deadline_after(double seconds);

  /// True when cancel() was called on this token or an ancestor.
  bool cancelled() const;

  /// True when an armed deadline (here or on an ancestor) has elapsed.
  bool expired() const;

  /// cancelled() || expired() — what polling loops check.
  bool stopped() const { return cancelled() || expired(); }

  /// Seconds until the nearest armed deadline; +inf when none.
  double seconds_remaining() const;

  /// Throw CancelledError when stopped; @p where names the polling loop.
  void throw_if_stopped(const char* where) const;

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<bool> has_deadline_{false};
  Clock::time_point deadline_{};
  const CancelToken* parent_ = nullptr;
};

}  // namespace carbon::phys
