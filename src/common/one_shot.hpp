// One-shot completion: the hand-off between whoever resolves a request and
// whoever waits on it.  The decode scheduler's tickets and the campaign
// server's jobs both complete through it.
#pragma once

#include <condition_variable>
#include <exception>
#include <mutex>
#include <utility>

#include "common/error.hpp"
#include "common/fault.hpp"

namespace ota {

/// Resolves exactly once, with a value or an error; any number of threads
/// may wait().  The first resolve()/fail() wins and every later one returns
/// false and changes nothing, so racing resolvers (a cancel against a
/// completion, a shutdown against a worker) need no coordination of their
/// own — the one mutex here is the exactly-once argument.
///
/// claim() lets an owner reserve the right to resolve: while claimed,
/// resolve_unclaimed() refuses, so a third party (e.g. Job::cancel) may
/// answer a request nobody has started, never one somebody is running.
template <typename T>
class OneShot {
 public:
  /// Blocks until resolved and returns the value, or rethrows the error.
  /// Idempotent: repeated calls return (or rethrow) the same outcome.
  const T& wait() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return finished_; });
    if (error_) {
      // Rethrow a copy constructed on THIS thread, not the stored exception
      // object itself.  rethrow_exception would hand waiters a reference to
      // the resolving thread's object, whose lifetime is then governed by
      // the libstdc++ exception refcount — synchronization TSan cannot
      // observe (libstdc++ is uninstrumented), so a handler far up the stack
      // would appear to race the resolver's release of its reference.  The
      // copy happens while this thread still holds the OneShot alive, so
      // every access is ordered through the instrumented shared_ptr
      // refcount.
      try {
        std::rethrow_exception(error_);
      } catch (const Cancelled& e) {
        throw Cancelled(e.what());
      } catch (const InvalidArgument& e) {
        throw InvalidArgument(e.what());
      } catch (const fault::InjectedFault& e) {
        // Most-derived subtypes first, so the copy preserves the dynamic
        // type: the campaign server classifies a ticket's failure (transient
        // ConvergenceError => retry; InjectedFault carries its site) from
        // exactly what this rethrows.
        throw fault::InjectedFault(e.site(), e.what());
      } catch (const ConvergenceError& e) {
        throw ConvergenceError(e.what());
      } catch (const Error& e) {
        throw Error(e.what());
      }
      // Non-ota exceptions (none today) propagate from the rethrow as-is.
    }
    return value_;
  }

  /// True once the outcome (value or error) is published.
  bool done() const {
    std::lock_guard<std::mutex> lk(mu_);
    return finished_;
  }

  /// Publishes `value`; false (and no change) when already resolved.
  bool resolve(T value) { return settle(&value, nullptr, false); }
  /// Publishes `error`; false (and no change) when already resolved.
  bool fail(std::exception_ptr error) {
    return settle(nullptr, std::move(error), false);
  }
  /// As resolve(), but also refused while claimed.
  bool resolve_unclaimed(T value) { return settle(&value, nullptr, true); }

  /// Reserves the right to resolve; false when already resolved.
  bool claim() {
    std::lock_guard<std::mutex> lk(mu_);
    if (finished_) return false;
    claimed_ = true;
    return true;
  }
  /// Releases a claim, so resolve_unclaimed() may succeed again.
  void unclaim() {
    std::lock_guard<std::mutex> lk(mu_);
    claimed_ = false;
  }

 private:
  bool settle(T* value, std::exception_ptr error, bool only_unclaimed) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (finished_ || (only_unclaimed && claimed_)) return false;
      if (value != nullptr) value_ = std::move(*value);
      error_ = std::move(error);
      finished_ = true;
    }
    cv_.notify_all();
    return true;
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool finished_ = false;
  bool claimed_ = false;
  T value_{};
  std::exception_ptr error_;
};

}  // namespace ota
