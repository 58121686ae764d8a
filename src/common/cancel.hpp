// Cooperative cancellation context, shared by every layer that can stop a
// request early: the campaign server's jobs, the copilot's stage boundaries,
// the Stage-II prediction clients and the decode scheduler's requests.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <string>

#include "common/error.hpp"

namespace ota {

/// Cooperative cancellation context for one campaign or request: an
/// optional shared flag (e.g. set by serve::CampaignServer::Job::cancel)
/// and an optional absolute deadline.  Value-copied freely; default state
/// means "never cancelled".
struct CancelSignal {
  using Clock = std::chrono::steady_clock;

  std::shared_ptr<const std::atomic<bool>> flag{};
  Clock::time_point deadline = Clock::time_point::max();

  bool cancel_requested() const {
    return flag && flag->load(std::memory_order_acquire);
  }
  /// Deadline check against a caller-supplied "now", so one clock read can
  /// cover many signals (a whole scheduler round).
  bool expired(Clock::time_point now) const {
    return deadline != Clock::time_point::max() && now >= deadline;
  }
  bool expired() const { return expired(Clock::now()); }
  /// Stage-boundary checkpoint: throws ota::Cancelled when the flag is set
  /// or the deadline has passed.  `where` names the boundary for the error.
  void check(const char* where) const {
    if (cancel_requested()) {
      throw Cancelled(std::string(where) + ": campaign cancelled by caller");
    }
    if (expired()) {
      throw Cancelled(std::string(where) + ": campaign deadline exceeded");
    }
  }
};

}  // namespace ota
