#include "ml/decode_scheduler.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/stats.hpp"
#include "par/thread_pool.hpp"

namespace ota::ml {

using nlp::TokenId;
using nlp::Vocabulary;

namespace {

/// Door policy: a non-positive max_batch admits requests that can never
/// join a batch and hangs every Ticket::wait() forever — refuse it at
/// construction (before any thread or pool is spawned), same as the
/// max_tokens <= 0 check in submit().
DecodeScheduler::Options validated(DecodeScheduler::Options opt) {
  if (opt.max_batch < 1) {
    throw InvalidArgument(
        "DecodeScheduler: max_batch must be positive, got " +
        std::to_string(opt.max_batch) +
        " (a batch that can never admit a request would hang every wait)");
  }
  validated_precision(opt.precision, "DecodeScheduler");
  return opt;
}

/// The Cancelled outcome when `signal`'s flag is set or its deadline has
/// passed at `now`, null otherwise.  `when` ends the message ("before
/// decoding", "mid-decode").
std::exception_ptr cancellation(const CancelSignal& signal,
                                CancelSignal::Clock::time_point now,
                                const char* when) {
  const char* why = signal.cancel_requested() ? "cancelled "
                    : signal.expired(now)     ? "deadline exceeded "
                                              : nullptr;
  if (why == nullptr) return nullptr;
  return std::make_exception_ptr(Cancelled(
      std::string("DecodeScheduler: request ").append(why).append(when)));
}

}  // namespace

/// One live sequence in the dynamic batch.  Owned by the scheduler thread;
/// pool workers touch exactly one ActiveRequest per round (caller-indexed),
/// so requests never share mutable state.  Its tokens and error reach the
/// ticket only at retirement.
struct DecodeScheduler::ActiveRequest {
  std::shared_ptr<Ticket> ticket;
  CancelSignal signal;
  std::unique_ptr<InferenceEngine::Session> session;
  std::vector<TokenId> tokens;
  std::exception_ptr error;
  TokenId prev = Vocabulary::kBos;
  int64_t steps_done = 0;
  int64_t budget = 0;  ///< min(max_tokens, cfg.max_len), as greedy_decode
  bool finished = false;
  bool cancelled = false;  ///< finished via cancellation, not tokens/error
};

DecodeScheduler::DecodeScheduler(const InferenceEngine& engine)
    : DecodeScheduler(engine, Options()) {}

DecodeScheduler::DecodeScheduler(const InferenceEngine& engine, Options opt)
    : engine_(engine), opt_(validated(opt)),
      own_pool_(opt.threads > 0 ? std::make_unique<par::ThreadPool>(opt.threads)
                                : nullptr),
      pool_(own_pool_ ? *own_pool_ : par::global_pool()) {
  thread_ = std::thread([this] { loop(); });
}

DecodeScheduler::~DecodeScheduler() { shutdown(/*drain=*/true); }

std::shared_ptr<DecodeScheduler::Ticket> DecodeScheduler::submit(
    std::vector<TokenId> src, int64_t max_tokens, CancelSignal cancel) {
  if (max_tokens <= 0) {
    throw InvalidArgument(
        "DecodeScheduler::submit: max_tokens must be positive, got " +
        std::to_string(max_tokens) +
        " (a zero token budget would silently decode nothing)");
  }
  auto ticket = std::make_shared<Ticket>();
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stop_) {
      throw InvalidArgument(
          "DecodeScheduler::submit: scheduler is shut down and no longer "
          "accepts requests");
    }
    pending_.push_back({ticket, std::move(src), max_tokens, std::move(cancel)});
    ++stats_.submitted;
  }
  cv_.notify_all();
  return ticket;
}

void DecodeScheduler::shutdown(bool drain) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!stop_) {
      stop_ = true;
      drain_ = drain;
    }
  }
  cv_.notify_all();
  // Serialize the join so concurrent shutdown()/destructor calls are safe.
  std::lock_guard<std::mutex> jl(join_mu_);
  if (thread_.joinable()) thread_.join();
}

DecodeScheduler::Stats DecodeScheduler::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

void DecodeScheduler::loop() {
  std::vector<ActiveRequest> active;
  std::vector<Request> admitted;
  for (;;) {
    try {
      if (!run_round(active, admitted)) return;
    } catch (...) {
      // Round-level containment: a failure escaping the per-ticket handlers
      // inside run_round (batch machinery, an injected round fault) fails
      // the tickets that round was carrying — never the scheduler thread.
      // Requests submitted afterwards decode normally.
      fail_round(active, admitted, std::current_exception());
    }
  }
}

void DecodeScheduler::fail_round(std::vector<ActiveRequest>& active,
                                 std::vector<Request>& admitted,
                                 const std::exception_ptr& err) {
  uint64_t failed = 0, cancelled = 0;
  // Requests admitted but not yet promoted to sessions (moved-from slots
  // are null: the admission path already resolved or promoted them).
  for (auto& r : admitted) {
    if (r.ticket && r.ticket->fail(err)) ++failed;
  }
  admitted.clear();
  for (auto& a : active) {
    if (!a.ticket) continue;
    // A session that already holds an error keeps it: the round's cancel
    // sweep marked it Cancelled, or its own step failed, before this round
    // failed.
    if (a.ticket->fail(a.error ? a.error : err)) {
      ++(a.cancelled ? cancelled : failed);
    }
  }
  active.clear();
  std::lock_guard<std::mutex> lk(mu_);
  stats_.failed += failed;
  stats_.cancelled += cancelled;
}

bool DecodeScheduler::run_round(std::vector<ActiveRequest>& active,
                                std::vector<Request>& admitted) {
  bool cancel_everything = false;
  {
    std::unique_lock<std::mutex> lk(mu_);
    // Only sleep when the batch is empty: with live sessions the loop keeps
    // stepping and just soaks up whatever new arrivals are pending.
    if (active.empty()) {
      cv_.wait(lk, [this] { return stop_ || !pending_.empty(); });
    }
    if (stop_ && !drain_) {
      // Drainless shutdown: answer every queued request right here so no
      // waiter blocks forever; in-flight sessions are answered below.
      for (const auto& r : pending_) {
        ++stats_.cancelled;
        r.ticket->fail(std::make_exception_ptr(
            Cancelled("DecodeScheduler: request cancelled by shutdown")));
      }
      pending_.clear();
      cancel_everything = true;
    } else if (stop_ && pending_.empty() && active.empty()) {
      return false;  // drained
    } else {
      // Cancellation sweep over the wait queue: a cancelled or expired
      // request resolves right here and never occupies a batch slot it
      // could not use.
      const auto now = CancelSignal::Clock::now();
      for (auto it = pending_.begin(); it != pending_.end();) {
        if (auto err = cancellation(it->signal, now, "before decoding")) {
          ++stats_.cancelled;
          it->ticket->fail(err);
          it = pending_.erase(it);
        } else {
          ++it;
        }
      }
      // Continuous admission: arrivals join the running batch up to
      // max_batch; the rest queue until sequences retire.
      while (!pending_.empty() &&
             active.size() + admitted.size() <
                 static_cast<size_t>(opt_.max_batch)) {
        admitted.push_back(std::move(pending_.front()));
        pending_.pop_front();
      }
    }
  }
  if (cancel_everything) {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& a : active) {
      ++stats_.cancelled;
      a.ticket->fail(std::make_exception_ptr(
          Cancelled("DecodeScheduler: request cancelled by shutdown")));
    }
    active.clear();
    return false;
  }

  // Session construction (the encode pass) runs outside the queue lock so
  // submitters are never blocked behind it.  A request the engine refuses
  // (empty input, over-long input) fails its ticket here; one cancelled
  // between the sweep above and now resolves without paying the encode.
  for (Request& r : admitted) {
    ActiveRequest a;
    a.ticket = std::move(r.ticket);
    a.signal = std::move(r.signal);
    if (auto err = cancellation(a.signal, CancelSignal::Clock::now(),
                                "before decoding")) {
      {
        std::lock_guard<std::mutex> lk(mu_);
        ++stats_.cancelled;
      }
      a.ticket->fail(err);
      continue;
    }
    try {
      FAULT_SITE("ml.session.encode");
      a.session = std::make_unique<InferenceEngine::Session>(engine_, r.src,
                                                             opt_.precision);
      a.budget = std::min<int64_t>(r.max_tokens, engine_.config().max_len);
      active.push_back(std::move(a));
    } catch (...) {
      std::lock_guard<std::mutex> lk(mu_);
      ++stats_.failed;
      a.ticket->fail(std::current_exception());
    }
  }
  admitted.clear();
  if (active.empty()) return true;

  // Mid-flight cancellation: a live sequence whose ticket was cancelled
  // (or whose deadline passed) retires from the dynamic batch before this
  // round steps — its slot frees for the next admission and its waiters
  // wake with Cancelled instead of paying for tokens nobody wants.
  const auto round_now = CancelSignal::Clock::now();
  size_t retired_by_cancel = 0;
  for (ActiveRequest& a : active) {
    if (auto err = cancellation(a.signal, round_now, "mid-decode")) {
      a.error = err;
      a.finished = true;
      a.cancelled = true;
      ++retired_by_cancel;
    }
  }
  const size_t batch = active.size() - retired_by_cancel;

  // Injectable round failure: fires before the step fan-out, with the
  // batch's tickets in flight, so it exercises loop()'s fail_round
  // containment rather than any per-ticket handler.
  FAULT_SITE("ml.scheduler.round");

  // One continuous-batching round: every live session advances one token,
  // fanned out across the pool.  Each worker touches only its own
  // caller-indexed requests, so the per-request token stream is exactly
  // greedy_decode's whatever the interleaving.
  STAT_REGION("ml.scheduler.round");
  STAT_COUNTER_ADD("ml.scheduler.batch_sessions", batch);
  pool_.parallel_for(active.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      ActiveRequest& a = active[i];
      if (a.finished) continue;  // cancelled above: do not step it
      try {
        FAULT_SITE("ml.session.step");
        const TokenId best = argmax_token(a.session->step(a.prev));
        ++a.steps_done;
        if (best == Vocabulary::kEos) {
          a.finished = true;
        } else {
          a.tokens.push_back(best);
          a.prev = best;
          if (a.steps_done >= a.budget) a.finished = true;
        }
      } catch (...) {
        a.error = std::current_exception();
        a.finished = true;
      }
    }
  });

  // Count the round before publishing any ticket: once a waiter's wait()
  // returns, stats() must already include that request.
  uint64_t served = 0, failed = 0, cancelled = 0;
  for (const auto& a : active) {
    if (!a.finished) continue;
    if (a.cancelled) {
      ++cancelled;
    } else {
      (a.error ? failed : served) += 1;
    }
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (batch > 0) {
      // A round is only a round if at least one session stepped; a sweep
      // that merely retired cancelled sequences must not dilute the
      // occupancy figure of merit.
      ++stats_.rounds;
      stats_.session_steps += batch;
      if (opt_.precision == Precision::kFloat32) {
        stats_.tokens_f32 += batch;
      } else {
        stats_.tokens_double += batch;
      }
      stats_.peak_batch = std::max<uint64_t>(stats_.peak_batch, batch);
    }
    stats_.served += served;
    stats_.failed += failed;
    stats_.cancelled += cancelled;
  }

  // Retire finished sequences immediately — their outcome reaches the
  // ticket here and their slots free up for the next round's admissions;
  // survivors keep their relative order.
  size_t live = 0;
  for (auto& a : active) {
    if (a.finished) {
      if (a.error) {
        a.ticket->fail(a.error);
      } else {
        a.ticket->resolve(std::move(a.tokens));
      }
    } else {
      if (live != static_cast<size_t>(&a - active.data())) {
        active[live] = std::move(a);
      }
      ++live;
    }
  }
  active.resize(live);
  return true;
}

}  // namespace ota::ml
