// Continuous batching for the KV-cache inference engine.
//
// greedy_decode_batch parallelizes one caller's batch, but a server with many
// concurrent campaigns issues its decodes one request at a time from many
// threads — under that load the engine would decode batches of one and sit
// mostly idle.  DecodeScheduler is the LLM-serving-style answer: callers
// submit() decode requests from any thread and block on a Ticket; a dedicated
// scheduler thread coalesces every outstanding request into one dynamic batch
// and advances the whole batch one token per round on the engine's
// incremental Sessions.  Batching is continuous, at token granularity:
// requests join the running batch as they arrive (up to max_batch) and
// finished sequences retire immediately — no waiting for stragglers, no
// fixed batch boundaries.
//
// Determinism contract (property-tested under the DeterminismTest umbrella):
// a request's result is bit-identical to InferenceEngine::greedy_decode of
// the same (src, max_tokens) — regardless of arrival order, batch
// composition, or pool width.  This falls out of the architecture rather
// than of careful scheduling: each request decodes through its own Session
// (private KV cache, private argmax chain, the exact loop greedy_decode
// runs), and sessions never read each other's state, so WHAT is computed is
// independent of WHEN the scheduler interleaves it.
//
// Exactly-once contract: a request's tokens and error build up in its
// private batch slot and reach its Ticket (an ota::OneShot) only when the
// request retires; the OneShot's first-resolve-wins hand-off is why no
// request resolves twice, and every exit path (retirement, cancellation,
// round failure, drainless shutdown) resolves the tickets it holds.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/cancel.hpp"
#include "common/one_shot.hpp"
#include "ml/infer.hpp"

namespace ota::ml {

class DecodeScheduler {
 public:
  struct Options {
    /// Cap on concurrently-decoding sessions.  Arrivals beyond it queue and
    /// join the batch as earlier sequences retire.  Must be positive: a
    /// batch that can never admit a request would hang every Ticket::wait()
    /// forever, so the constructor throws InvalidArgument instead.
    int max_batch = 64;
    /// Intra-round fan-out: sessions step in parallel on this many workers.
    /// 0 (default) = the persistent process-wide pool; > 0 = a dedicated
    /// pool of that size owned by the scheduler.
    int threads = 0;
    /// Numeric tier every session decodes at.  kDouble (default) is the
    /// bit-identity reference; kFloat32 decodes through the engine's f32
    /// snapshot — agreement-gated, see ml/precision.hpp.  Validated at
    /// construction (an out-of-range cast is refused at the door).
    Precision precision = Precision::kDouble;
  };

  /// One-shot handle for a submitted request: wait() blocks until the
  /// request retires and returns its decoded tokens, or rethrows its error
  /// (bad input at admission, ota::Cancelled when its CancelSignal fired or
  /// the scheduler shut down drainless).  The scheduler thread is its only
  /// resolver, at retirement.
  using Ticket = OneShot<std::vector<nlp::TokenId>>;

  /// Spawns the scheduler thread.  `engine` must outlive the scheduler.
  /// Throws InvalidArgument for opt.max_batch < 1 — before any thread is
  /// spawned.  (Two overloads rather than a defaulted Options argument: a
  /// nested struct with member initializers cannot default-construct inside
  /// its own enclosing class definition.)
  explicit DecodeScheduler(const InferenceEngine& engine);
  DecodeScheduler(const InferenceEngine& engine, Options opt);

  /// shutdown(true): outstanding requests finish before the thread exits.
  ~DecodeScheduler();
  DecodeScheduler(const DecodeScheduler&) = delete;
  DecodeScheduler& operator=(const DecodeScheduler&) = delete;

  /// Enqueues one decode request; returns immediately.  Throws
  /// InvalidArgument for max_tokens <= 0 or after shutdown() — a request
  /// that could never be served is refused at the door, not queued.
  /// `cancel` is the request's cancellation context: the request resolves
  /// with ota::Cancelled as soon as the scheduler observes its flag set or
  /// its deadline passed (once per round), whether it is still queued or
  /// already decoding in the dynamic batch.
  std::shared_ptr<Ticket> submit(std::vector<nlp::TokenId> src,
                                 int64_t max_tokens, CancelSignal cancel = {});

  /// Stops accepting submissions and joins the scheduler thread.
  /// drain=true serves every outstanding request first; drain=false answers
  /// every unfinished request with common::Cancelled.  Either way each
  /// request resolves exactly once: none lost, none double-served.
  /// Idempotent; the first call's drain mode wins.
  void shutdown(bool drain = true);

  /// Monotone counters, readable at any time (consistent snapshot).
  struct Stats {
    uint64_t submitted = 0;
    uint64_t served = 0;        ///< tickets resolved with tokens
    uint64_t failed = 0;        ///< tickets resolved with an error
    uint64_t cancelled = 0;     ///< tickets resolved with Cancelled
    uint64_t rounds = 0;        ///< scheduler rounds that stepped >= 1 session
    uint64_t session_steps = 0; ///< total single-session token steps
    uint64_t peak_batch = 0;    ///< widest dynamic batch observed
    /// Per-tier split of session_steps (tokens_double + tokens_f32 ==
    /// session_steps), so serving dashboards can see which tier paid for
    /// the traffic.
    uint64_t tokens_double = 0;
    uint64_t tokens_f32 = 0;
    /// Mean sessions advanced per round — the coalescing figure of merit:
    /// 1.0 means the engine ran serially, > 1 means requests genuinely
    /// shared rounds.
    double mean_batch_occupancy() const {
      return rounds > 0
                 ? static_cast<double>(session_steps) / static_cast<double>(rounds)
                 : 0.0;
    }
  };
  Stats stats() const;

 private:
  /// A queued request: its inputs and the ticket it resolves.
  struct Request {
    std::shared_ptr<Ticket> ticket;
    std::vector<nlp::TokenId> src;
    int64_t max_tokens = 0;
    CancelSignal signal;
  };
  struct ActiveRequest;
  void loop();
  /// One scheduler round: sleep/admit/encode/step/retire.  Returns false
  /// when the scheduler should exit (drained, or drainless shutdown).
  /// Failures it does not contain itself (per-session errors resolve only
  /// their own ticket inside) are contained by loop() via fail_round.
  bool run_round(std::vector<ActiveRequest>& active,
                 std::vector<Request>& admitted);
  /// Round-level failure containment: resolves every unresolved ticket the
  /// failed round was carrying as Failed with `err` (cancel-marked ones as
  /// Cancelled) and clears the batch, so one poisoned round can never take
  /// down the scheduler thread — later submissions decode normally.
  void fail_round(std::vector<ActiveRequest>& active,
                  std::vector<Request>& admitted,
                  const std::exception_ptr& err);

  const InferenceEngine& engine_;
  Options opt_;
  std::unique_ptr<par::ThreadPool> own_pool_;  ///< only when opt_.threads > 0
  par::ThreadPool& pool_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Request> pending_;
  bool stop_ = false;
  bool drain_ = true;
  Stats stats_;

  std::mutex join_mu_;  ///< serializes shutdown()'s join
  std::thread thread_;
};

}  // namespace ota::ml
