#include "serve/campaign_server.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/stats.hpp"
#include "par/thread_pool.hpp"

namespace ota::serve {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// `seconds` after t0, saturating at time_point::max(): casting a span past
/// the clock's range (1e12 s, +inf, NaN) to its integer ticks would be
/// undefined behaviour, which in practice lands before t0 and expires at
/// once.  The comparison rounds the remaining range to the nearest double,
/// so a span below it truncates to ticks strictly inside the range.
std::chrono::steady_clock::time_point deadline_after(
    std::chrono::steady_clock::time_point t0, double seconds) {
  using Clock = std::chrono::steady_clock;
  const std::chrono::duration<double> span(seconds);
  if (!(span < Clock::time_point::max() - t0)) return Clock::time_point::max();
  return t0 + std::chrono::duration_cast<Clock::duration>(span);
}

/// The result of a job resolved as Cancelled without running.
CampaignResult cancelled_result(std::string why, double queue_seconds,
                                double total_seconds) {
  CampaignResult res;
  res.status = CampaignStatus::Cancelled;
  res.error = std::move(why);
  res.queue_seconds = queue_seconds;
  res.total_seconds = total_seconds;
  return res;
}

/// The layer a fault site name belongs to: the segment before the first dot
/// ("spice.dc.newton" -> "spice").
std::string layer_of(const std::string& site) {
  return site.substr(0, site.find('.'));
}

}  // namespace

// ---------------------------------------------------------------------------
// ScheduledPredictor

std::string ScheduledPredictor::predict(const std::string& encoder_text,
                                        int max_tokens,
                                        const CancelSignal& cancel) const {
  // The campaign's cancel signal rides into the scheduler, so a cancelled
  // campaign's live decode retires from the dynamic batch at the next round
  // instead of decoding to completion; the ticket's wait() rethrows that as
  // ota::Cancelled.  Same tokenizer both ways as SizingModel::predict, so
  // the round-tripped text is bit-identical to the serial model's.
  const auto ticket =
      scheduler_.submit(model_.tokenizer().encode(encoder_text),
                        static_cast<int64_t>(max_tokens), cancel);
  return model_.tokenizer().decode(ticket->wait());
}

// ---------------------------------------------------------------------------
// CampaignServer::Job

void CampaignServer::Job::cancel() {
  // Set the cooperative flag first: an in-flight campaign observes it at
  // its next stage boundary and its live decode ticket at the next
  // scheduler round.
  cancel_flag->store(true, std::memory_order_release);
  // Still queued: resolve right here so waiters wake immediately.  A job a
  // worker has claimed is refused; the worker that eventually pops a job
  // resolved here finds its claim refused and only accounts it.
  const double waited = seconds_since(submitted_at);
  outcome.resolve_unclaimed(
      cancelled_result("campaign cancelled by caller", waited, waited));
}

// ---------------------------------------------------------------------------
// CampaignServer

CampaignServer::CampaignServer() : CampaignServer(Options()) {}

CampaignServer::CampaignServer(Options opt) : opt_(opt) {
  // Door policy, same as the scheduler's: options that could only ever hang
  // or corrupt accounting are refused before any thread is spawned.
  if (opt_.max_decode_batch < 1) {
    throw InvalidArgument(
        "CampaignServer: max_decode_batch must be positive, got " +
        std::to_string(opt_.max_decode_batch) +
        " (requests could never join a decode batch and would hang)");
  }
  if (opt_.max_queue_depth < 0) {
    throw InvalidArgument(
        "CampaignServer: max_queue_depth must be >= 0 (0 = unbounded), got " +
        std::to_string(opt_.max_queue_depth));
  }
  if (opt_.max_retries < 0) {
    throw InvalidArgument(
        "CampaignServer: max_retries must be >= 0 (0 = no retry), got " +
        std::to_string(opt_.max_retries));
  }
  ml::validated_precision(opt_.decode_precision, "CampaignServer");
  const int n = par::resolve_threads(opt_.workers);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

CampaignServer::~CampaignServer() { shutdown(true); }

void CampaignServer::register_topology(
    const std::string& name, circuit::Topology topology,
    const device::Technology& tech,
    std::shared_ptr<const core::SizingModel> model,
    std::shared_ptr<const core::LutSet> luts) {
  if (!model || !luts) {
    throw InvalidArgument("CampaignServer::register_topology: null model/luts");
  }
  // engine() doubles as the trained-model check (throws InvalidArgument
  // otherwise) and is what the decode scheduler batches on.
  const ml::InferenceEngine& engine = model->engine();

  // Door policy before construction: reserve the name under the lock so a
  // duplicate-name or post-shutdown registration throws without ever paying
  // the scheduler thread spawn+join — and two racing registrations of the
  // same name cannot both construct.
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stop_) {
      throw InvalidArgument(
          "CampaignServer::register_topology: server is shut down");
    }
    if (!topologies_.emplace(name, nullptr).second) {
      throw InvalidArgument("CampaignServer::register_topology: duplicate '" +
                            name + "'");
    }
  }

  auto entry = std::make_unique<TopologyEntry>();
  try {
    entry->topology = std::move(topology);
    entry->tech = tech;
    entry->model = std::move(model);
    entry->luts = std::move(luts);
    // The builder references the entry's own copies; the entry is heap-owned
    // and never removed from the map, so the references stay valid for the
    // server's lifetime.
    entry->builder =
        std::make_unique<core::SequenceBuilder>(entry->topology, entry->tech);
    ml::DecodeScheduler::Options sopt;
    sopt.max_batch = opt_.max_decode_batch;
    sopt.precision = opt_.decode_precision;
    entry->scheduler = std::make_unique<ml::DecodeScheduler>(engine, sopt);
    entry->predictor = std::make_unique<ScheduledPredictor>(
        *entry->model, *entry->scheduler);
  } catch (...) {
    // Release the reservation: the name was never visible as a valid
    // topology (submit treats the nullptr slot as unknown).
    std::lock_guard<std::mutex> lk(mu_);
    topologies_.erase(name);
    throw;
  }

  std::lock_guard<std::mutex> lk(mu_);
  topologies_.find(name)->second = std::move(entry);
}

std::shared_ptr<CampaignServer::Job> CampaignServer::submit(
    CampaignRequest request) {
  auto job = std::make_shared<Job>();
  job->request = std::move(request);
  job->submitted_at = std::chrono::steady_clock::now();
  // The job's one cancellation context: its own flag, and the earlier of
  // the caller's deadline and the submit-relative deadline_seconds.
  CancelSignal& signal = job->request.options.cancel;
  signal.flag = job->cancel_flag;
  if (job->request.deadline_seconds > 0.0) {
    signal.deadline = std::min(
        signal.deadline,
        deadline_after(job->submitted_at, job->request.deadline_seconds));
  }
  {
    std::unique_lock<std::mutex> lk(mu_);
    if (stop_) {
      throw InvalidArgument("CampaignServer::submit: server is shut down");
    }
    const auto topo_it = topologies_.find(job->request.topology);
    if (topo_it == topologies_.end() || !topo_it->second) {
      throw InvalidArgument("CampaignServer::submit: unknown topology '" +
                            job->request.topology + "'");
    }
    // Admission control: at capacity either refuse the submission outright
    // or wait for a worker to make room.
    if (opt_.max_queue_depth > 0 &&
        queue_.size() >= static_cast<size_t>(opt_.max_queue_depth)) {
      if (opt_.overflow == OverflowPolicy::Reject) {
        ++stats_.rejected;
        throw ServerOverloaded(
            "CampaignServer::submit: queue full (" +
            std::to_string(queue_.size()) + "/" +
            std::to_string(opt_.max_queue_depth) +
            " jobs) and the overflow policy is Reject");
      }
      const auto has_space = [&] {
        return stop_ ||
               queue_.size() < static_cast<size_t>(opt_.max_queue_depth);
      };
      const auto give_up =
          opt_.block_timeout_seconds > 0.0
              ? deadline_after(std::chrono::steady_clock::now(),
                               opt_.block_timeout_seconds)
              : std::chrono::steady_clock::time_point::max();
      if (give_up == std::chrono::steady_clock::time_point::max()) {
        space_cv_.wait(lk, has_space);
      } else if (!space_cv_.wait_until(lk, give_up, has_space)) {
        ++stats_.timed_out;
        throw ServerOverloaded(
            "CampaignServer::submit: queue still full after blocking " +
            std::to_string(opt_.block_timeout_seconds) +
            "s for space (Block policy timeout)");
      }
      if (stop_) {
        throw InvalidArgument("CampaignServer::submit: server is shut down");
      }
    }
    queue_.push_back(job);
    ++stats_.submitted;
    stats_.peak_queue_depth =
        std::max<uint64_t>(stats_.peak_queue_depth, queue_.size());
  }
  cv_.notify_one();
  return job;
}

void CampaignServer::worker_loop() {
  while (true) {
    std::shared_ptr<Job> job;
    TopologyEntry* entry = nullptr;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
      if (stop_ && !drain_) {
        // Drainless shutdown: answer everything unstarted, exactly once.
        while (!queue_.empty()) {
          auto cancelled = queue_.front();
          queue_.pop_front();
          ++stats_.cancelled;
          // The job's whole life was spent in queue, so the queue time IS
          // the total time.  A no-op when Job::cancel() got there first.
          const double waited = seconds_since(cancelled->submitted_at);
          cancelled->outcome.resolve(
              cancelled_result("campaign cancelled by shutdown", waited, waited));
        }
        space_cv_.notify_all();
        return;
      }
      if (queue_.empty()) return;  // stop_ && drain_: queue fully served
      job = queue_.front();
      queue_.pop_front();
      // submit() validated the name, and filled entries are never removed,
      // so the lookup cannot fail; the bare pointer stays valid outside the
      // lock.
      entry = topologies_.find(job->request.topology)->second.get();
      // The pop made room: wake one blocked Block-policy submitter.
      space_cv_.notify_all();
    }

    const double queued = seconds_since(job->submitted_at);
    STAT_SECONDS("serve.campaign.queue_wait", queued);
    // Claim the job.  If Job::cancel() resolved it while queued, only the
    // accounting is left to do.
    if (!job->outcome.claim()) {
      std::lock_guard<std::mutex> lk(mu_);
      ++stats_.cancelled;
      continue;
    }
    const int prior_retries = job->retries;

    // Deadline check before running: a job that expired waiting in queue
    // resolves without a single decode or simulation.
    if (job->request.options.cancel.expired()) {
      CampaignResult res = cancelled_result(
          "campaign deadline exceeded after " + std::to_string(queued) +
              "s in queue",
          queued, seconds_since(job->submitted_at));
      {
        std::lock_guard<std::mutex> lk(mu_);
        ++stats_.cancelled;
        ++stats_.expired;
      }
      job->outcome.resolve(std::move(res));
      continue;
    }

    CampaignResult res;
    res.queue_seconds = queued;
    try {
      STAT_REGION("serve.campaign.run");
      // Injectable worker-side failure, before the copilot even constructs:
      // the serve layer's own permanent fault.
      FAULT_SITE("serve.worker.campaign");
      // A fresh copilot per campaign: the copilot itself is cheap (the
      // expensive state — model, engine, LUTs, builder — is shared through
      // the entry), and private mutable state is what makes the result
      // independent of which worker runs it.
      core::SizingCopilot copilot(entry->topology, entry->tech, *entry->builder,
                                  *entry->predictor, *entry->luts);
      res.outcome = copilot.size(job->request.target, job->request.options);
      res.status = CampaignStatus::Served;
    } catch (const Cancelled& e) {
      res.status = CampaignStatus::Cancelled;
      res.error = e.what();
    } catch (const ConvergenceError& e) {
      // Transient failure.  Campaigns are hermetic (a fresh copilot starting
      // from nominal widths), so a re-run computes exactly what a first run
      // would — requeue at the back of the FIFO up to the retry budget.  A
      // requeued job is the same job: not re-admitted, not re-counted.
      if (prior_retries < opt_.max_retries) {
        job->retries = prior_retries + 1;
        // Back in the queue, Job::cancel() may resolve it directly again.
        job->outcome.unclaim();
        {
          std::lock_guard<std::mutex> lk(mu_);
          ++stats_.retried;
          // Deliberately past admission control: a retry is continuation of
          // an admitted job, and dropping it would break exactly-once.
          queue_.push_back(job);
          stats_.peak_queue_depth =
              std::max<uint64_t>(stats_.peak_queue_depth, queue_.size());
        }
        STAT_COUNTER("serve.campaign.retries");
        cv_.notify_one();
        continue;
      }
      res.status = CampaignStatus::Failed;
      res.error = "ConvergenceError (transient, " +
                  std::to_string(prior_retries) + "/" +
                  std::to_string(opt_.max_retries) +
                  " retries used): " + e.what();
    } catch (const fault::InjectedFault& e) {
      res.status = CampaignStatus::Failed;
      res.error = "InjectedFault (site '" + e.site() + "', layer '" +
                  layer_of(e.site()) + "'): " + e.what();
    } catch (const Error& e) {
      res.status = CampaignStatus::Failed;
      res.error = std::string("ota::Error: ") + e.what();
    } catch (const std::exception& e) {
      res.status = CampaignStatus::Failed;
      res.error = std::string("std::exception: ") + e.what();
    } catch (...) {
      // Even a non-standard exception is recorded, never swallowed silently.
      res.status = CampaignStatus::Failed;
      res.error = "campaign failed with a non-standard exception";
    }
    res.retries = prior_retries;
    res.total_seconds = seconds_since(job->submitted_at);

    {
      std::lock_guard<std::mutex> lk(mu_);
      switch (res.status) {
        case CampaignStatus::Served:
          ++stats_.served;
          if (prior_retries > 0) ++stats_.recovered;
          break;
        case CampaignStatus::Failed: ++stats_.failed; break;
        case CampaignStatus::Cancelled: ++stats_.cancelled; break;
      }
    }
    job->outcome.resolve(std::move(res));
  }
}

void CampaignServer::shutdown(bool drain) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!stop_) {
      stop_ = true;
      drain_ = drain;
    }
  }
  cv_.notify_all();
  // Blocked Block-policy submitters abort with "server is shut down"
  // instead of waiting on space that may never come.
  space_cv_.notify_all();
  std::lock_guard<std::mutex> jk(join_mu_);
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
}

CampaignServer::Stats CampaignServer::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  Stats s = stats_;
  s.queue_depth = queue_.size();
  for (const auto& [name, entry] : topologies_) {
    if (!entry) continue;  // a registration reserving the name right now
    const auto d = entry->scheduler->stats();
    s.decode.submitted += d.submitted;
    s.decode.served += d.served;
    s.decode.failed += d.failed;
    s.decode.cancelled += d.cancelled;
    s.decode.rounds += d.rounds;
    s.decode.session_steps += d.session_steps;
    s.decode.tokens_double += d.tokens_double;
    s.decode.tokens_f32 += d.tokens_f32;
    s.decode.peak_batch = std::max(s.decode.peak_batch, d.peak_batch);
  }
  return s;
}

}  // namespace ota::serve
