// Thread-pool unit tests: task completion, exception propagation out of
// parallel_for, nested-submission safety, and the zero-item / single-thread
// edge cases the par layer's determinism contract leans on.  Also the
// OneShot completion primitive the scheduler's tickets and the server's
// jobs resolve through.
#include "par/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <future>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <typeinfo>
#include <vector>

#include "common/one_shot.hpp"

namespace ota::par {
namespace {

TEST(ParTest, SubmitRunsEveryTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&count] { ++count; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(count.load(), 100);
}

TEST(ParTest, SubmitFutureCarriesException) {
  ThreadPool pool(2);
  std::future<void> f =
      pool.submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ParTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(8);
  const size_t n = 10007;
  std::vector<int> hits(n, 0);  // chunks are disjoint: plain ints suffice
  pool.parallel_for(n, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) ++hits[i];
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
            static_cast<int>(n));
  EXPECT_EQ(*std::min_element(hits.begin(), hits.end()), 1);
  EXPECT_EQ(*std::max_element(hits.begin(), hits.end()), 1);
}

TEST(ParTest, ParallelForZeroItemsIsANoop) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(0, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParTest, InlinePoolRunsOnCallingThread) {
  // threads <= 1 spawns no workers; everything runs inline.
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 0);
  std::thread::id seen;
  pool.parallel_for(64, [&](size_t begin, size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 64u);
    seen = std::this_thread::get_id();
  });
  EXPECT_EQ(seen, std::this_thread::get_id());
  pool.submit([&seen] { seen = std::this_thread::get_id(); }).get();
  EXPECT_EQ(seen, std::this_thread::get_id());
}

TEST(ParTest, ParallelForPropagatesChunkException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [](size_t begin, size_t end) {
                          for (size_t i = begin; i < end; ++i) {
                            if (i == 57) throw std::runtime_error("chunk 57");
                          }
                        }),
      std::runtime_error);

  // The pool must stay fully usable after a failed parallel_for.
  std::atomic<int> count{0};
  pool.parallel_for(100, [&](size_t begin, size_t end) {
    count += static_cast<int>(end - begin);
  });
  EXPECT_EQ(count.load(), 100);
}

TEST(ParTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> inner_total{0};
  pool.parallel_for(8, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      // A nested call from a worker degrades to a single inline chunk
      // instead of deadlocking on the shared queue.
      pool.parallel_for(10, [&](size_t b, size_t e) {
        inner_total += static_cast<int>(e - b);
      });
    }
  });
  EXPECT_EQ(inner_total.load(), 80);
}

TEST(ParTest, ParallelMapPreservesOrder) {
  ThreadPool pool(4);
  std::vector<int> in(1000);
  std::iota(in.begin(), in.end(), 0);
  const std::vector<int> out =
      pool.parallel_map<int>(in, [](int v, size_t) { return 3 * v + 1; });
  ASSERT_EQ(out.size(), in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    ASSERT_EQ(out[i], 3 * static_cast<int>(i) + 1);
  }
}

TEST(ParTest, EnvThreadsParsesOtaThreads) {
  const char* saved = std::getenv("OTA_THREADS");
  const std::string restore = saved ? saved : "";

  ::setenv("OTA_THREADS", "6", 1);
  EXPECT_EQ(env_threads(), 6);
  EXPECT_EQ(resolve_threads(), 6);
  EXPECT_EQ(resolve_threads(3), 3);  // explicit request wins over env

  ::setenv("OTA_THREADS", "not-a-number", 1);
  EXPECT_EQ(env_threads(), 0);
  ::setenv("OTA_THREADS", "0", 1);
  EXPECT_EQ(env_threads(), 0);

  ::unsetenv("OTA_THREADS");
  EXPECT_EQ(env_threads(), 0);
  EXPECT_GE(resolve_threads(), 1);  // falls back to hardware concurrency

  if (saved) ::setenv("OTA_THREADS", restore.c_str(), 1);
}

TEST(ParTest, HardwareThreadsIsPositive) {
  EXPECT_GE(hardware_threads(), 1);
}

// ---------------------------------------------------------------------------
// OneShot

TEST(ParTest, OneShotSecondResolveOrFailReturnsFalseAndChangesNothing) {
  OneShot<int> resolved;
  EXPECT_FALSE(resolved.done());
  EXPECT_TRUE(resolved.resolve(7));
  EXPECT_TRUE(resolved.done());
  EXPECT_FALSE(resolved.resolve(8));
  EXPECT_FALSE(resolved.fail(std::make_exception_ptr(Error("late"))));
  EXPECT_FALSE(resolved.resolve_unclaimed(9));
  EXPECT_FALSE(resolved.claim());
  EXPECT_EQ(resolved.wait(), 7);
  EXPECT_EQ(resolved.wait(), 7);  // idempotent

  OneShot<int> failed;
  EXPECT_TRUE(failed.fail(std::make_exception_ptr(InvalidArgument("first"))));
  EXPECT_FALSE(failed.resolve(1));
  EXPECT_FALSE(failed.fail(std::make_exception_ptr(Error("second"))));
  for (int i = 0; i < 2; ++i) {
    try {
      (void)failed.wait();
      ADD_FAILURE() << "wait() returned a value after fail()";
    } catch (const InvalidArgument& e) {
      EXPECT_STREQ(e.what(), "first");
    }
  }
}

TEST(ParTest, OneShotWaiterOnAnotherThreadGetsTheValue) {
  OneShot<std::vector<int>> shot;
  std::vector<std::vector<int>> got(4);
  std::vector<std::thread> waiters;
  for (auto& g : got) {
    waiters.emplace_back([&shot, &g] { g = shot.wait(); });
  }
  EXPECT_TRUE(shot.resolve({1, 2, 3}));
  for (auto& w : waiters) w.join();
  for (const auto& g : got) EXPECT_EQ(g, (std::vector<int>{1, 2, 3}));
}

TEST(ParTest, OneShotRacingResolversHaveExactlyOneWinner) {
  OneShot<int> shot;
  std::atomic<int> winners{0};
  std::vector<std::thread> racers;
  for (int i = 0; i < 8; ++i) {
    racers.emplace_back([&shot, &winners, i] {
      const bool won =
          i % 2 == 0 ? shot.resolve(i)
                     : shot.fail(std::make_exception_ptr(Error("racer")));
      if (won) winners.fetch_add(1);
    });
  }
  for (auto& r : racers) r.join();
  EXPECT_EQ(winners.load(), 1);
  EXPECT_TRUE(shot.done());
}

/// fail() with `original`, then checks wait() rethrows a copy — a distinct
/// object with the same dynamic type and message — on every call.
template <typename E>
void expect_rethrows_copy(const E& original) {
  SCOPED_TRACE(typeid(E).name());
  OneShot<int> shot;
  const std::exception_ptr stored = std::make_exception_ptr(original);
  EXPECT_TRUE(shot.fail(stored));
  for (int i = 0; i < 2; ++i) {
    try {
      (void)shot.wait();
      ADD_FAILURE() << "wait() returned a value after fail()";
    } catch (const Error& e) {
      EXPECT_EQ(typeid(e), typeid(E));
      EXPECT_STREQ(e.what(), original.what());
      try {
        std::rethrow_exception(stored);
      } catch (const Error& kept) {
        EXPECT_NE(&e, &kept) << "rethrew the stored object, not a copy";
      }
    }
  }
}

TEST(ParTest, OneShotFailRethrowsACopyOfTheSameDynamicType) {
  expect_rethrows_copy(Cancelled("cancelled"));
  expect_rethrows_copy(InvalidArgument("bad input"));
  expect_rethrows_copy(fault::InjectedFault("ml.session.step", "injected"));
  expect_rethrows_copy(ConvergenceError("no convergence"));
  expect_rethrows_copy(Error("plain"));

  OneShot<int> shot;
  shot.fail(std::make_exception_ptr(
      fault::InjectedFault("serve.worker.campaign", "injected")));
  try {
    (void)shot.wait();
    ADD_FAILURE() << "wait() returned a value after fail()";
  } catch (const fault::InjectedFault& e) {
    EXPECT_EQ(e.site(), "serve.worker.campaign");
  }
}

TEST(ParTest, OneShotClaimBlocksResolveUnclaimedUntilUnclaim) {
  OneShot<int> shot;
  EXPECT_TRUE(shot.claim());
  EXPECT_FALSE(shot.resolve_unclaimed(1));
  EXPECT_FALSE(shot.done());
  shot.unclaim();
  EXPECT_TRUE(shot.resolve_unclaimed(2));
  EXPECT_EQ(shot.wait(), 2);
  EXPECT_FALSE(shot.claim());  // resolved: nothing left to claim

  // A claim never blocks the claimer's own resolve().
  OneShot<int> owned;
  EXPECT_TRUE(owned.claim());
  EXPECT_TRUE(owned.resolve(3));
  EXPECT_EQ(owned.wait(), 3);
}

}  // namespace
}  // namespace ota::par
