#include "linalg/stats.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/sizing_model.hpp"
#include "ml/infer.hpp"
#include "par/thread_pool.hpp"

// Sanitizer builds replace the allocator; skip the allocation-counting
// override there and keep the behavioural assertions.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define OTA_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define OTA_TEST_SANITIZED 1
#endif
#endif

#ifndef OTA_TEST_SANITIZED
namespace {
std::atomic<uint64_t> g_alloc_count{0};
}  // namespace

// Counting global allocator: lets DisabledIsAllocationFree assert the hot
// path performs literally zero heap allocations while stats are off.  The
// default operator new[] forwards here, so scalar overrides cover arrays.
void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace ota::linalg {
namespace {

TEST(Stats, MeanAndStddev) {
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_NEAR(stddev({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(stddev({5.0}), 0.0);
  EXPECT_THROW(mean({}), InvalidArgument);
}

TEST(Pearson, PerfectCorrelation) {
  std::vector<double> x{1.0, 2.0, 3.0, 4.0};
  std::vector<double> y{2.0, 4.0, 6.0, 8.0};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
}

TEST(Pearson, PerfectAnticorrelation) {
  std::vector<double> x{1.0, 2.0, 3.0};
  std::vector<double> y{3.0, 2.0, 1.0};
  EXPECT_NEAR(pearson(x, y), -1.0, 1e-12);
}

TEST(Pearson, ConstantSampleReturnsZero) {
  EXPECT_DOUBLE_EQ(pearson({1.0, 1.0, 1.0}, {1.0, 2.0, 3.0}), 0.0);
}

TEST(Pearson, InvariantToAffineTransform) {
  Rng rng(7);
  std::vector<double> x, y;
  for (int i = 0; i < 100; ++i) {
    x.push_back(rng.normal());
    y.push_back(0.8 * x.back() + 0.3 * rng.normal());
  }
  const double r = pearson(x, y);
  std::vector<double> x2, y2;
  for (size_t i = 0; i < x.size(); ++i) {
    x2.push_back(5.0 * x[i] - 2.0);
    y2.push_back(0.1 * y[i] + 11.0);
  }
  EXPECT_NEAR(pearson(x2, y2), r, 1e-12);
  EXPECT_GT(r, 0.8);  // strongly correlated by construction
}

TEST(Pearson, Validation) {
  EXPECT_THROW(pearson({1.0}, {1.0, 2.0}), InvalidArgument);
  EXPECT_THROW(pearson({1.0}, {1.0}), InvalidArgument);
}

TEST(Rmse, Basics) {
  EXPECT_DOUBLE_EQ(rmse({1.0, 2.0}, {1.0, 2.0}), 0.0);
  EXPECT_NEAR(rmse({0.0, 0.0}, {3.0, 4.0}), std::sqrt(12.5), 1e-12);
  EXPECT_THROW(rmse({}, {}), InvalidArgument);
}

TEST(Mape, Basics) {
  EXPECT_NEAR(mape({110.0, 90.0}, {100.0, 100.0}), 0.1, 1e-12);
  // Zero references are skipped, not divided by.
  EXPECT_NEAR(mape({1.0, 110.0}, {0.0, 100.0}), 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(mape({1.0}, {0.0}), 0.0);
}

}  // namespace
}  // namespace ota::linalg

namespace ota::stats {
namespace {

TEST(StatsTest, CounterAndRegionSemantics) {
  ScopedStats scoped;
  for (int i = 0; i < 3; ++i) STAT_COUNTER("test.stats.counter");
  STAT_COUNTER_ADD("test.stats.counter", 5);
  for (int i = 0; i < 4; ++i) {
    STAT_REGION("test.stats.region");
  }
  STAT_SECONDS("test.stats.wait", 0.25);
  STAT_SECONDS("test.stats.wait", 0.5);

  const auto snap = snapshot();
  ASSERT_TRUE(snap.count("test.stats.counter"));
  EXPECT_EQ(snap.at("test.stats.counter").kind, Kind::kCounter);
  EXPECT_EQ(snap.at("test.stats.counter").count, 8u);
  EXPECT_DOUBLE_EQ(snap.at("test.stats.counter").seconds, 0.0);

  ASSERT_TRUE(snap.count("test.stats.region"));
  EXPECT_EQ(snap.at("test.stats.region").kind, Kind::kRegion);
  EXPECT_EQ(snap.at("test.stats.region").count, 4u);
  EXPECT_GE(snap.at("test.stats.region").seconds, 0.0);

  ASSERT_TRUE(snap.count("test.stats.wait"));
  EXPECT_EQ(snap.at("test.stats.wait").kind, Kind::kRegion);
  EXPECT_EQ(snap.at("test.stats.wait").count, 2u);
  EXPECT_NEAR(snap.at("test.stats.wait").seconds, 0.75, 1e-9);
}

TEST(StatsTest, DisabledRecordsNothing) {
  ASSERT_FALSE(enabled());  // tests run with OTA_STATS unset
  STAT_COUNTER("test.stats.never_recorded");
  STAT_REGION("test.stats.never_recorded_region");

  ScopedStats scoped;  // resets, then enables
  const auto snap = snapshot();
  // A disabled pass never even interns the site, let alone counts it.
  EXPECT_FALSE(snap.count("test.stats.never_recorded"));
  EXPECT_FALSE(snap.count("test.stats.never_recorded_region"));
}

TEST(StatsTest, DisabledIsAllocationFree) {
  ASSERT_FALSE(enabled());
  // Warm the call sites' handles once via an enabled pass so the loop below
  // measures the steady disabled state, not first-use interning.
  {
    ScopedStats scoped;
    STAT_COUNTER("test.stats.alloc_probe");
    STAT_REGION("test.stats.alloc_probe_region");
  }
#ifndef OTA_TEST_SANITIZED
  const uint64_t before = g_alloc_count.load();
#endif
  for (int i = 0; i < 10000; ++i) {
    STAT_COUNTER("test.stats.alloc_probe");
    STAT_COUNTER_ADD("test.stats.alloc_probe", 3);
    STAT_REGION("test.stats.alloc_probe_region");
    STAT_SECONDS("test.stats.alloc_probe_region", 0.001);
  }
#ifndef OTA_TEST_SANITIZED
  EXPECT_EQ(g_alloc_count.load(), before);
#endif
  // And nothing was recorded either.
  ScopedStats scoped;
  const auto snap = snapshot();
  ASSERT_TRUE(snap.count("test.stats.alloc_probe"));
  EXPECT_EQ(snap.at("test.stats.alloc_probe").count, 0u);
}

TEST(StatsTest, ResetZeroesButKeepsSites) {
  ScopedStats scoped;
  STAT_COUNTER_ADD("test.stats.reset_me", 7);
  reset();
  const auto snap = snapshot();
  ASSERT_TRUE(snap.count("test.stats.reset_me"));
  EXPECT_EQ(snap.at("test.stats.reset_me").count, 0u);
}

TEST(StatsTest, DisableKeepsDataUntilReset) {
  ScopedStats scoped;
  STAT_COUNTER_ADD("test.stats.sticky", 4);
  disable();
  STAT_COUNTER_ADD("test.stats.sticky", 100);  // not recorded
  EXPECT_EQ(snapshot().at("test.stats.sticky").count, 4u);
  enable();  // ScopedStats teardown expects to restore from enabled
}

// The acceptance gate: on a deterministic workload, the merged report
// (timing excluded) is byte-identical for 1, 3, and 8 threads — per-site
// sums are commutative and the report is name-ordered, so scheduling can
// not leak into the output.
TEST(StatsTest, MergedReportIsThreadCountInvariant) {
  constexpr size_t kItems = 96;
  std::vector<std::string> reports;
  for (int threads : {1, 3, 8}) {
    ScopedStats scoped;
    par::ThreadPool pool(threads);
    pool.parallel_for(kItems, [](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        STAT_REGION("test.det.item");
        STAT_COUNTER("test.det.visits");
        STAT_COUNTER_ADD("test.det.weight", i);
      }
    });
    reports.push_back(report_json(ReportOptions{.include_timing = false}));
    const auto snap = snapshot();
    EXPECT_EQ(snap.at("test.det.visits").count, kItems);
    EXPECT_EQ(snap.at("test.det.weight").count,
              kItems * (kItems - 1) / 2);
    EXPECT_EQ(snap.at("test.det.item").count, kItems);
  }
  EXPECT_EQ(reports[0], reports[1]);
  EXPECT_EQ(reports[0], reports[2]);
}

TEST(StatsTest, ReportJsonShape) {
  ScopedStats scoped;
  STAT_COUNTER_ADD("test.json.counter", 2);
  { STAT_REGION("test.json.region"); }

  const std::string with_timing = report_json();
  EXPECT_NE(with_timing.find("\"enabled\": true"), std::string::npos);
  EXPECT_NE(with_timing.find("{\"site\": \"test.json.counter\", "
                             "\"kind\": \"counter\", \"count\": 2}"),
            std::string::npos);
  EXPECT_NE(with_timing.find("\"site\": \"test.json.region\", "
                             "\"kind\": \"region\", \"count\": 1, "
                             "\"seconds\": "),
            std::string::npos);

  // Counts-only mode drops every timing field.
  const std::string no_timing =
      report_json(ReportOptions{.include_timing = false});
  EXPECT_EQ(no_timing.find("seconds"), std::string::npos);

  // Brace/bracket balance as a cheap well-formedness proxy.
  int braces = 0, brackets = 0;
  for (char c : with_timing) {
    braces += c == '{' ? 1 : c == '}' ? -1 : 0;
    brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);

  // write_report() emits exactly the stream report.
  const std::string path = "stats_report_test.json";
  ASSERT_TRUE(write_report(path));
  std::ifstream in(path);
  std::stringstream file_contents;
  file_contents << in.rdbuf();
  EXPECT_EQ(file_contents.str(), report_json());
  std::remove(path.c_str());
}

// TSan target: four writer threads hammer shared sites while the main
// thread reports concurrently; totals must land exactly once each.
TEST(StatsTest, ConcurrentAccumulationAndReport) {
  constexpr int kThreads = 4;
  constexpr int kIters = 10000;
  ScopedStats scoped;
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&go] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < kIters; ++i) {
        STAT_COUNTER("test.conc.counter");
        STAT_REGION("test.conc.region");
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (int i = 0; i < 50; ++i) {
    (void)report_json();  // concurrent reads must be race-free
  }
  for (auto& w : writers) w.join();
  const auto snap = snapshot();
  EXPECT_EQ(snap.at("test.conc.counter").count,
            static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(snap.at("test.conc.region").count,
            static_cast<uint64_t>(kThreads) * kIters);
}

// The decode session's layer regions: one ml.session.encode pass per
// session and one ml.session.step pass per fed token, at either tier.
TEST(StatsTest, SessionRecordsOneStepPassPerToken) {
  ml::TransformerConfig cfg;
  cfg.vocab_size = 10;
  cfg.d_model = 16;
  cfg.n_heads = 2;
  cfg.n_layers = 1;
  cfg.d_ff = 32;
  cfg.max_len = 16;
  cfg.dropout = 0.0;
  const ml::InferenceEngine engine{ml::Transformer(cfg)};
  constexpr uint64_t kSteps = 5;
  for (ml::Precision tier : {ml::Precision::kDouble, ml::Precision::kFloat32}) {
    ScopedStats scoped;
    ml::InferenceEngine::Session session(engine, {4, 5, 6}, tier);
    for (uint64_t i = 0; i < kSteps; ++i) {
      (void)session.step(nlp::Vocabulary::kBos);
    }
    const auto snap = snapshot();
    ASSERT_TRUE(snap.count("ml.session.encode")) << ml::precision_name(tier);
    ASSERT_TRUE(snap.count("ml.session.step")) << ml::precision_name(tier);
    EXPECT_EQ(snap.at("ml.session.encode").count, 1u)
        << ml::precision_name(tier);
    EXPECT_EQ(snap.at("ml.session.step").count, kSteps)
        << ml::precision_name(tier);
  }
}

// The training step's phase regions: one ml.train.forward_backward pass per
// example and one ml.train.{reduce,adam,sync} pass per batch, for any lane
// count.
TEST(StatsTest, TrainingPhaseCountsAreThreadCountInvariant) {
  std::vector<std::pair<std::string, std::string>> pairs;
  for (int i = 0; i < 5; ++i) {
    pairs.emplace_back("gain=" + std::to_string(40 + i),
                       "gmM1=" + std::to_string(1 + i) + "e-3");
  }
  core::TrainOptions opt;
  opt.epochs = 2;
  opt.batch_size = 3;  // 5 examples (none held out): batches of 3 and 2
  opt.val_fraction = 0.0;
  opt.d_model = 8;
  opt.n_heads = 2;
  opt.n_layers = 1;
  opt.d_ff = 16;
  opt.bpe_merges = 8;
  opt.max_len = 64;
  opt.dropout = 0.1;
  for (int threads : {1, 3}) {
    opt.threads = threads;
    core::SizingModel model;
    ScopedStats scoped;
    (void)model.train(pairs, opt);
    const auto snap = snapshot();
    const std::pair<const char*, uint64_t> expected[] = {
        {"ml.train.forward_backward", 10}, {"ml.train.reduce", 4},
        {"ml.train.adam", 4}, {"ml.train.sync", 4}};
    for (const auto& [site, count] : expected) {
      ASSERT_TRUE(snap.count(site)) << site << " at " << threads;
      EXPECT_EQ(snap.at(site).count, count) << site << " at " << threads;
    }
  }
}

}  // namespace
}  // namespace ota::stats
