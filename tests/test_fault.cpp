// ota::fault unit tests: spec grammar, firing semantics, determinism of the
// per-site counted streams, and the solve_dc gmin-ladder diagnostics the
// injection sites make testable.
#include "common/fault.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "circuit/netlist.hpp"
#include "common/error.hpp"
#include "device/technology.hpp"
#include "spice/dc.hpp"

namespace ota::fault {
namespace {

/// Hits `site` n times, returning the 1-based indices should_fire reported.
std::vector<uint64_t> firing_indices(const char* site, int n) {
  std::vector<uint64_t> fired;
  for (int i = 0; i < n; ++i) {
    if (auto hit = should_fire(site)) fired.push_back(*hit);
  }
  return fired;
}

TEST(FaultTest, DisabledByDefaultAndAfterClear) {
  clear();
  EXPECT_FALSE(enabled());
  EXPECT_FALSE(should_fire("some.site").has_value());
  EXPECT_TRUE(stats().empty());

  install_spec("some.site:once=1");
  EXPECT_TRUE(enabled());
  clear();
  EXPECT_FALSE(enabled());
  EXPECT_FALSE(should_fire("some.site").has_value());
}

TEST(FaultTest, OnceFiresExactlyAtTheNthHit) {
  ScopedFaults faults("a.site:once=3");
  EXPECT_EQ(firing_indices("a.site", 10), (std::vector<uint64_t>{3}));
  const auto s = stats();
  EXPECT_EQ(s.at("a.site").hits, 10u);
  EXPECT_EQ(s.at("a.site").fired, 1u);
}

TEST(FaultTest, EveryFiresAtMultiplesOfThePeriod) {
  ScopedFaults faults("a.site:every=4");
  EXPECT_EQ(firing_indices("a.site", 13), (std::vector<uint64_t>{4, 8, 12}));
}

TEST(FaultTest, UnnamedSitesNeverFire) {
  ScopedFaults faults("a.site:every=1");
  EXPECT_FALSE(should_fire("another.site").has_value());
  EXPECT_EQ(stats().count("another.site"), 0u);
}

TEST(FaultTest, ProbFiringSetIsAPureFunctionOfTheHitIndex) {
  install_spec("p.site:prob=0.3@42");
  const auto first = firing_indices("p.site", 500);
  // Roughly 30% of 500 hits should fire; the exact set is what matters.
  EXPECT_GT(first.size(), 100u);
  EXPECT_LT(first.size(), 200u);
  // Reinstalling the same spec resets the counters and replays the exact
  // same firing set: the decision depends only on (seed, hit index).
  install_spec("p.site:prob=0.3@42");
  EXPECT_EQ(firing_indices("p.site", 500), first);
  // A different seed decorrelates the stream.
  install_spec("p.site:prob=0.3@43");
  EXPECT_NE(firing_indices("p.site", 500), first);
  clear();
}

TEST(FaultTest, ProbDefaultSeedComesFromTheSiteName) {
  // Two sites with the same rule draw from different streams.
  install_spec("p.one:prob=0.5;p.two:prob=0.5");
  const auto one = firing_indices("p.one", 200);
  const auto two = firing_indices("p.two", 200);
  EXPECT_NE(one, two);
  clear();
}

TEST(FaultTest, FiringCountIsThreadCountIndependent) {
  // The SET of firing hit-indices is fixed by the spec; threads only race
  // for which hit index each of them claims.  So for a fixed total number
  // of hits, a concurrent run must fire exactly as often as a serial one.
  constexpr int kPerThread = 300;
  for (int threads : {1, 3, 8}) {
    const int total = threads * kPerThread;
    // Serial reference for this total.
    install_spec("t.site:every=7;u.site:prob=0.2@7");
    const size_t ref_every = firing_indices("t.site", total).size();
    const size_t ref_prob = firing_indices("u.site", total).size();
    EXPECT_GT(ref_every, 0u);
    EXPECT_GT(ref_prob, 0u);
    // Concurrent replay: same spec (counters reset), same total hits.
    install_spec("t.site:every=7;u.site:prob=0.2@7");
    std::atomic<uint64_t> fired_every{0}, fired_prob{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&] {
        for (int i = 0; i < kPerThread; ++i) {
          if (should_fire("t.site")) fired_every.fetch_add(1);
          if (should_fire("u.site")) fired_prob.fetch_add(1);
        }
      });
    }
    for (auto& th : pool) th.join();
    EXPECT_EQ(fired_every.load(), ref_every) << threads << " threads";
    EXPECT_EQ(fired_prob.load(), ref_prob) << threads << " threads";
    const auto s = stats();
    EXPECT_EQ(s.at("t.site").hits, static_cast<uint64_t>(total));
    EXPECT_EQ(s.at("t.site").fired, ref_every);
  }
  clear();
}

TEST(FaultTest, MacroThrowsInjectedFaultCarryingSiteAndHit) {
  ScopedFaults faults("macro.site:once=2");
  EXPECT_NO_THROW(FAULT_SITE("macro.site"));
  try {
    FAULT_SITE("macro.site");
    FAIL() << "second hit should have fired";
  } catch (const InjectedFault& e) {
    EXPECT_EQ(e.site(), "macro.site");
    EXPECT_NE(std::string(e.what()).find("macro.site"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("hit 2"), std::string::npos);
  }
  EXPECT_NO_THROW(FAULT_SITE("macro.site"));
}

TEST(FaultTest, MacroAsThrowsTheRequestedType) {
  ScopedFaults faults("typed.site:once=1");
  EXPECT_THROW(FAULT_SITE_AS("typed.site", ConvergenceError), ConvergenceError);
}

TEST(FaultTest, MalformedSpecsThrowAndLeaveTheActiveSpecUnchanged) {
  install_spec("good.site:once=1");
  for (const char* bad :
       {"nosite", ":once=1", "s:once=0", "s:every=0", "s:once=x", "s:prob=1.5",
        "s:prob=-0.1", "s:prob=", "s:mode=1", "s:once=1;s:once=2",
        "s:prob=nan", "s:every=18446744073709551617",
        "s:once=99999999999999999999", "s:prob=0.5@18446744073709551616"}) {
    EXPECT_THROW(install_spec(bad), InvalidArgument) << bad;
  }
  // The good spec survived every failed install.
  EXPECT_TRUE(enabled());
  EXPECT_TRUE(should_fire("good.site").has_value());
  clear();
}

TEST(FaultTest, SpecGrammarToleratesWhitespaceAndEmptyEntries) {
  ScopedFaults faults(" a.site : once=1 ; ; b.site:every=2 ");
  EXPECT_TRUE(should_fire("a.site").has_value());
  EXPECT_FALSE(should_fire("b.site").has_value());
  EXPECT_TRUE(should_fire("b.site").has_value());
}

// ---------------------------------------------------------------------------
// The solve_dc gmin-ladder diagnostics, driven through the injection sites.

class FaultDcTest : public ::testing::Test {
 protected:
  device::Technology tech = device::Technology::default65nm();
  circuit::Netlist divider() {
    circuit::Netlist nl;
    nl.add_vsource("V1", "in", "0", 1.2);
    nl.add_resistor("R1", "in", "mid", 1e3);
    nl.add_resistor("R2", "mid", "0", 1e3);
    return nl;
  }
};

TEST_F(FaultDcTest, CleanSolveReportsNoRetries) {
  const auto sol = spice::solve_dc(divider(), tech);
  EXPECT_EQ(sol.gmin_retries, 0);
  EXPECT_EQ(sol.lu_failures, 0);
}

TEST_F(FaultDcTest, LadderAbsorbsAnInjectedLuSingularityAndCountsIt) {
  ScopedFaults faults("linalg.lu.factor:once=1");
  const auto nl = divider();
  const auto sol = spice::solve_dc(nl, tech);
  // The first rung's first factorization failed; the ladder retried at the
  // next rung and still converged to the exact answer.
  EXPECT_EQ(sol.lu_failures, 1);
  EXPECT_GE(sol.gmin_retries, 1);
  EXPECT_NEAR(sol.voltage(nl, "mid"), 0.6, 1e-9);
}

TEST_F(FaultDcTest, LadderAbsorbsAnInjectedNewtonFaultAndCountsIt) {
  ScopedFaults faults("spice.dc.newton:once=1");
  const auto nl = divider();
  const auto sol = spice::solve_dc(nl, tech);
  EXPECT_EQ(sol.gmin_retries, 1);
  EXPECT_EQ(sol.lu_failures, 0);
  EXPECT_NEAR(sol.voltage(nl, "mid"), 0.6, 1e-9);
}

TEST_F(FaultDcTest, ExhaustedLadderSurfacesRetryCountsInTheError) {
  ScopedFaults faults("spice.dc.newton:every=1");  // every rung fails
  try {
    spice::solve_dc(divider(), tech);
    FAIL() << "expected ConvergenceError";
  } catch (const ConvergenceError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("gmin ladder exhausted"), std::string::npos) << what;
    EXPECT_NE(what.find("gmin retries"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace ota::fault
