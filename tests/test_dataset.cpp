// Data-generation tests (paper Section IV-A procedure).
#include "core/dataset.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace ota::core {
namespace {

class DatasetTest : public ::testing::Test {
 protected:
  device::Technology tech = device::Technology::default65nm();

  Dataset small_dataset(const std::string& name, int n = 40, int threads = 0) {
    auto topo = circuit::make_topology(name, tech);
    DataGenOptions opt;
    opt.target_designs = n;
    opt.max_attempts = 20000;
    opt.seed = 7;
    opt.threads = threads;
    return generate_dataset(topo, tech, SpecRange::for_topology(name), opt);
  }
};

// 64-bit FNV-1a over the raw bytes of everything a dataset records per
// design, in order: widths, specs, then each device (map order) as its name
// and every SmallSignal field.
uint64_t dataset_hash(const Dataset& ds) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto bytes = [&h](const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  };
  auto f64 = [&bytes](double v) {
    uint64_t u = 0;
    std::memcpy(&u, &v, sizeof u);
    bytes(&u, sizeof u);
  };
  auto u8 = [&bytes](auto e) {
    const auto v = static_cast<uint8_t>(e);
    bytes(&v, 1);
  };
  for (const auto& d : ds.designs) {
    for (double w : d.widths) f64(w);
    f64(d.specs.gain_db);
    f64(d.specs.bw_hz);
    f64(d.specs.ugf_hz);
    for (const auto& [name, ss] : d.devices) {
      bytes(name.data(), name.size());
      for (double v : {ss.id, ss.gm, ss.gds, ss.cgs, ss.cds, ss.ic}) f64(v);
      u8(ss.region);
      u8(ss.conduction);
    }
  }
  return h;
}

TEST_F(DatasetTest, GeneratesRequestedCount) {
  const Dataset ds = small_dataset("5T-OTA");
  EXPECT_EQ(ds.designs.size(), 40u);
  EXPECT_GT(ds.attempts, 40);  // rejection sampling costs attempts
}

TEST_F(DatasetTest, AllDesignsMeetSpecWindow) {
  const Dataset ds = small_dataset("5T-OTA");
  const SpecRange range = SpecRange::for_topology("5T-OTA");
  for (const auto& d : ds.designs) {
    EXPECT_TRUE(range.contains(d.specs));
  }
}

TEST_F(DatasetTest, WidthsWithinSweepBounds) {
  const Dataset ds = small_dataset("CM-OTA", 25);
  for (const auto& d : ds.designs) {
    ASSERT_EQ(d.widths.size(), 5u);
    for (double w : d.widths) {
      EXPECT_GE(w, 0.7e-6 * 0.999);
      EXPECT_LE(w, 50e-6 * 1.001);
    }
  }
}

TEST_F(DatasetTest, DeviceParametersCaptured) {
  const Dataset ds = small_dataset("5T-OTA", 10);
  for (const auto& d : ds.designs) {
    EXPECT_EQ(d.devices.size(), 5u);  // all five transistors
    for (const auto& [name, ss] : d.devices) {
      EXPECT_GT(ss.gm, 0.0) << name;
      EXPECT_GT(ss.id, 0.0) << name;
    }
  }
}

TEST_F(DatasetTest, RegionFiltersAreActive) {
  // With region enforcement the DP must sit at low IC and the mirrors high.
  const Dataset ds = small_dataset("5T-OTA", 15);
  for (const auto& d : ds.designs) {
    EXPECT_LE(d.devices.at("M3").ic, 1.0 + 1e-9);   // DP toward weak inversion
    EXPECT_GE(d.devices.at("M1").ic, 3.0 - 1e-9);   // mirror toward strong
  }
}

TEST_F(DatasetTest, DeterministicForFixedSeed) {
  const Dataset a = small_dataset("5T-OTA", 10);
  const Dataset b = small_dataset("5T-OTA", 10);
  ASSERT_EQ(a.designs.size(), b.designs.size());
  for (size_t i = 0; i < a.designs.size(); ++i) {
    EXPECT_EQ(a.designs[i].widths, b.designs[i].widths);
  }
}

TEST_F(DatasetTest, DifferentSeedsDiffer) {
  auto topo = circuit::make_5t_ota(tech);
  DataGenOptions a, b;
  a.target_designs = b.target_designs = 5;
  a.seed = 1;
  b.seed = 2;
  const auto da = generate_dataset(topo, tech, SpecRange::for_topology("5T-OTA"), a);
  const auto db = generate_dataset(topo, tech, SpecRange::for_topology("5T-OTA"), b);
  ASSERT_FALSE(da.designs.empty());
  ASSERT_FALSE(db.designs.empty());
  EXPECT_NE(da.designs[0].widths, db.designs[0].widths);
}

TEST_F(DatasetTest, SpecRangeForUnknownTopologyThrows) {
  EXPECT_THROW(SpecRange::for_topology("9T-OTA"), InvalidArgument);
}

TEST_F(DatasetTest, TrainValSplitProportions) {
  const Dataset ds = small_dataset("5T-OTA", 40);
  const auto [train, val] = train_val_split(ds.designs, 0.2, 11);
  EXPECT_EQ(val.size(), 8u);
  EXPECT_EQ(train.size(), 32u);
  EXPECT_THROW(train_val_split(ds.designs, 1.5, 1), InvalidArgument);
}

TEST_F(DatasetTest, TrainValSplitIsAPartition) {
  const Dataset ds = small_dataset("5T-OTA", 30);
  const auto [train, val] = train_val_split(ds.designs, 0.3, 5);
  // Widths triples identify designs uniquely with overwhelming probability.
  std::set<std::vector<double>> seen;
  for (const auto& d : train) seen.insert(d.widths);
  for (const auto& d : val) {
    EXPECT_EQ(seen.count(d.widths), 0u);
  }
  EXPECT_EQ(train.size() + val.size(), ds.designs.size());
}

TEST_F(DatasetTest, TwoStageDatasetIsGeneratable) {
  const Dataset ds = small_dataset("2S-OTA", 15);
  EXPECT_EQ(ds.designs.size(), 15u);
  const SpecRange range = SpecRange::for_topology("2S-OTA");
  for (const auto& d : ds.designs) {
    EXPECT_TRUE(range.contains(d.specs));
    EXPECT_GE(d.specs.gain_db, 26.0);  // two-stage gain exceeds single-stage
  }
}

TEST_F(DatasetTest, OnlyFilterSurvivorsRunAc) {
  // Region and saturation verdicts are decided at the DC operating point, so
  // the AC measurement runs exactly once per candidate that reaches the spec
  // check: every accepted design and every spec reject, nothing else.  The
  // runs are bounded by an attempt budget rather than a design target so
  // that the parallel path folds every attempt it evaluates (a target can
  // stop the fold inside a block whose later attempts were already run).
  const stats::ScopedStats scoped;  // restores the prior state on exit
  for (const auto& [name, budget] : {std::pair{"5T-OTA", 200},
                                     std::pair{"CM-OTA", 300},
                                     std::pair{"2S-OTA", 150}}) {
    auto topo = circuit::make_topology(name, tech);
    DataGenOptions opt;
    opt.target_designs = budget + 1;  // never reached: the budget ends the run
    opt.max_attempts = budget;
    opt.seed = 7;
    for (int threads : {1, 4}) {
      SCOPED_TRACE(std::string(name) + " threads=" + std::to_string(threads));
      opt.threads = threads;
      stats::reset();
      const Dataset ds =
          generate_dataset(topo, tech, SpecRange::for_topology(name), opt);
      const auto sites = stats::snapshot();
      const auto it = sites.find("spice.measure");
      const uint64_t measures = it == sites.end() ? 0 : it->second.count;
      ASSERT_EQ(ds.attempts, budget);
      ASSERT_FALSE(ds.designs.empty());
      EXPECT_GT(ds.region_rejects, 0);
      EXPECT_EQ(measures, ds.designs.size() + static_cast<size_t>(ds.spec_rejects));
    }
  }
}

TEST_F(DatasetTest, OutcomesMatchPinnedReference) {
  // Captured from the implementation that ran the full DC + AC evaluation on
  // every candidate (before region rejects were decided at the operating
  // point), with this fixture's options (seed 7, max_attempts 20000) at 1 and
  // 4 threads, which agreed.  Any change to what dataset generation produces
  // must fail here.
  struct Pin {
    const char* topology;
    int designs, attempts, dc_failures, region_rejects, spec_rejects;
    uint64_t hash;
  };
  const Pin pins[] = {
      {"5T-OTA", 40, 400, 0, 360, 0, 0x73bc80f9e1bd82d8ULL},
      {"CM-OTA", 20, 559, 0, 530, 9, 0x0b0c6c11847cc051ULL},
      {"2S-OTA", 10, 145, 0, 135, 0, 0xb5d1da802abf3eb4ULL},
  };
  for (const Pin& p : pins) {
    for (int threads : {1, 4}) {
      const Dataset ds = small_dataset(p.topology, p.designs, threads);
      SCOPED_TRACE(std::string(p.topology) + " threads=" + std::to_string(threads));
      EXPECT_EQ(ds.designs.size(), static_cast<size_t>(p.designs));
      EXPECT_EQ(ds.attempts, p.attempts);
      EXPECT_EQ(ds.dc_failures, p.dc_failures);
      EXPECT_EQ(ds.region_rejects, p.region_rejects);
      EXPECT_EQ(ds.spec_rejects, p.spec_rejects);
      EXPECT_EQ(dataset_hash(ds), p.hash);
    }
  }
}

}  // namespace
}  // namespace ota::core
