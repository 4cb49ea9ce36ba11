// End-to-end runs of the full simulator on synthetic profiles.
#include <gtest/gtest.h>

#include "sim/simulator.h"
#include "test_util.h"
#include "trace/profiles.h"
#include "trace/synthetic.h"
#include "trace/vector_source.h"

namespace reqblock {
namespace {

WorkloadProfile quick_profile(std::uint64_t requests = 30000) {
  WorkloadProfile p;
  p.name = "quick";
  p.total_requests = requests;
  p.seed = 7;
  p.write_ratio = 0.7;
  p.hot_extents = 1024;
  p.hot_slot_pages = 8;
  p.large_write_fraction = 0.15;
  p.small_write_mean_pages = 2.0;
  p.large_write_min_pages = 8;
  p.large_write_max_pages = 32;
  p.hot_zipf_theta = 1.1;
  p.cold_stream_pages = 1 << 17;
  p.read_hot_fraction = 0.6;
  p.mean_interarrival_ns = 500 * kMicrosecond;
  return p;
}

SimOptions quick_options(const std::string& policy,
                         std::uint64_t capacity_pages = 1024) {
  SimOptions o;
  o.ssd = testing::tiny_ssd();
  o.policy.name = policy;
  o.policy.capacity_pages = capacity_pages;
  o.policy.pages_per_block = o.ssd.pages_per_block;
  o.cache.capacity_pages = capacity_pages;
  return o;
}

TEST(SimulatorTest, RunsToCompletionAndCountsRequests) {
  SyntheticTraceSource trace(quick_profile());
  Simulator sim(quick_options("reqblock"));
  const RunResult r = sim.run(trace);
  EXPECT_EQ(r.requests, 30000u);
  EXPECT_EQ(r.read_requests + r.write_requests, r.requests);
  EXPECT_EQ(r.response.count(), r.requests);
  EXPECT_GT(r.sim_end, 0);
  EXPECT_EQ(r.policy_name, "Req-block");
}

TEST(SimulatorTest, DeterministicAcrossRuns) {
  for (const char* policy : {"lru", "bplru", "vbbms", "reqblock"}) {
    SyntheticTraceSource t1(quick_profile(8000)), t2(quick_profile(8000));
    Simulator s1(quick_options(policy)), s2(quick_options(policy));
    const RunResult a = s1.run(t1);
    const RunResult b = s2.run(t2);
    EXPECT_EQ(a.cache.page_hits, b.cache.page_hits) << policy;
    EXPECT_EQ(a.flash.host_page_writes, b.flash.host_page_writes) << policy;
    EXPECT_DOUBLE_EQ(a.response.mean(), b.response.mean()) << policy;
    EXPECT_EQ(a.sim_end, b.sim_end) << policy;
  }
}

TEST(SimulatorTest, MaxRequestsCapRespected) {
  SyntheticTraceSource trace(quick_profile());
  SimOptions o = quick_options("lru");
  o.max_requests = 500;
  Simulator sim(o);
  EXPECT_EQ(sim.run(trace).requests, 500u);
}

TEST(SimulatorTest, HitRatioWithinBounds) {
  for (const char* policy : {"lru", "fifo", "lfu", "bplru", "vbbms",
                             "reqblock"}) {
    SyntheticTraceSource trace(quick_profile(10000));
    Simulator sim(quick_options(policy));
    const RunResult r = sim.run(trace);
    EXPECT_GE(r.hit_ratio(), 0.0) << policy;
    EXPECT_LE(r.hit_ratio(), 1.0) << policy;
    EXPECT_GT(r.hit_ratio(), 0.01) << policy << " produced ~no hits";
  }
}

TEST(SimulatorTest, OccupancyProbeOnlyForReqBlock) {
  SyntheticTraceSource t1(quick_profile(10000));
  SimOptions o = quick_options("reqblock");
  o.occupancy_log_interval = 1000;
  Simulator s1(o);
  const RunResult a = s1.run(t1);
  EXPECT_EQ(a.occupancy_series.size(), 10u);

  SyntheticTraceSource t2(quick_profile(10000));
  SimOptions o2 = quick_options("lru");
  o2.occupancy_log_interval = 1000;
  Simulator s2(o2);
  EXPECT_TRUE(s2.run(t2).occupancy_series.empty());
}

TEST(SimulatorTest, OccupancySamplesNeverExceedCapacity) {
  SyntheticTraceSource trace(quick_profile(15000));
  SimOptions o = quick_options("reqblock", 512);
  o.occupancy_log_interval = 1000;
  Simulator sim(o);
  const RunResult r = sim.run(trace);
  ASSERT_FALSE(r.occupancy_series.empty());
  for (const auto& occ : r.occupancy_series) {
    EXPECT_LE(occ.total_pages(), 512u);
  }
}

TEST(SimulatorTest, ReqBlockBeatsLruOnHotSmallWorkload) {
  // The paper's headline claim, on a workload with the motivating
  // structure (hot small requests + cold large streams).
  SyntheticTraceSource t1(quick_profile(40000)), t2(quick_profile(40000));
  Simulator lru(quick_options("lru")), rb(quick_options("reqblock"));
  const RunResult a = lru.run(t1);
  const RunResult b = rb.run(t2);
  EXPECT_GT(b.hit_ratio(), a.hit_ratio());
}

TEST(SimulatorTest, LargerCacheNeverMuchWorse) {
  for (const char* policy : {"lru", "reqblock"}) {
    SyntheticTraceSource t1(quick_profile(20000)), t2(quick_profile(20000));
    Simulator small(quick_options(policy, 256)),
        large(quick_options(policy, 2048));
    const double small_hits = small.run(t1).hit_ratio();
    const double large_hits = large.run(t2).hit_ratio();
    EXPECT_GE(large_hits, small_hits * 0.98) << policy;
  }
}

TEST(SimulatorTest, FlashWritesScaleWithMisses) {
  SyntheticTraceSource trace(quick_profile(20000));
  Simulator sim(quick_options("lru"));
  const RunResult r = sim.run(trace);
  EXPECT_EQ(r.flash_write_count(),
            r.cache.flushed_pages + r.cache.bypass_pages +
                r.cache.padding_pages);
}

TEST(SimulatorTest, ResponseTimeSplitsConsistent) {
  SyntheticTraceSource trace(quick_profile(10000));
  Simulator sim(quick_options("vbbms"));
  const RunResult r = sim.run(trace);
  EXPECT_EQ(r.read_response.count() + r.write_response.count(),
            r.response.count());
  EXPECT_GE(r.response.max(),
            std::max(r.read_response.max(), r.write_response.max()));
}

TEST(SimulatorTest, MismatchedCapacitiesRejected) {
  SimOptions o = quick_options("lru", 256);
  o.cache.capacity_pages = 512;
  EXPECT_THROW(Simulator{o}, std::logic_error);
}

// Simulator checks its options as SimulationSession does, so an invalid
// overload option fails at construction, not at the first run().
TEST(SimulatorTest, InvalidOverloadOptionRejectedAtConstruction) {
  SimOptions o = quick_options("lru", 256);
  o.overload.bg_flush_high = 1.5;
  EXPECT_THROW(Simulator{o}, std::invalid_argument);
}

// Per-tenant streams are derived from a synthetic profile; a file-backed
// trace has none to split.
TEST(SimulatorTest, MultiTenantRunRefusesFileBackedTrace) {
  SimOptions o = quick_options("lru", 256);
  o.tenants.count = 2;
  VectorTraceSource trace({}, "file");
  EXPECT_THROW(Simulator{o}.run(trace), std::invalid_argument);
}

TEST(SimulatorTest, PaperProfilesRunEndToEnd) {
  for (const auto& profile : profiles::all()) {
    SyntheticTraceSource trace(profile.capped(3000));
    Simulator sim(quick_options("reqblock"));
    const RunResult r = sim.run(trace);
    EXPECT_EQ(r.requests, 3000u) << profile.name;
  }
}

}  // namespace
}  // namespace reqblock
