// Golden digests of session snapshot bytes.
//
// Each case runs a small deterministic session part of the way, calls
// SimulationSession::serialize, and compares the FNV-1a-64 digest of the
// payload with a pinned value. The cases stop mid-run, so the bytes hold a
// populated cache: resident pages with their dirty bits, the write oracle,
// each policy's replacement state, the FTL tables and every armed
// subsystem's counters.
//
// The snapshot bytes are a format contract: a checkpoint written by one
// build must restore in the next. A digest below may change only together
// with kSnapshotFormatVersion (src/snapshot/snapshot.h); the static_assert
// makes a version bump revisit this file. A change that moves a digest
// without a version bump changed the bytes of an existing format — that is
// the regression this test exists to catch.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "host/tenant.h"
#include "sim/session.h"
#include "snapshot/snapshot.h"
#include "test_util.h"
#include "trace/synthetic.h"

namespace reqblock {
namespace {

static_assert(kSnapshotFormatVersion == 6,
              "the snapshot format changed: re-record the golden digests");

WorkloadProfile golden_profile(double write_ratio) {
  WorkloadProfile p;
  p.name = "snapshot-golden";
  p.total_requests = 4000;
  p.seed = 77;
  p.write_ratio = write_ratio;
  p.hot_extents = 96;
  p.cold_stream_pages = 1 << 14;
  p.mean_interarrival_ns = 140 * kMicrosecond;
  return p;
}

SimOptions small_options(const std::string& policy) {
  SimOptions o;
  o.ssd = testing::tiny_ssd();
  o.policy.name = policy;
  o.policy.capacity_pages = 256;
  o.policy.pages_per_block = o.ssd.pages_per_block;
  o.cache.capacity_pages = 256;
  o.telemetry_env_override = false;
  return o;
}

constexpr std::uint64_t kStopAt = 2500;

std::uint64_t digest_mid_run(SimulationSession& session) {
  while (session.served() < kStopAt && session.step()) {
  }
  EXPECT_EQ(session.served(), kStopAt);
  SnapshotWriter w;
  session.serialize(w);
  const std::string bytes = w.take();
  return fnv1a64(bytes.data(), bytes.size());
}

std::uint64_t single_stream_digest(const SimOptions& o,
                                   const WorkloadProfile& p) {
  SyntheticTraceSource trace(p);
  SimulationSession session(o, trace);
  return digest_mid_run(session);
}

TEST(SnapshotGoldenTest, EachPolicyOnTheDefaultConfiguration) {
  struct Case {
    const char* policy;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {"lru", 0xbad04fe991d9c289ULL},
      {"fifo", 0x8ec7c726c617fef2ULL},
      {"lfu", 0x477b23e95843a23cULL},
      {"cflru", 0xe58feeea5a50a45aULL},
      {"fab", 0x4b1037b73d7c7755ULL},
      {"bplru", 0xc628986d8202a3dbULL},
      {"vbbms", 0xc45dbe214b8a97efULL},
      {"reqblock", 0x2e0bfc44ea5e41e8ULL},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(single_stream_digest(small_options(c.policy),
                                   golden_profile(0.7)),
              c.digest)
        << c.policy;
  }
}

// Read admission puts clean pages in the cache: the manager's dirty bits
// and CFLRU's per-node dirty flags are then both mixed in the bytes.
TEST(SnapshotGoldenTest, CflruWithCachedReads) {
  SimOptions o = small_options("cflru");
  o.cache.cache_reads = true;
  EXPECT_EQ(single_stream_digest(o, golden_profile(0.4)),
            0xea966f2a8f87e4dfULL);
}

// Req-block behind three tenants with admission control, faults (program
// failures, power loss), a pre-aged device, the bit-error recovery chain
// with patrol scrub, and per-request attribution.
TEST(SnapshotGoldenTest, ReqBlockWithEverySubsystem) {
  SimOptions o = small_options("reqblock");
  o.tenants.count = 3;
  o.tenants.arbiter = ArbiterKind::kDeficit;
  o.tenants.drr_quantum_pages = 8;
  o.tenants.specs = {TenantSpec{.weight = 4}, TenantSpec{.weight = 2},
                     TenantSpec{.weight = 1}};
  o.overload.queue_depth = 16;
  o.overload.deadline_ns = 5 * kMillisecond;
  o.overload.timeout_action = TimeoutAction::kRetry;
  o.overload.max_retries = 2;
  o.overload.throttle = true;
  o.overload.bg_flush_high = 0.85;
  o.overload.bg_flush_low = 0.6;
  o.fault.seed = 7;
  o.fault.program_fail_prob = 0.01;
  o.fault.power_loss_every_requests = 900;
  o.fault.aging.rated_pe_cycles = 3000;
  o.fault.aging.initial_pe_cycles = 2700;
  o.fault.integrity.rber_base = 0.02;
  o.fault.integrity.stripe_pages = 8;
  o.fault.integrity.scrub_every_requests = 500;
  o.fault.integrity.scrub_rber_threshold = 0.1;
  o.telemetry.attribution = true;
  WorkloadProfile p = golden_profile(0.6);
  p.mean_interarrival_ns = 600 * kMicrosecond;
  TenantStreams streams = make_tenant_streams(p, o.tenants);
  SimulationSession session(o, streams.sources);
  EXPECT_EQ(digest_mid_run(session), 0x0f2222ab1716009dULL);
}

// The cases above run on tiny_ssd, where GC never starts. These run on
// micro_ssd (2 planes x 128 blocks x 8 pages) with a footprint near the
// GC operating point, so by the stop point GC has erased blocks and
// copied valid pages, and the flash section's candidate list holds stale
// entries, entries left after pops and, under wear-aware selection,
// entries pushed back after a scan.
SimOptions gc_options(SsdConfig::GcVictimPolicy victim_policy) {
  SimOptions o = small_options("reqblock");
  o.ssd = testing::micro_ssd();
  o.ssd.gc_victim_policy = victim_policy;
  o.policy.pages_per_block = o.ssd.pages_per_block;
  o.policy.capacity_pages = 128;
  o.cache.capacity_pages = 128;
  return o;
}

WorkloadProfile gc_profile() {
  WorkloadProfile p = golden_profile(0.8);
  p.cold_stream_pages = 320;  // 4 streams: 1,280 of the 2,048 pages
  return p;
}

TEST(SnapshotGoldenTest, GcPressuredGreedyAndWearAware) {
  struct Case {
    SsdConfig::GcVictimPolicy policy;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {SsdConfig::GcVictimPolicy::kGreedy, 0xc8cc61172305dae3ULL},
      {SsdConfig::GcVictimPolicy::kWearAware, 0x39bd008d094c072cULL},
  };
  for (const Case& c : cases) {
    const SimOptions o = gc_options(c.policy);
    SCOPED_TRACE(c.policy == SsdConfig::GcVictimPolicy::kGreedy
                     ? "greedy"
                     : "wear-aware");
    // The same run capped at the stop point must have collected.
    SimOptions capped = o;
    capped.max_requests = kStopAt;
    SyntheticTraceSource trace(gc_profile());
    SimulationSession session(capped, trace);
    while (session.step()) {
    }
    const RunResult r = session.finish();
    EXPECT_GT(r.flash.erases, 0u);
    EXPECT_GT(r.flash.gc_page_moves, 0u);

    EXPECT_EQ(single_stream_digest(o, gc_profile()), c.digest);
  }
}

}  // namespace
}  // namespace reqblock
