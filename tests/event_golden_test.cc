// Golden event streams of four traced runs.
//
// The aging, integrity and telemetry tests reconcile event *counts* with
// the counters; nothing else pins the order of the events or their `at`
// and `dur` stamps, and those are what a change to a relocation, an
// eviction or an event emitter can move without notice. Each case below
// traces every category into a ring that drops nothing, checks that the
// event kinds it exists for fired, and pins the FNV-1a-64 digest of the
// JSONL export (one line per event: ts, dur, kind, category, track,
// channel, lpn, arg).
//
// The cases:
//   * GC under program and erase faults on a block-starved device, with
//     the greedy and the wear-aware victim choice;
//   * the aging mix: read-disturb migrations, retention scrubs and a
//     rated-wear crossing;
//   * the integrity mix: every recovery tier and the patrol scrubber;
//   * three deficit-round-robin tenants behind a retrying admission queue
//     with throttle, background flush and a power loss every 900 requests.
//
// A digest moves only when some event's kind, order, stamps, lanes or
// payload moves.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include "sim/experiment.h"
#include "sim/simulator.h"
#include "snapshot/snapshot.h"
#include "telemetry/exporters.h"
#include "test_util.h"
#include "trace/synthetic.h"
#include "trace/vector_source.h"

namespace reqblock {
namespace {

std::uint64_t count_kind(const std::vector<TraceEvent>& events,
                         EventKind kind) {
  std::uint64_t n = 0;
  for (const auto& e : events) n += e.kind == kind ? 1 : 0;
  return n;
}

/// Checks the ring kept every event and each of `kinds` fired, then
/// returns the digest of the JSONL export.
std::uint64_t stream_digest(const RunResult& r,
                            std::initializer_list<EventKind> kinds) {
  EXPECT_EQ(r.telemetry.events_dropped, 0u);
  EXPECT_EQ(r.telemetry.events_sampled_out, 0u);
  EXPECT_EQ(r.telemetry.events.size(), r.telemetry.events_emitted);
  for (const EventKind kind : kinds) {
    EXPECT_GT(count_kind(r.telemetry.events, kind), 0u) << to_string(kind);
  }
  std::ostringstream os;
  write_events_jsonl(os, r.telemetry.events);
  const std::string jsonl = os.str();
  return fnv1a64(jsonl.data(), jsonl.size());
}

SimOptions traced_options() {
  SimOptions o;
  o.ssd = testing::tiny_ssd();
  o.policy.name = "reqblock";
  o.policy.capacity_pages = 256;
  o.policy.pages_per_block = o.ssd.pages_per_block;
  o.cache.capacity_pages = 256;
  o.telemetry_env_override = false;
  o.telemetry.trace.level = TraceLevel::kAll;
  o.telemetry.trace.capacity = 1u << 20;
  return o;
}

// --- GC under faults ---------------------------------------------------------

RunResult run_gc_under_faults(SsdConfig::GcVictimPolicy victim) {
  SimOptions o = traced_options();
  o.ssd = testing::micro_ssd();
  o.ssd.gc_victim_policy = victim;
  o.policy.pages_per_block = o.ssd.pages_per_block;
  o.fault.seed = 5;
  o.fault.program_fail_prob = 0.02;
  o.fault.erase_fail_prob = 0.05;
  o.fault.spare_blocks_per_plane = 2;
  // Random 4-page overwrites of half of a 2,048-page device: GC never
  // stops, and its victims still hold valid pages, so every copyback,
  // erase and retirement path runs.
  std::vector<IoRequest> reqs;
  SimTime at = 0;
  std::uint64_t lcg = 1;
  for (std::uint64_t i = 0; i < 6000; ++i) {
    at += 10 * kMicrosecond;
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    reqs.push_back(testing::write_req(i, ((lcg >> 33) % 256) * 4, 4, at));
  }
  VectorTraceSource trace(reqs, "gc-faults");
  return Simulator(o).run(trace);
}

constexpr std::initializer_list<EventKind> kGcKinds = {
    EventKind::kGcStart,    EventKind::kGcMove,      EventKind::kGcEnd,
    EventKind::kBlockErase, EventKind::kEraseFault,  EventKind::kBlockRetire,
    EventKind::kProgramRetry};

TEST(EventGoldenTest, GreedyGcUnderFaults) {
  const RunResult r = run_gc_under_faults(SsdConfig::GcVictimPolicy::kGreedy);
  EXPECT_EQ(stream_digest(r, kGcKinds), 0x0f10ce525b646736ULL);
}

TEST(EventGoldenTest, WearAwareGcUnderFaults) {
  const RunResult r =
      run_gc_under_faults(SsdConfig::GcVictimPolicy::kWearAware);
  EXPECT_EQ(stream_digest(r, kGcKinds), 0x6abb84d25f187e77ULL);
}

// --- Aging refreshes ---------------------------------------------------------

TEST(EventGoldenTest, AgingRefreshes) {
  SimOptions o = traced_options();
  o.fault.aging.rated_pe_cycles = 3;
  o.fault.aging.initial_pe_cycles = 2;
  o.fault.aging.read_disturb_limit = 8;
  o.fault.aging.retention_age_limit = 1 * kSecond;
  // Churn writes, a disturb-hammered page, then late reads of cold data
  // past the retention limit.
  std::vector<IoRequest> reqs;
  SimTime at = 0;
  std::uint64_t id = 0;
  for (; id < 400; ++id) {
    at += 50 * kMicrosecond;
    reqs.push_back(testing::write_req(id, (id * 4) % 2048, 4, at));
  }
  for (; id < 430; ++id) {
    at += 50 * kMicrosecond;
    reqs.push_back(testing::read_req(id, 0, 1, at));
  }
  at += 3 * kSecond;
  for (; id < 470; ++id) {
    at += 50 * kMicrosecond;
    reqs.push_back(testing::read_req(id, ((id - 430) * 32) % 2048, 1, at));
  }
  VectorTraceSource trace(reqs, "aging-mix");
  const RunResult r = Simulator(o).run(trace);
  EXPECT_EQ(stream_digest(r, {EventKind::kReadDisturbMigrate,
                              EventKind::kRetentionScrub,
                              EventKind::kWearThreshold,
                              EventKind::kBlockErase}),
            0xa374fbe9c7d04725ULL);
}

// --- Integrity recovery and patrol scrub -------------------------------------

TEST(EventGoldenTest, IntegrityRecoveryAndPatrolScrub) {
  SimOptions o = traced_options();
  o.fault.seed = 77;
  o.fault.aging.rated_pe_cycles = 5000;
  o.fault.aging.initial_pe_cycles = 4500;
  IntegrityPlan& in = o.fault.integrity;
  in.rber_base = 0.05;
  in.rber_pe_anchor = 5000;
  in.rber_pe_boost = 4.0;
  in.ecc_escape = 0.6;
  in.read_retry_steps = 1;
  in.retry_relief = 0.5;
  in.stripe_pages = 8;
  in.scrub_every_requests = 500;
  in.scrub_rber_threshold = 0.1;
  WorkloadProfile p;
  p.name = "integrity-mix";
  p.total_requests = 4000;
  p.seed = 13;
  p.write_ratio = 0.5;
  p.hot_extents = 96;
  p.cold_stream_pages = 1 << 14;
  p.mean_interarrival_ns = 140 * kMicrosecond;
  SyntheticTraceSource trace(p);
  const RunResult r = Simulator(o).run(trace);
  EXPECT_EQ(stream_digest(r, {EventKind::kEccCorrect,
                              EventKind::kReadRetryStep,
                              EventKind::kParityRebuild,
                              EventKind::kUncorrectable,
                              EventKind::kPatrolScrub}),
            0xdf35008d744b2157ULL);
}

// --- Tenants, admission queue, background flush, power loss ------------------

TEST(EventGoldenTest, TenantsUnderOverloadAndPowerLoss) {
  SimOptions o = traced_options();
  o.tenants.count = 3;
  o.tenants.arbiter = ArbiterKind::kDeficit;
  o.tenants.drr_quantum_pages = 8;
  TenantSpec noisy;
  noisy.weight = 1;
  noisy.rate = 3.0;
  noisy.burst_len = 150;
  noisy.burst_period = 900;
  noisy.burst_factor = 8.0;
  o.tenants.specs = {TenantSpec{.weight = 4}, TenantSpec{.weight = 2}, noisy};
  o.overload.queue_depth = 4;
  o.overload.deadline_ns = 3 * kMillisecond;
  o.overload.timeout_action = TimeoutAction::kRetry;
  o.overload.max_retries = 2;
  o.overload.retry_backoff_ns = 250 * kMicrosecond;
  o.overload.bg_flush_high = 0.8;
  o.overload.bg_flush_low = 0.6;
  o.overload.throttle = true;
  o.fault.seed = 9;
  o.fault.program_fail_prob = 0.01;
  o.fault.power_loss_every_requests = 900;
  ExperimentCase c;
  c.profile.name = "mt-base";
  c.profile.total_requests = 3000;
  c.profile.seed = 23;
  c.profile.write_ratio = 0.75;
  c.profile.hot_extents = 96;
  c.profile.cold_stream_pages = 1 << 15;
  c.profile.mean_interarrival_ns = 140 * kMicrosecond;
  c.options = o;
  c.label = "drr";
  const std::vector<RunResult> results = run_cases({c}, 1);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(stream_digest(results.front(), {EventKind::kQueueEnqueue,
                                            EventKind::kQueueTimeout,
                                            EventKind::kBgFlush,
                                            EventKind::kPowerLoss}),
            0x14048330bf6c26baULL);
}

}  // namespace
}  // namespace reqblock
