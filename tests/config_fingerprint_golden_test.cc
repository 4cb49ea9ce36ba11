// Golden values of config_fingerprint.
//
// Checkpoints, run manifests and stored results are keyed by
// config_fingerprint(options): a resumed sweep finds its finished cases
// by that key, and a snapshot whose embedded fingerprint differs from the
// session's is refused. The value is therefore a contract across builds,
// like the snapshot bytes pinned in snapshot_golden_test.cc. Each case
// below sets every knob of one option block to a non-default value (the
// gated blocks: only that block enabled) and compares the fingerprint
// with a pinned value. A digest moves when a knob is added, dropped,
// reordered, or hashed with a different call — each of which silently
// orphans every stored result keyed by the old value.
//
// The FingerprintCovers cases list, by hand, one mutation per knob of the
// fault and telemetry blocks (the aging, integrity, overload and tenant
// blocks have theirs in the checkpoint tests): a knob missing from its
// knob table leaves the fingerprint unchanged and fails its line.
#include <gtest/gtest.h>

#include <cstdint>

#include "host/tenant.h"
#include "sim/session.h"

namespace reqblock {
namespace {

TEST(ConfigFingerprintGoldenTest, DefaultOptions) {
  EXPECT_EQ(config_fingerprint(SimOptions{}), 0x30e6f18e28a70883ULL);
}

TEST(ConfigFingerprintGoldenTest, FaultKnobsAlone) {
  SimOptions o;
  FaultPlan& f = o.fault;
  f.seed = 91;
  f.program_fail_prob = 0.0125;
  f.read_fail_prob = 0.00625;
  f.erase_fail_prob = 0.025;
  f.max_program_retries = 5;
  f.retry_backoff = 35 * kMicrosecond;
  f.spare_blocks_per_plane = 6;
  f.degraded_program_penalty = 150 * kMicrosecond;
  f.power_loss_every_requests = 4321;
  f.power_loss_downtime = 7 * kMillisecond;
  f.recovery_replay_per_page = 9 * kMicrosecond;
  EXPECT_EQ(config_fingerprint(o), 0xf737529b1c2af9c8ULL);
}

TEST(ConfigFingerprintGoldenTest, AgingEnabledAlone) {
  SimOptions o;
  AgingPlan& ag = o.fault.aging;
  ag.rated_pe_cycles = 3000;
  ag.wear_program_fail_max = 0.01;
  ag.wear_erase_fail_max = 0.02;
  ag.initial_pe_cycles = 2700;
  ag.read_disturb_limit = 64;
  ag.read_disturb_fail_max = 0.005;
  ag.retention_age_limit = 20 * kSecond;
  ag.retention_fail_max = 0.0025;
  ag.eol_free_block_floor = 5;
  ag.eol_exit_margin = 2;
  ag.eol_spare_floor = 3;
  EXPECT_EQ(config_fingerprint(o), 0xb2931bb02ec0f12eULL);
}

TEST(ConfigFingerprintGoldenTest, IntegrityEnabledAlone) {
  SimOptions o;
  IntegrityPlan& in = o.fault.integrity;
  in.rber_base = 0.02;
  in.rber_pe_anchor = 3000;
  in.rber_pe_boost = 4.0;
  in.rber_read_anchor = 256;
  in.rber_read_boost = 1.5;
  in.rber_age_anchor = 750 * kMillisecond;
  in.rber_age_boost = 0.5;
  in.ecc_escape = 0.1;
  in.read_retry_steps = 4;
  in.retry_relief = 0.3;
  in.retry_step_latency = 45 * kMicrosecond;
  in.stripe_pages = 8;
  in.uncorrectable_shed = true;
  in.scrub_every_requests = 500;
  in.scrub_time_budget = 3 * kMillisecond;
  in.scrub_rber_threshold = 0.1;
  in.scrub_error_limit = 6;
  EXPECT_EQ(config_fingerprint(o), 0x3ad603821b7f9596ULL);
}

TEST(ConfigFingerprintGoldenTest, ThreeDrrTenantsWithSpecsEnabledAlone) {
  SimOptions o;
  TenantOptions& t = o.tenants;
  t.count = 3;
  t.arbiter = ArbiterKind::kDeficit;
  t.drr_quantum_pages = 8;
  // Two specs for three tenants: the third is padded with the default.
  t.specs = {{4, 1.0, 0, 0, 8.0}, {2, 2.5, 500, 2500, 6.0}};
  EXPECT_EQ(config_fingerprint(o), 0x62e90176ba2493fbULL);
}

TEST(ConfigFingerprintGoldenTest, OverloadEnabledAlone) {
  SimOptions o;
  OverloadOptions& ov = o.overload;
  ov.queue_depth = 48;
  ov.deadline_ns = 5 * kMillisecond;
  ov.timeout_action = TimeoutAction::kRetry;
  ov.max_retries = 2;
  ov.retry_backoff_ns = 200 * kMicrosecond;
  ov.bg_flush_high = 0.85;
  ov.bg_flush_low = 0.6;
  ov.throttle = true;
  ov.throttle_headroom_blocks = 6;
  ov.throttle_max_delay_ns = 3 * kMillisecond;
  EXPECT_EQ(config_fingerprint(o), 0x369b24a3857b502cULL);
}

TEST(ConfigFingerprintGoldenTest, TelemetryEnabledAlone) {
  SimOptions o;
  TelemetryOptions& t = o.telemetry;
  t.trace.level = TraceLevel::kAll;
  t.trace.capacity = 4096;
  t.trace.sample_period = 3;
  t.snapshot_every_requests = 1000;
  t.snapshot_every_ns = 250 * kMillisecond;
  t.profile = true;
  t.attribution = true;
  EXPECT_EQ(config_fingerprint(o), 0x6dfd22dffd4e66cdULL);
}

// The benchmark's soak-full cell: every block on at once.
TEST(ConfigFingerprintGoldenTest, SoakFullEveryBlockOn) {
  SimOptions o = make_sim_options("reqblock", 8);
  o.ssd.capacity_bytes = 2ULL << 30;
  TenantOptions& t = o.tenants;
  t.count = 3;
  t.arbiter = ArbiterKind::kDeficit;
  t.drr_quantum_pages = 8;
  t.specs = {{4, 1.0, 0, 0, 8.0}, {2, 1.0, 0, 0, 8.0},
             {1, 4.0, 500, 2500, 8.0}};
  OverloadOptions& ov = o.overload;
  ov.queue_depth = 48;
  ov.deadline_ns = 5 * kMillisecond;
  ov.timeout_action = TimeoutAction::kRetry;
  ov.max_retries = 2;
  ov.retry_backoff_ns = 200 * kMicrosecond;
  ov.throttle = true;
  ov.bg_flush_high = 0.85;
  ov.bg_flush_low = 0.6;
  FaultPlan& f = o.fault;
  f.seed = 43;
  f.program_fail_prob = 0.005;
  f.power_loss_every_requests = 9000;
  f.aging.rated_pe_cycles = 3000;
  f.aging.initial_pe_cycles = 2700;
  f.aging.wear_program_fail_max = 0.01;
  f.aging.wear_erase_fail_max = 0.02;
  IntegrityPlan& in = f.integrity;
  in.rber_base = 0.02;
  in.rber_pe_anchor = 3000;
  in.rber_pe_boost = 4;
  in.ecc_escape = 0.1;
  in.read_retry_steps = 3;
  in.stripe_pages = 8;
  in.scrub_every_requests = 500;
  in.scrub_rber_threshold = 0.1;
  o.telemetry.attribution = true;
  EXPECT_EQ(config_fingerprint(o), 0x76a940be03a13916ULL);
}

TEST(ConfigFingerprintTest, FingerprintCoversEveryFaultKnob) {
  SimOptions base;
  base.fault.program_fail_prob = 0.01;
  base.fault.power_loss_every_requests = 5000;
  const std::uint64_t h = config_fingerprint(base);
  const auto differs = [&](auto mutate) {
    SimOptions o = base;
    mutate(o.fault);
    EXPECT_NE(config_fingerprint(o), h);
  };
  differs([](FaultPlan& f) { f.seed += 1; });
  differs([](FaultPlan& f) { f.program_fail_prob = 0.02; });
  differs([](FaultPlan& f) { f.read_fail_prob = 0.01; });
  differs([](FaultPlan& f) { f.erase_fail_prob = 0.01; });
  differs([](FaultPlan& f) { f.max_program_retries += 1; });
  differs([](FaultPlan& f) { f.retry_backoff += 1; });
  differs([](FaultPlan& f) { f.spare_blocks_per_plane += 1; });
  differs([](FaultPlan& f) { f.degraded_program_penalty += 1; });
  differs([](FaultPlan& f) { f.power_loss_every_requests += 1; });
  differs([](FaultPlan& f) { f.power_loss_downtime += 1; });
  differs([](FaultPlan& f) { f.recovery_replay_per_page += 1; });
}

TEST(ConfigFingerprintTest, FingerprintCoversEveryTelemetryKnob) {
  SimOptions base;
  base.telemetry.trace.level = TraceLevel::kCache;
  const std::uint64_t h = config_fingerprint(base);
  const auto differs = [&](auto mutate) {
    SimOptions o = base;
    mutate(o.telemetry);
    EXPECT_NE(config_fingerprint(o), h);
  };
  differs([](TelemetryOptions& t) { t.trace.level = TraceLevel::kAll; });
  differs([](TelemetryOptions& t) { t.trace.capacity += 1; });
  differs([](TelemetryOptions& t) { t.trace.sample_period += 1; });
  differs([](TelemetryOptions& t) { t.snapshot_every_requests += 1; });
  differs([](TelemetryOptions& t) { t.snapshot_every_ns += 1; });
  differs([](TelemetryOptions& t) { t.profile = true; });
  differs([](TelemetryOptions& t) { t.attribution = true; });
}

}  // namespace
}  // namespace reqblock
