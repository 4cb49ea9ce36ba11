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
//
// The every-subsystem payload also feeds a truncation sweep: no prefix of
// it may restore. The same sessions check the snapshot_bytes() bounds
// that SimulationSession::serialize reserves its layers by.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cache/policy_factory.h"
#include "host/tenant.h"
#include "sim/session.h"
#include "snapshot/snapshot.h"
#include "telemetry/trace_buffer.h"
#include "test_util.h"
#include "trace/synthetic.h"
#include "util/audit.h"
#include "util/rng.h"

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
SimOptions every_subsystem_options() {
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
  return o;
}

WorkloadProfile every_subsystem_profile() {
  WorkloadProfile p = golden_profile(0.6);
  p.mean_interarrival_ns = 600 * kMicrosecond;
  return p;
}

TEST(SnapshotGoldenTest, ReqBlockWithEverySubsystem) {
  const SimOptions o = every_subsystem_options();
  TenantStreams streams =
      make_tenant_streams(every_subsystem_profile(), o.tenants);
  SimulationSession session(o, streams.sources);
  EXPECT_EQ(digest_mid_run(session), 0x0f2222ab1716009dULL);
}

// Every prefix of a full-session payload is refused with SnapshotError:
// cut at every byte of its first and last 4 KB, within 16 bytes of every
// section tag, and at a seeded sample elsewhere. Each prefix is copied
// into an allocation of exactly its size, so a read past the cut is an
// AddressSanitizer report, not a read of the bytes that were cut off:
// the oracle for the reader's bounds checks.
TEST(SnapshotTruncationTest, EveryPrefixOfAFullSessionIsRefused) {
  const SimOptions o = every_subsystem_options();
  const WorkloadProfile p = every_subsystem_profile();
  std::string payload;
  {
    TenantStreams streams = make_tenant_streams(p, o.tenants);
    SimulationSession session(o, streams.sources);
    while (session.served() < kStopAt && session.step()) {
    }
    SnapshotWriter w;
    session.serialize(w);
    payload = w.take();
  }
  const std::size_t size = payload.size();
  ASSERT_GT(size, 16'384u);

  std::vector<std::size_t> cuts;
  for (std::size_t n = 0; n < 4096; ++n) {
    cuts.push_back(n);
    cuts.push_back(size - 1 - n);
  }
  // A tag is the 0xA5 sentinel, a 4-byte length and a lower-case name.
  std::size_t tags = 0;
  for (std::size_t at = 0; at + 5 < size; ++at) {
    if (static_cast<unsigned char>(payload[at]) != 0xA5) continue;
    std::uint32_t len = 0;
    std::memcpy(&len, payload.data() + at + 1, 4);
    if (len == 0 || len > 32 || at + 5 + len > size) continue;
    const std::string_view name(payload.data() + at + 5, len);
    if (name.find_first_not_of("abcdefghijklmnopqrstuvwxyz_") !=
        std::string_view::npos) {
      continue;
    }
    ++tags;
    for (std::size_t d = 0; d <= 32; ++d) {
      if (at + d >= 16 && at + d - 16 < size) cuts.push_back(at + d - 16);
    }
  }
  EXPECT_GE(tags, 20u);
  Rng rng(0x7c7);
  for (int i = 0; i < 1500; ++i) cuts.push_back(rng.next_below(size));
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  // Thousands of restores into fresh sessions: run them at the program's
  // default audit level, whatever REQBLOCK_AUDIT asks of the suite.
  struct LightAuditScope {
    AuditLevel previous = set_audit_level(AuditLevel::kLight);
    ~LightAuditScope() { set_audit_level(previous); }
  } light_audits;
  std::size_t refused = 0;
  for (const std::size_t n : cuts) {
    const auto prefix = std::make_unique<char[]>(n);
    std::memcpy(prefix.get(), payload.data(), n);
    TenantStreams streams = make_tenant_streams(p, o.tenants);
    SimulationSession restored(o, streams.sources);
    SnapshotReader reader(std::string_view(prefix.get(), n));
    try {
      restored.deserialize(reader);
      ADD_FAILURE() << "a " << n << "-byte prefix of a " << size
                    << "-byte payload was accepted";
    } catch (const SnapshotError&) {
      ++refused;
    }
  }
  EXPECT_EQ(refused, cuts.size());
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

// SimulationSession::serialize reserves layer_snapshot_bytes() before its
// cache section, so the tables that make up most of a long run's payload
// are written without reallocating the buffer. That bound must cover the
// bytes from the cache section's tag to the end of the payload.
std::size_t layer_bytes_written(SimulationSession& session) {
  while (session.served() < kStopAt && session.step()) {
  }
  SnapshotWriter w;
  session.serialize(w);
  const std::string& payload = w.buffer();
  // The "cache" tag: the sentinel, the name's length and the name.
  const std::string tag("\xA5\x05\0\0\0cache", 10);
  const std::size_t at = payload.find(tag);
  EXPECT_NE(at, std::string::npos);
  return payload.size() - at;
}

TEST(SnapshotSizeTest, LayerReservationCoversTheLayers) {
  {
    SCOPED_TRACE("every subsystem, events traced");
    SimOptions o = every_subsystem_options();
    o.telemetry.trace.level = TraceLevel::kAll;
    TenantStreams streams =
        make_tenant_streams(every_subsystem_profile(), o.tenants);
    SimulationSession session(o, streams.sources);
    const std::size_t written = layer_bytes_written(session);
    EXPECT_LE(written, session.layer_snapshot_bytes());
  }
  for (const auto policy : {SsdConfig::GcVictimPolicy::kGreedy,
                            SsdConfig::GcVictimPolicy::kWearAware}) {
    SCOPED_TRACE("GC active");
    SyntheticTraceSource trace(gc_profile());
    SimulationSession session(gc_options(policy), trace);
    const std::size_t written = layer_bytes_written(session);
    EXPECT_LE(written, session.layer_snapshot_bytes());
  }
  for (const std::string& policy : known_policy_names()) {
    SCOPED_TRACE(policy);
    SyntheticTraceSource trace(golden_profile(0.7));
    SimulationSession session(small_options(policy), trace);
    const std::size_t written = layer_bytes_written(session);
    EXPECT_LE(written, session.layer_snapshot_bytes());
  }
}

// Each layer's bound against its own section alone, where no slack in
// another layer's bound can hide an overrun: every policy holding mostly
// one-page requests (a Req-block block of one page is the largest
// per-page record a policy writes) on an FTL that has collected, and an
// event ring. The cache's bound is exact but for the policy's section,
// and the event ring's is exact.
TEST(SnapshotSizeTest, EachLayerBoundsItsOwnSection) {
  for (const std::string& policy : known_policy_names()) {
    SCOPED_TRACE(policy);
    testing::Harness h(testing::policy_config(policy, 96, 8),
                       testing::micro_ssd());
    Rng rng(11);
    for (std::uint64_t i = 0; i < 4000; ++i) {
      const std::uint32_t pages = i % 5 == 0 ? 3 : 1;
      h.serve(testing::write_req(i, rng.next_below(1200), pages,
                                 static_cast<SimTime>(i) * kMillisecond));
    }
    EXPECT_GT(h.ftl.metrics().gc_page_moves, 0u);
    SnapshotWriter cache;
    h.cache->serialize(cache);
    SnapshotWriter policy_section;
    h.cache->policy().serialize(policy_section);
    const std::size_t policy_bound =
        WriteBufferPolicy::kSnapshotHeaderBytes +
        WriteBufferPolicy::kSnapshotBytesPerPage * h.cache->cached_pages();
    EXPECT_LE(policy_section.buffer().size(), policy_bound);
    EXPECT_EQ(cache.buffer().size() - policy_section.buffer().size(),
              h.cache->snapshot_bytes() - policy_bound);
    SnapshotWriter ftl;
    h.ftl.serialize(ftl);
    EXPECT_LE(ftl.buffer().size(), h.ftl.snapshot_bytes());
  }
  TraceBuffer events({TraceLevel::kAll, 64, 1});
  for (std::uint64_t i = 0; i < 100; ++i) {
    events.emit(TraceEvent{.at = static_cast<SimTime>(i), .lpn = i});
  }
  SnapshotWriter w;
  events.serialize(w);
  EXPECT_EQ(w.buffer().size(), events.snapshot_bytes());
}

}  // namespace
}  // namespace reqblock
