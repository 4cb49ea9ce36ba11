// Steady-state eviction allocates nothing. Every policy's select_victim()
// fills buffers that the policy owns and reuses, Req-block threads its
// pages through its page table, and CacheManager reuses one flush buffer,
// so once a run has held its largest batch, an eviction touches no heap.
//
// Each case warms a policy up on a seeded random workload, then counts the
// global operator new calls of the next 10k eviction-and-refill cycles.
// The policy cases count inside select_victim() only: the refill's
// on_insert still grows the per-group vectors of BPLRU, FAB and VBBMS and
// the node-based maps of FAB's count index and LFU's frequency classes.
// The CacheManager cases count whole serve() calls, FTL programs and
// garbage collection included: they run on the micro device, which the
// warm-up has written through, so its lazily built per-block tables are
// complete and GC runs throughout.
//
// This file replaces the global operator new with a counting one
// (alloc_counter.h), so it builds into its own test binary.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "cache/cache_manager.h"
#include "cache/policy_factory.h"
#include "test_util.h"
#include "util/audit.h"
#include "util/rng.h"

namespace reqblock::testing {
namespace {

constexpr std::uint64_t kCapacity = 256;
constexpr std::uint64_t kLpnSpace = 4 * kCapacity;
constexpr std::uint32_t kPagesPerBlock = 16;
constexpr std::uint32_t kMaxRequestPages = 8;
constexpr std::uint64_t kWarmupEvictions = 5'000;
constexpr std::uint64_t kMeasuredEvictions = 10'000;

/// Audits build reports and scratch tables, and the suite may run under
/// REQBLOCK_AUDIT=full, so the measured cycles run with audits off.
class AuditsOff {
 public:
  AuditsOff() : previous_(set_audit_level(AuditLevel::kOff)) {}
  ~AuditsOff() { set_audit_level(previous_); }
  AuditsOff(const AuditsOff&) = delete;
  AuditsOff& operator=(const AuditsOff&) = delete;

 private:
  AuditLevel previous_;
};

/// A request of 1..kMaxRequestPages pages inside the LPN space; one in
/// five reads.
IoRequest draw_request(Rng& rng, std::uint64_t id, SimTime at) {
  const auto pages =
      static_cast<std::uint32_t>(rng.next_in(1, kMaxRequestPages));
  const Lpn lpn = rng.next_below(kLpnSpace - pages + 1);
  return rng.next_below(5) == 0 ? read_req(id, lpn, pages, at)
                                : write_req(id, lpn, pages, at);
}

struct PolicyRun {
  std::uint64_t evictions = 0;
  std::uint64_t victim_allocations = 0;  // over the measured evictions
};

/// Drives `policy` like a cache manager that admits reads: a resident
/// page is a hit, any other page is admitted after evicting while the
/// policy's occupancy is at capacity.
PolicyRun run_policy(WriteBufferPolicy& policy, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<bool> cached(kLpnSpace, false);
  PolicyRun run;
  for (std::uint64_t id = 1;
       run.evictions < kWarmupEvictions + kMeasuredEvictions; ++id) {
    const IoRequest req = draw_request(rng, id, 0);
    policy.begin_request(req);
    for (std::uint32_t i = 0; i < req.pages; ++i) {
      const Lpn lpn = req.lpn + i;
      if (cached[lpn]) {
        policy.on_hit(lpn, req, req.is_write());
        continue;
      }
      bool room = true;
      while (policy.occupied_pages() >= kCapacity) {
        const std::uint64_t before = allocations();
        const VictimBatch batch = policy.select_victim();
        const std::uint64_t made = allocations() - before;
        if (batch.empty()) {
          room = false;  // everything left is the in-flight request's
          break;
        }
        if (run.evictions >= kWarmupEvictions) {
          run.victim_allocations += made;
        }
        ++run.evictions;
        for (const Lpn evicted : batch.pages) cached[evicted] = false;
      }
      if (!room) continue;
      policy.on_insert(lpn, req, req.is_write());
      cached[lpn] = true;
    }
  }
  return run;
}

class PolicyEvictionAllocTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(PolicyEvictionAllocTest, SteadyStateSelectVictimAllocatesNothing) {
  const AuditsOff audits_off;
  const auto policy =
      make_policy(policy_config(GetParam(), kCapacity, kPagesPerBlock));
  const PolicyRun run = run_policy(*policy, 0xA110C);
  EXPECT_GE(run.evictions, kWarmupEvictions + kMeasuredEvictions);
  EXPECT_EQ(run.victim_allocations, 0u)
      << policy->name() << " allocated in select_victim after warm-up";
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyEvictionAllocTest,
                         ::testing::ValuesIn(known_policy_names()));

// BPLRU's page padding lists the victim block's missing pages through a
// reused scratch mask.
TEST(PolicyEvictionAllocTest, BplruPagePaddingAllocatesNothing) {
  const AuditsOff audits_off;
  BplruOptions opts;
  opts.page_padding = true;
  BplruPolicy policy(kPagesPerBlock, opts);
  const PolicyRun run = run_policy(policy, 0xB10C);
  EXPECT_EQ(run.victim_allocations, 0u);
}

struct ManagerRun {
  std::uint64_t serve_allocations = 0;  // over the measured evictions
  std::uint64_t gc_runs = 0;            // likewise
};

/// Serves writes and reads through a CacheManager one at a time until it
/// has made the warm-up and then the measured evictions.
ManagerRun run_manager(const std::string& policy_name) {
  Harness h(policy_config(policy_name, kCapacity, kPagesPerBlock),
            micro_ssd());
  Rng rng(0x5E7E);
  SimTime at = 0;
  ManagerRun run;
  bool measuring = false;
  std::uint64_t gc_before = 0;
  for (std::uint64_t id = 1;; ++id) {
    const std::uint64_t evictions = h.cache->metrics().evictions;
    if (evictions >= kWarmupEvictions + kMeasuredEvictions) break;
    if (!measuring && evictions >= kWarmupEvictions) {
      measuring = true;
      gc_before = h.ftl.metrics().gc_runs;
    }
    const IoRequest req = draw_request(rng, id, at);
    const std::uint64_t before = allocations();
    at = std::max(at, h.serve(req));
    const std::uint64_t made = allocations() - before;
    if (measuring) run.serve_allocations += made;
  }
  run.gc_runs = h.ftl.metrics().gc_runs - gc_before;
  return run;
}

TEST(ManagerEvictionAllocTest, ReqBlockServeAllocatesNothing) {
  const AuditsOff audits_off;
  const ManagerRun run = run_manager("reqblock");
  EXPECT_GT(run.gc_runs, 0u);
  EXPECT_EQ(run.serve_allocations, 0u);
}

TEST(ManagerEvictionAllocTest, LruServeAllocatesNothing) {
  const AuditsOff audits_off;
  const ManagerRun run = run_manager("lru");
  EXPECT_GT(run.gc_runs, 0u);
  EXPECT_EQ(run.serve_allocations, 0u);
}

}  // namespace
}  // namespace reqblock::testing
