// Randomized property sweeps of the Req-block policy driven standalone
// (no cache manager): structural invariants must hold under arbitrary
// interleavings of inserts, hits and evictions, across deltas and modes.
#include <gtest/gtest.h>

#include <set>
#include <unordered_map>
#include <unordered_set>

#include "core/req_block_policy.h"
#include "test_util.h"
#include "util/rng.h"

namespace reqblock {
namespace {

using testing::write_req;

struct SweepParam {
  std::uint32_t delta;
  bool merge;
  FreqMode mode;
  std::uint64_t seed;
};

class ReqBlockSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ReqBlockSweep, StructuralInvariantsUnderChurn) {
  const auto param = GetParam();
  ReqBlockOptions opts;
  opts.delta = param.delta;
  opts.merge_on_evict = param.merge;
  opts.freq_mode = param.mode;
  ReqBlockPolicy policy(opts);

  Rng rng(param.seed);
  std::unordered_set<Lpn> cached;  // reference model of residency
  constexpr std::uint64_t kCapacity = 64;
  constexpr Lpn kSpace = 512;

  for (std::uint64_t reqid = 1; reqid <= 2000; ++reqid) {
    const Lpn base = rng.next_below(kSpace);
    const auto pages =
        static_cast<std::uint32_t>(rng.next_in(1, 12));
    const IoRequest req = write_req(reqid, base, pages);
    policy.begin_request(req);
    for (std::uint32_t i = 0; i < pages; ++i) {
      const Lpn lpn = (base + i) % kSpace;
      if (cached.contains(lpn)) {
        policy.on_hit(lpn, req, true);
      } else {
        while (cached.size() >= kCapacity) {
          const auto victim = policy.select_victim();
          if (victim.empty()) break;  // guarded-only state
          for (const Lpn v : victim.pages) {
            ASSERT_TRUE(cached.erase(v) == 1)
                << "policy evicted a page it does not hold";
          }
        }
        if (cached.size() >= kCapacity) continue;  // bypass
        policy.on_insert(lpn, req, true);
        cached.insert(lpn);
      }
      // Core invariants after every step.
      ASSERT_EQ(policy.pages(), cached.size());
      const auto occ = policy.occupancy();
      ASSERT_EQ(occ.total_pages(), cached.size());
      ASSERT_EQ(occ.irl_blocks + occ.srl_blocks + occ.drl_blocks,
                policy.block_count());
    }
  }

  // Every cached page must resolve to a block that agrees on membership.
  for (const Lpn lpn : cached) {
    const ReqBlock* b = policy.block_of(lpn);
    ASSERT_NE(b, nullptr);
    bool found = false;
    for (const Lpn p : policy.pages_of(*b)) found = found || p == lpn;
    ASSERT_TRUE(found);
  }
}

TEST_P(ReqBlockSweep, SrlBlocksNeverExceedDelta) {
  const auto param = GetParam();
  ReqBlockOptions opts;
  opts.delta = param.delta;
  opts.merge_on_evict = param.merge;
  opts.freq_mode = param.mode;
  ReqBlockPolicy policy(opts);

  Rng rng(param.seed ^ 0xabcdef);
  std::unordered_set<Lpn> cached;
  for (std::uint64_t reqid = 1; reqid <= 800; ++reqid) {
    const Lpn base = rng.next_below(256);
    const auto pages = static_cast<std::uint32_t>(rng.next_in(1, 10));
    const IoRequest req = write_req(reqid, base, pages);
    policy.begin_request(req);
    for (std::uint32_t i = 0; i < pages; ++i) {
      const Lpn lpn = base + i;
      if (cached.contains(lpn)) {
        policy.on_hit(lpn, req, true);
        const ReqBlock* b = policy.block_of(lpn);
        ASSERT_NE(b, nullptr);
        if (b->level == ReqList::kSRL) {
          ASSERT_LE(b->page_count(), param.delta);
        }
      } else {
        if (cached.size() >= 48) {
          const auto victim = policy.select_victim();
          if (!victim.empty()) {
            for (const Lpn v : victim.pages) cached.erase(v);
          } else {
            continue;
          }
        }
        policy.on_insert(lpn, req, true);
        cached.insert(lpn);
      }
    }
  }
}

TEST_P(ReqBlockSweep, EvictionAlwaysMakesProgressWhenUnguarded) {
  const auto param = GetParam();
  ReqBlockOptions opts;
  opts.delta = param.delta;
  opts.merge_on_evict = param.merge;
  opts.freq_mode = param.mode;
  ReqBlockPolicy policy(opts);

  // Insert several complete requests; then eviction (outside any request)
  // must be able to drain the policy completely.
  Rng rng(param.seed + 17);
  std::uint64_t inserted = 0;
  Lpn next = 0;
  for (std::uint64_t reqid = 1; reqid <= 50; ++reqid) {
    const auto pages = static_cast<std::uint32_t>(rng.next_in(1, 9));
    const IoRequest req = write_req(reqid, next, pages);
    policy.begin_request(req);
    for (std::uint32_t i = 0; i < pages; ++i) {
      policy.on_insert(next++, req, true);
      ++inserted;
    }
  }
  // New request context releases the guards.
  policy.begin_request(write_req(1000, 1 << 20, 1));
  std::uint64_t drained = 0;
  while (policy.pages() > 0) {
    const auto victim = policy.select_victim();
    ASSERT_FALSE(victim.empty()) << "pages remain but no victim";
    drained += victim.pages.size();
  }
  EXPECT_EQ(drained, inserted);
  EXPECT_EQ(policy.block_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    DeltaMergeModeMatrix, ReqBlockSweep,
    ::testing::Values(
        SweepParam{1, true, FreqMode::kFull, 11},
        SweepParam{2, true, FreqMode::kFull, 12},
        SweepParam{5, true, FreqMode::kFull, 13},
        SweepParam{5, false, FreqMode::kFull, 14},
        SweepParam{9, true, FreqMode::kFull, 15},
        SweepParam{5, true, FreqMode::kNoTime, 16},
        SweepParam{5, true, FreqMode::kNoSize, 17},
        SweepParam{5, true, FreqMode::kCountOnly, 18},
        SweepParam{3, false, FreqMode::kNoTime, 19},
        SweepParam{64, true, FreqMode::kFull, 20}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      std::string mode;
      switch (info.param.mode) {
        case FreqMode::kFull: mode = "full"; break;
        case FreqMode::kNoTime: mode = "notime"; break;
        case FreqMode::kNoSize: mode = "nosize"; break;
        case FreqMode::kCountOnly: mode = "countonly"; break;
      }
      return "delta" + std::to_string(info.param.delta) +
             (info.param.merge ? "_merge_" : "_nomerge_") + mode + "_s" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace reqblock
