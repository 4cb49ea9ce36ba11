// GC victim-selection policies: greedy vs wear-aware tie-breaking.
#include <gtest/gtest.h>

#include "ssd/flash_array.h"
#include "ssd/ftl.h"
#include "test_util.h"
#include "util/rng.h"

namespace reqblock {
namespace {

using testing::micro_ssd;

/// Fills two blocks in plane 0 and invalidates `inv_a`/`inv_b` pages of
/// each; returns their block indices (a filled first).
std::pair<std::uint32_t, std::uint32_t> two_victims(FlashArray& arr,
                                                    int inv_a, int inv_b) {
  const auto& cfg = arr.config();
  std::vector<Ppn> a, b;
  for (std::uint32_t i = 0; i < cfg.pages_per_block; ++i) {
    a.push_back(arr.program(0, i));
  }
  for (std::uint32_t i = 0; i < cfg.pages_per_block; ++i) {
    b.push_back(arr.program(0, 100 + i));
  }
  arr.program(0, 999);  // fresh active block
  for (int i = 0; i < inv_a; ++i) {
    arr.invalidate(a[static_cast<std::size_t>(i)]);
  }
  for (int i = 0; i < inv_b; ++i) {
    arr.invalidate(b[static_cast<std::size_t>(i)]);
  }
  const AddressMap& amap = arr.address_map();
  return {amap.to_addr(a[0]).block, amap.to_addr(b[0]).block};
}

TEST(GcPolicyTest, GreedyPicksMostInvalidRegardlessOfWear) {
  SsdConfig cfg = micro_ssd();
  cfg.gc_victim_policy = SsdConfig::GcVictimPolicy::kGreedy;
  FlashArray arr(cfg);
  const auto [block_a, block_b] = two_victims(arr, 3, 5);
  EXPECT_EQ(arr.pick_gc_victim(0), block_b);
}

TEST(GcPolicyTest, WearAwareBreaksNearTiesTowardLowErase) {
  SsdConfig cfg = micro_ssd();
  cfg.gc_victim_policy = SsdConfig::GcVictimPolicy::kWearAware;
  cfg.gc_wear_tie_margin = 2;
  FlashArray arr(cfg);
  // Pre-wear: cycle a few blocks twice. Every programmed page is
  // invalidated immediately, so all non-active blocks become fully
  // invalid and erasable.
  for (int round = 0; round < 2; ++round) {
    std::vector<Ppn> pages;
    for (std::uint32_t i = 0; i < cfg.pages_per_block * 4; ++i) {
      pages.push_back(arr.program(0, i));
    }
    for (const Ppn p : pages) arr.invalidate(p);
    while (true) {
      const auto victim = arr.pick_gc_victim(0);
      if (victim == FlashArray::kNoBlock) break;
      if (arr.valid_count(0, victim) != 0) break;
      arr.erase_block(0, victim);
    }
  }

  // Now create two candidates: worn block with 6 invalids vs fresh block
  // with 5 invalids (within margin 2). Wear-aware picks the fresh one.
  const auto [block_a, block_b] = two_victims(arr, 6, 5);
  const std::uint32_t wear_a = arr.erase_count(0, block_a);
  const std::uint32_t wear_b = arr.erase_count(0, block_b);
  const std::uint32_t victim = arr.pick_gc_victim(0);
  if (wear_a > wear_b) {
    EXPECT_EQ(victim, block_b);
  } else if (wear_b > wear_a) {
    EXPECT_EQ(victim, block_a);
  } else {
    // Equal wear: falls back to most-invalid.
    EXPECT_EQ(victim, block_a);
  }
}

TEST(GcPolicyTest, WearAwareIgnoresCandidatesOutsideMargin) {
  SsdConfig cfg = micro_ssd();
  cfg.gc_victim_policy = SsdConfig::GcVictimPolicy::kWearAware;
  cfg.gc_wear_tie_margin = 1;
  FlashArray arr(cfg);
  // 7 vs 3 invalids: outside margin 1, so greedy choice stands even if
  // the greedy victim were more worn.
  const auto [block_a, block_b] = two_victims(arr, 7, 3);
  EXPECT_EQ(arr.pick_gc_victim(0), block_a);
}

TEST(GcPolicyTest, WearAwareHeapStaysConsistent) {
  SsdConfig cfg = micro_ssd();
  cfg.gc_victim_policy = SsdConfig::GcVictimPolicy::kWearAware;
  FlashArray arr(cfg);
  two_victims(arr, 5, 5);
  // Repeated picks without state change return the same victim (the
  // scan must restore the heap).
  const auto first = arr.pick_gc_victim(0);
  const auto second = arr.pick_gc_victim(0);
  EXPECT_EQ(first, second);
}

TEST(GcPolicyTest, WearAwareFullPressureRunReducesWearSpread) {
  // Under sustained pressure, wear-aware victim selection should not
  // increase the erase-count spread compared to greedy.
  auto run = [](SsdConfig::GcVictimPolicy policy) {
    SsdConfig cfg = micro_ssd();
    cfg.gc_victim_policy = policy;
    Ftl ftl(cfg);
    Rng rng(42);
    const std::uint64_t footprint = cfg.total_pages() * 6 / 10;
    for (std::uint64_t i = 0; i < cfg.total_pages() * 6; ++i) {
      ftl.program_page(rng.next_below(footprint), i, 0);
    }
    return ftl.array().wear_stats();
  };
  const auto greedy = run(SsdConfig::GcVictimPolicy::kGreedy);
  const auto wear_aware = run(SsdConfig::GcVictimPolicy::kWearAware);
  EXPECT_GT(greedy.blocks_touched, 0u);
  EXPECT_LE(wear_aware.max_erases - wear_aware.min_erases,
            greedy.max_erases - greedy.min_erases + 2);
}

}  // namespace
}  // namespace reqblock
