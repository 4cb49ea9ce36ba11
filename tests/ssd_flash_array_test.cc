#include "ssd/flash_array.h"

#include <gtest/gtest.h>

#include <set>

#include "test_util.h"

namespace reqblock {
namespace {

using testing::micro_ssd;

TEST(FlashArrayTest, ProgramReturnsUniquePpns) {
  FlashArray arr(micro_ssd());
  std::set<Ppn> seen;
  for (int i = 0; i < 100; ++i) {
    const Ppn p = arr.program(0, static_cast<Lpn>(i));
    EXPECT_TRUE(seen.insert(p).second) << "duplicate ppn " << p;
  }
}

TEST(FlashArrayTest, ProgramFillsBlockSequentially) {
  const auto cfg = micro_ssd();
  FlashArray arr(cfg);
  const AddressMap& amap = arr.address_map();
  PhysAddr prev = amap.to_addr(arr.program(0, 0));
  for (std::uint32_t i = 1; i < cfg.pages_per_block; ++i) {
    const PhysAddr cur = amap.to_addr(arr.program(0, i));
    EXPECT_EQ(cur.block, prev.block);
    EXPECT_EQ(cur.page, prev.page + 1);
    prev = cur;
  }
  // Next program opens a new block.
  const PhysAddr next = amap.to_addr(arr.program(0, 100));
  EXPECT_NE(next.block, prev.block);
  EXPECT_EQ(next.page, 0u);
}

TEST(FlashArrayTest, StateTransitions) {
  FlashArray arr(micro_ssd());
  const Ppn p = arr.program(0, 42);
  EXPECT_EQ(arr.state(p), PageState::kValid);
  EXPECT_EQ(arr.lpn_at(p), 42u);
  arr.invalidate(p);
  EXPECT_EQ(arr.state(p), PageState::kInvalid);
}

TEST(FlashArrayTest, DoubleInvalidateRejected) {
  FlashArray arr(micro_ssd());
  const Ppn p = arr.program(0, 1);
  arr.invalidate(p);
  EXPECT_THROW(arr.invalidate(p), std::logic_error);
}

TEST(FlashArrayTest, FreeBlocksDecreaseAsPlanesFill) {
  const auto cfg = micro_ssd();
  FlashArray arr(cfg);
  const auto initial = arr.free_blocks(0);
  EXPECT_EQ(initial, cfg.blocks_per_plane());
  arr.program(0, 0);
  EXPECT_EQ(arr.free_blocks(0), initial - 1);  // active block allocated
  // Filling the active block does not consume more.
  for (std::uint32_t i = 1; i < cfg.pages_per_block; ++i) arr.program(0, i);
  EXPECT_EQ(arr.free_blocks(0), initial - 1);
  arr.program(0, 99);
  EXPECT_EQ(arr.free_blocks(0), initial - 2);
}

TEST(FlashArrayTest, PlanesAreIndependent) {
  const auto cfg = micro_ssd();
  FlashArray arr(cfg);
  arr.program(0, 0);
  EXPECT_EQ(arr.free_blocks(1), cfg.blocks_per_plane());
  EXPECT_EQ(arr.valid_page_count(0), 1u);
  EXPECT_EQ(arr.valid_page_count(1), 0u);
}

TEST(FlashArrayTest, GcVictimHasMostInvalids) {
  const auto cfg = micro_ssd();  // 8 pages per block
  FlashArray arr(cfg);
  // Fill two blocks; invalidate 2 pages of the first, 5 of the second.
  std::vector<Ppn> first, second;
  for (std::uint32_t i = 0; i < cfg.pages_per_block; ++i) {
    first.push_back(arr.program(0, i));
  }
  for (std::uint32_t i = 0; i < cfg.pages_per_block; ++i) {
    second.push_back(arr.program(0, 100 + i));
  }
  arr.program(0, 999);  // open a third block so neither victim is active
  for (int i = 0; i < 2; ++i) arr.invalidate(first[static_cast<std::size_t>(i)]);
  for (int i = 0; i < 5; ++i) arr.invalidate(second[static_cast<std::size_t>(i)]);

  const std::uint32_t victim = arr.pick_gc_victim(0);
  ASSERT_NE(victim, FlashArray::kNoBlock);
  const AddressMap& amap = arr.address_map();
  EXPECT_EQ(victim, amap.to_addr(second[0]).block);
}

TEST(FlashArrayTest, GcVictimNeverActiveBlock) {
  const auto cfg = micro_ssd();
  FlashArray arr(cfg);
  // Only the active block has pages; invalidate one.
  const Ppn p = arr.program(0, 1);
  arr.program(0, 2);
  arr.invalidate(p);
  EXPECT_EQ(arr.pick_gc_victim(0), FlashArray::kNoBlock);
}

TEST(FlashArrayTest, NoVictimWhenNothingInvalid) {
  FlashArray arr(micro_ssd());
  arr.program(0, 1);
  EXPECT_EQ(arr.pick_gc_victim(0), FlashArray::kNoBlock);
}

TEST(FlashArrayTest, ValidPagesListsExactlyTheValidOnes) {
  const auto cfg = micro_ssd();
  FlashArray arr(cfg);
  std::vector<Ppn> ppns;
  for (std::uint32_t i = 0; i < cfg.pages_per_block; ++i) {
    ppns.push_back(arr.program(0, i));
  }
  arr.invalidate(ppns[0]);
  arr.invalidate(ppns[3]);
  const AddressMap& amap = arr.address_map();
  const std::uint32_t block = amap.to_addr(ppns[0]).block;
  std::vector<Ppn> valid;
  arr.for_each_valid_page(0, block, [&](Ppn p, Lpn lpn, std::uint64_t) {
    EXPECT_EQ(arr.state(p), PageState::kValid);
    EXPECT_EQ(arr.lpn_at(p), lpn);
    valid.push_back(p);
  });
  EXPECT_EQ(valid.size(), cfg.pages_per_block - 2);
  EXPECT_EQ(arr.valid_count(0, block), cfg.pages_per_block - 2);
}

TEST(FlashArrayTest, EraseRecyclesBlock) {
  const auto cfg = micro_ssd();
  FlashArray arr(cfg);
  std::vector<Ppn> ppns;
  for (std::uint32_t i = 0; i < cfg.pages_per_block; ++i) {
    ppns.push_back(arr.program(0, i));
  }
  arr.program(0, 50);  // move active elsewhere
  for (const Ppn p : ppns) arr.invalidate(p);
  const std::uint32_t block = arr.address_map().to_addr(ppns[0]).block;
  const auto free_before = arr.free_blocks(0);
  arr.erase_block(0, block);
  EXPECT_EQ(arr.free_blocks(0), free_before + 1);
  EXPECT_EQ(arr.erase_count(0, block), 1u);
  EXPECT_EQ(arr.total_erases(), 1u);
  EXPECT_EQ(arr.state(ppns[0]), PageState::kFree);
}

TEST(FlashArrayTest, EraseWithValidPagesRejected) {
  const auto cfg = micro_ssd();
  FlashArray arr(cfg);
  const Ppn p = arr.program(0, 1);
  arr.program(0, 2);
  const std::uint32_t block = arr.address_map().to_addr(p).block;
  EXPECT_THROW(arr.erase_block(0, block), std::logic_error);
}

TEST(FlashArrayTest, StaleGcHeapEntriesSkippedAfterErase) {
  const auto cfg = micro_ssd();
  FlashArray arr(cfg);
  std::vector<Ppn> ppns;
  for (std::uint32_t i = 0; i < cfg.pages_per_block; ++i) {
    ppns.push_back(arr.program(0, i));
  }
  arr.program(0, 77);  // new active
  for (const Ppn p : ppns) arr.invalidate(p);
  const std::uint32_t block = arr.address_map().to_addr(ppns[0]).block;
  EXPECT_EQ(arr.pick_gc_victim(0), block);
  arr.erase_block(0, block);
  // The erased block's stale heap entries must not be returned again.
  EXPECT_EQ(arr.pick_gc_victim(0), FlashArray::kNoBlock);
}

TEST(FlashArrayTest, ProgramAfterExhaustionRejected) {
  SsdConfig cfg = micro_ssd();
  FlashArray arr(cfg);
  const std::uint64_t total =
      cfg.blocks_per_plane() * cfg.pages_per_block;
  for (std::uint64_t i = 0; i < total; ++i) {
    arr.program(0, i % 1000);
  }
  EXPECT_THROW(arr.program(0, 0), std::logic_error);
}

TEST(FlashArrayTest, LpnTooLargeRejected) {
  FlashArray arr(micro_ssd());
  EXPECT_THROW(arr.program(0, 1ULL << 40), std::logic_error);
}

}  // namespace
}  // namespace reqblock
