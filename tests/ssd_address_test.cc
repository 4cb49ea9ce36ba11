#include "ssd/address.h"

#include <gtest/gtest.h>

namespace reqblock {
namespace {

/// 2 x 2 x 2 planes, 8 blocks of 4 pages: every divisor a power of two.
SsdConfig tiny_pow2_geometry() {
  SsdConfig cfg;
  cfg.channels = 2;
  cfg.chips_per_channel = 2;
  cfg.planes_per_chip = 2;
  cfg.pages_per_block = 4;
  cfg.capacity_bytes = 2ULL * 2 * 2 * 8 * 4 * 4096;  // 8 blocks per plane
  cfg.validate();
  return cfg;
}

/// 3 channels x 3 chips x 2 planes, 12 blocks of 6 pages: chips per
/// channel, pages per block and pages per plane are not powers of two, so
/// the address map takes its division path.
SsdConfig tiny_odd_geometry() {
  SsdConfig cfg;
  cfg.channels = 3;
  cfg.chips_per_channel = 3;
  cfg.planes_per_chip = 2;
  cfg.pages_per_block = 6;
  cfg.capacity_bytes = 3ULL * 3 * 2 * 12 * 6 * 4096;  // 12 blocks per plane
  cfg.validate();
  return cfg;
}

TEST(AddressMapTest, RoundTripAllCorners) {
  const auto cfg = SsdConfig::paper_default();
  const AddressMap amap(cfg);
  const PhysAddr corners[] = {
      {0, 0, 0, 0, 0},
      {7, 1, 0, static_cast<std::uint32_t>(cfg.blocks_per_plane() - 1), 63},
      {3, 0, 0, 17, 5},
      {0, 1, 0, 0, 63},
  };
  for (const auto& a : corners) {
    const Ppn ppn = amap.to_ppn(a);
    EXPECT_EQ(amap.to_addr(ppn), a);
  }
}

TEST(AddressMapTest, PpnZeroIsFirstPage) {
  const auto cfg = SsdConfig::paper_default();
  const AddressMap amap(cfg);
  const PhysAddr a = amap.to_addr(0);
  EXPECT_EQ(a.channel, 0u);
  EXPECT_EQ(a.chip, 0u);
  EXPECT_EQ(a.block, 0u);
  EXPECT_EQ(a.page, 0u);
}

TEST(AddressMapTest, RoundTripExhaustiveOnTinyGeometry) {
  for (const SsdConfig& cfg : {tiny_pow2_geometry(), tiny_odd_geometry()}) {
    SCOPED_TRACE(cfg.channels);
    const AddressMap amap(cfg);
    for (Ppn ppn = 0; ppn < cfg.total_pages(); ++ppn) {
      const PhysAddr a = amap.to_addr(ppn);
      ASSERT_EQ(amap.to_ppn(a), ppn);
      ASSERT_LT(a.channel, cfg.channels);
      ASSERT_LT(a.chip, cfg.chips_per_channel);
      ASSERT_LT(a.plane, cfg.planes_per_chip);
      ASSERT_LT(a.block, cfg.blocks_per_plane());
      ASSERT_LT(a.page, cfg.pages_per_block);
      // The flat numbering, spelled out.
      const Ppn plane = (static_cast<Ppn>(a.channel) * cfg.chips_per_channel +
                         a.chip) * cfg.planes_per_chip + a.plane;
      ASSERT_EQ((plane * cfg.blocks_per_plane() + a.block) *
                        cfg.pages_per_block + a.page,
                ppn);
      const PageLoc loc = amap.locate(ppn);
      ASSERT_EQ(loc.plane, plane);
      ASSERT_EQ(loc.block, a.block);
      ASSERT_EQ(loc.page, a.page);
      ASSERT_EQ(amap.page_of(ppn), a.page);
    }
  }
}

TEST(AddressMapTest, PlaneOfMatchesToAddr) {
  for (const SsdConfig& cfg :
       {SsdConfig::paper_default(), tiny_odd_geometry()}) {
    SCOPED_TRACE(cfg.channels);
    const AddressMap amap(cfg);
    for (const Ppn ppn : {Ppn{0}, Ppn{1000}, cfg.total_pages() / 3,
                          cfg.total_pages() - 1}) {
      const PhysAddr a = amap.to_addr(ppn);
      EXPECT_EQ(amap.plane_of(ppn), amap.plane_global(a));
      EXPECT_EQ(amap.chip_global(amap.plane_of(ppn)),
                a.channel * cfg.chips_per_channel + a.chip);
      EXPECT_EQ(amap.channel_of_plane(amap.plane_of(ppn)), a.channel);
    }
  }
}

TEST(AddressMapTest, ChannelAndChipDerivation) {
  const auto cfg = SsdConfig::paper_default();
  const AddressMap amap(cfg);
  // Plane 0 -> chip 0, channel 0; plane for channel 3, chip 1:
  const std::uint32_t plane =
      (3 * cfg.chips_per_channel + 1) * cfg.planes_per_chip;
  EXPECT_EQ(amap.channel_of_plane(plane), 3u);
  EXPECT_EQ(amap.chip_global(plane), 3u * cfg.chips_per_channel + 1);
}

TEST(AddressMapTest, ConsecutivePpnsShareBlockUntilBoundary) {
  const auto cfg = SsdConfig::paper_default();
  const AddressMap amap(cfg);
  const PhysAddr a0 = amap.to_addr(0);
  const PhysAddr a63 = amap.to_addr(63);
  const PhysAddr a64 = amap.to_addr(64);
  EXPECT_EQ(a0.block, a63.block);
  EXPECT_NE(a63.block, a64.block);
  EXPECT_EQ(a64.page, 0u);
}

}  // namespace
}  // namespace reqblock
