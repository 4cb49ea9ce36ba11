#include "ssd/config.h"

#include <gtest/gtest.h>

namespace reqblock {
namespace {

TEST(SsdConfigTest, PaperDefaultMatchesTable1) {
  const auto cfg = SsdConfig::paper_default();
  EXPECT_EQ(cfg.channels, 8u);
  EXPECT_EQ(cfg.chips_per_channel, 2u);
  EXPECT_EQ(cfg.pages_per_block, 64u);
  EXPECT_EQ(cfg.page_size, 4096u);
  EXPECT_EQ(cfg.capacity_bytes, 128ULL << 30);
  EXPECT_EQ(cfg.read_latency, 75 * kMicrosecond);
  EXPECT_EQ(cfg.program_latency, 2 * kMillisecond);
  EXPECT_EQ(cfg.erase_latency, 15 * kMillisecond);
  EXPECT_EQ(cfg.transfer_per_byte, 10);
  EXPECT_DOUBLE_EQ(cfg.gc_free_threshold, 0.10);
}

TEST(SsdConfigTest, DerivedGeometry) {
  const auto cfg = SsdConfig::paper_default();
  EXPECT_EQ(cfg.total_chips(), 16u);
  EXPECT_EQ(cfg.total_planes(), 16u);
  EXPECT_EQ(cfg.total_pages(), (128ULL << 30) / 4096);
  EXPECT_EQ(cfg.total_blocks(), cfg.total_pages() / 64);
  EXPECT_EQ(cfg.blocks_per_plane() * cfg.total_planes(), cfg.total_blocks());
}

TEST(SsdConfigTest, PageTransferTimeIncludesCommandOverhead) {
  const auto cfg = SsdConfig::paper_default();
  EXPECT_EQ(cfg.page_transfer_time(), 4096 * 10 + cfg.command_overhead);
}

TEST(SsdConfigTest, GcThresholdBlocksIsTenPercent) {
  const auto cfg = SsdConfig::paper_default();
  const auto expected = static_cast<std::uint64_t>(
      cfg.blocks_per_plane() / 10);
  EXPECT_NEAR(static_cast<double>(cfg.gc_threshold_blocks()),
              static_cast<double>(expected), 1.0);
}

TEST(SsdConfigTest, GcThresholdNeverBelowTwo) {
  SsdConfig cfg;
  cfg.capacity_bytes = 16ULL * 64 * 16 * 4096;  // 16 blocks per plane
  cfg.gc_free_threshold = 0.01;
  EXPECT_EQ(cfg.gc_threshold_blocks(), 2u);
}

TEST(SsdConfigTest, ValidationRejectsBadGeometry) {
  SsdConfig cfg = SsdConfig::paper_default();
  cfg.channels = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = SsdConfig::paper_default();
  cfg.capacity_bytes += 1;  // not page aligned
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = SsdConfig::paper_default();
  cfg.page_size = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = SsdConfig::paper_default();
  cfg.gc_free_threshold = 0.9;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = SsdConfig::paper_default();
  cfg.read_latency = -1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(SsdConfigTest, ExperimentDefaultKeepsGeometryRatios) {
  const auto exp = SsdConfig::experiment_default();
  const auto paper = SsdConfig::paper_default();
  EXPECT_EQ(exp.channels, paper.channels);
  EXPECT_EQ(exp.chips_per_channel, paper.chips_per_channel);
  EXPECT_EQ(exp.pages_per_block, paper.pages_per_block);
  EXPECT_EQ(exp.read_latency, paper.read_latency);
  EXPECT_EQ(exp.program_latency, paper.program_latency);
  EXPECT_LT(exp.capacity_bytes, paper.capacity_bytes);
}

TEST(SsdConfigTest, ValidationCapsPhysicalPagesAtThe32BitPpnLimit) {
  // The L2P table stores 32-bit PPNs with 2^32 - 1 as its unmapped
  // sentinel, so a device may hold at most 2^32 - 1 pages.
  SsdConfig cfg = SsdConfig::paper_default();
  cfg.page_size = 4096;
  cfg.capacity_bytes = (1ULL << 32) * 4096;  // 2^32 pages: one too many
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.capacity_bytes = ((1ULL << 32) - 1024) * 4096;  // 16 TiB less 4 MiB
  EXPECT_NO_THROW(cfg.validate());

  // The 128 GiB paper default (33.5M pages) and the 32 GiB experiment
  // default stay well inside the limit.
  EXPECT_EQ(SsdConfig::paper_default().total_pages(), 33554432u);
  EXPECT_NO_THROW(SsdConfig::paper_default().validate());
  EXPECT_NO_THROW(SsdConfig::experiment_default().validate());
}

}  // namespace
}  // namespace reqblock
