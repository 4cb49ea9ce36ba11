#include "ssd/ftl.h"

#include <gtest/gtest.h>

#include <vector>

#include "test_util.h"
#include "util/rng.h"

namespace reqblock {
namespace {

using testing::micro_ssd;
using testing::tiny_ssd;

TEST(FtlTest, UnmappedReadServedByController) {
  Ftl ftl(tiny_ssd());
  const auto rr = ftl.read_page(42, 1000);
  EXPECT_FALSE(rr.mapped);
  EXPECT_EQ(rr.version, 0u);
  EXPECT_EQ(rr.complete, 1000 + ftl.config().cache_access_latency);
  EXPECT_EQ(ftl.metrics().unmapped_reads, 1u);
  EXPECT_EQ(ftl.metrics().host_page_reads, 0u);
}

TEST(FtlTest, ProgramThenReadReturnsVersion) {
  Ftl ftl(tiny_ssd());
  ftl.program_page(7, 99, 0);
  const auto rr = ftl.read_page(7, 10 * kMillisecond);
  EXPECT_TRUE(rr.mapped);
  EXPECT_EQ(rr.version, 99u);
  EXPECT_EQ(ftl.metrics().host_page_writes, 1u);
  EXPECT_EQ(ftl.metrics().host_page_reads, 1u);
}

TEST(FtlTest, RewriteInvalidatesOldMapping) {
  Ftl ftl(tiny_ssd());
  ftl.program_page(7, 1, 0);
  ftl.program_page(7, 2, 0);
  EXPECT_EQ(ftl.mapped_pages(), 1u);
  EXPECT_EQ(ftl.version_of(7), 2u);
  const auto rr = ftl.read_page(7, 1 * kSecond);
  EXPECT_EQ(rr.version, 2u);
}

TEST(FtlTest, SingleWriteTiming) {
  const auto cfg = tiny_ssd();
  Ftl ftl(cfg);
  // Bus transfer then cell program, on idle resources.
  const SimTime done = ftl.program_page(0, 1, 1000);
  EXPECT_EQ(done, 1000 + cfg.page_transfer_time() + cfg.program_latency);
}

TEST(FtlTest, SingleReadTiming) {
  const auto cfg = tiny_ssd();
  Ftl ftl(cfg);
  ftl.program_page(0, 1, 0);
  const SimTime issue = 1 * kSecond;  // after the program finished
  const auto rr = ftl.read_page(0, issue);
  EXPECT_EQ(rr.complete, issue + cfg.read_latency + cfg.page_transfer_time());
}

TEST(FtlTest, StripedBatchExploitsChannelParallelism) {
  const auto cfg = tiny_ssd();  // 8 channels x 2 chips
  Ftl ftl(cfg);
  std::vector<FlushPage> batch;
  for (Lpn l = 0; l < 8; ++l) batch.push_back({l, 1});
  const SimTime done = ftl.program_batch(batch, 0, /*colocate=*/false);
  // All 8 pages hit distinct channels: finish within one program plus one
  // bus transfer each (transfers overlap programs across channels).
  EXPECT_LE(done, cfg.page_transfer_time() + cfg.program_latency +
                      8 * cfg.page_transfer_time());
  EXPECT_LT(done, 2 * cfg.program_latency);
}

TEST(FtlTest, ColocatedBatchConfinedToOneChannel) {
  const auto cfg = tiny_ssd();  // 2 chips per channel
  Ftl ftl(cfg);
  std::vector<FlushPage> batch;
  for (Lpn l = 0; l < 8; ++l) batch.push_back({l, 1});
  const SimTime done = ftl.program_batch(batch, 0, /*colocate=*/true);
  // The batch is striped over the channel's 2 chips only: 4 programs
  // back-to-back per chip.
  EXPECT_GE(done, 4 * cfg.program_latency);
  // And only that channel's resources were used.
  for (std::uint32_t ch = 1; ch < cfg.channels; ++ch) {
    EXPECT_EQ(ftl.channel_busy(ch), 0);
  }
  EXPECT_GT(ftl.channel_busy(0), 0);
}

TEST(FtlTest, ColocatedBatchFasterWhenStriped) {
  const auto cfg = tiny_ssd();
  Ftl striped_ftl(cfg), colocated_ftl(cfg);
  std::vector<FlushPage> batch;
  for (Lpn l = 0; l < 16; ++l) batch.push_back({l, 1});
  const SimTime striped = striped_ftl.program_batch(batch, 0, false);
  const SimTime colocated = colocated_ftl.program_batch(batch, 0, true);
  EXPECT_LT(striped * 4, colocated);
}

TEST(FtlTest, ChipQueueingDelaysSecondRead) {
  const auto cfg = tiny_ssd();
  Ftl ftl(cfg);
  // Two pages programmed to the same plane: colocated single-page batches
  // both start at the channel's first plane.
  std::vector<FlushPage> first{{0, 1}};
  std::vector<FlushPage> second{{1, 1}};
  ftl.program_batch(first, 0, true);
  const SimTime write_done = ftl.program_batch(second, 0, true);
  // Issue two reads at the same instant: the chip serializes the cell reads.
  const auto r1 = ftl.read_page(0, write_done);
  const auto r2 = ftl.read_page(1, write_done);
  EXPECT_GE(r2.complete, r1.complete + cfg.read_latency);
}

TEST(FtlTest, GcTriggersUnderPressureAndPreservesData) {
  const auto cfg = micro_ssd();  // 64 blocks/plane, 8 pages/block
  Ftl ftl(cfg);
  // Hammer a small logical range so most programmed pages invalidate
  // quickly; the plane must GC rather than exhaust.
  const std::uint64_t writes = cfg.pages_per_plane() * 3;
  std::uint64_t version = 0;
  for (std::uint64_t i = 0; i < writes; ++i) {
    const Lpn lpn = i % 64;
    ftl.program_page(lpn, ++version, static_cast<SimTime>(i));
  }
  EXPECT_GT(ftl.metrics().gc_runs, 0u);
  EXPECT_GT(ftl.metrics().erases, 0u);
  // All 64 logical pages must still be mapped with their latest versions.
  for (Lpn lpn = 0; lpn < 64; ++lpn) {
    ASSERT_TRUE(ftl.is_mapped(lpn));
    const auto rr = ftl.read_page(lpn, static_cast<SimTime>(writes) * 1000);
    ASSERT_TRUE(rr.mapped);
    // The most recent write to this lpn:
    const std::uint64_t expect =
        writes - 64 + lpn + 1;
    ASSERT_EQ(rr.version, expect);
  }
}

TEST(FtlTest, GcNeverLosesFreeBlocksEntirely) {
  const auto cfg = micro_ssd();
  Ftl ftl(cfg);
  const std::uint64_t writes = cfg.pages_per_plane() * 4;
  for (std::uint64_t i = 0; i < writes; ++i) {
    ftl.program_page(i % 32, i, 0);
  }
  for (std::uint32_t plane = 0; plane < cfg.total_planes(); ++plane) {
    EXPECT_GE(ftl.array().free_blocks(plane), 1u);
  }
}

TEST(FtlTest, WafAtLeastOneUnderPressure) {
  const auto cfg = micro_ssd();
  Ftl ftl(cfg);
  // Random rewrites over a ~60% footprint keep GC victims partially
  // valid, so GC actually has pages to move (a cyclic pattern would leave
  // every victim fully invalid).
  const std::uint64_t footprint = cfg.total_pages() * 6 / 10;
  Rng rng(123);
  for (std::uint64_t i = 0; i < cfg.pages_per_plane() * 3; ++i) {
    ftl.program_page(rng.next_below(footprint), i, 0);
  }
  EXPECT_GE(ftl.metrics().waf(), 1.0);
  EXPECT_GT(ftl.metrics().gc_page_moves, 0u);
}

TEST(FtlTest, RoundRobinStripesAcrossChannels) {
  const auto cfg = tiny_ssd();
  Ftl ftl(cfg);
  // 8 single-page programs must each land on a different channel: their
  // bus transfers overlap, so every channel's busy time equals exactly one
  // page transfer.
  for (Lpn l = 0; l < 8; ++l) ftl.program_page(l, 1, 0);
  for (std::uint32_t ch = 0; ch < cfg.channels; ++ch) {
    EXPECT_EQ(ftl.channel_busy(ch), cfg.page_transfer_time());
  }
}

// Host writes walk the planes channel-major: write i lands on channel
// i mod C, chip (i / C) mod K, plane (i / (C K)) mod P. Checked on the
// default geometry and on one whose channel and chip counts are not
// powers of two.
TEST(FtlTest, RoundRobinPlaneOrderMatchesFormula) {
  SsdConfig odd;
  odd.channels = 3;
  odd.chips_per_channel = 3;
  odd.planes_per_chip = 2;
  odd.pages_per_block = 6;
  odd.capacity_bytes = 3ULL * 3 * 2 * 12 * 6 * 4096;  // 12 blocks per plane
  odd.validate();
  for (const SsdConfig& cfg : {tiny_ssd(), odd}) {
    SCOPED_TRACE(cfg.channels);
    Ftl ftl(cfg);
    const std::uint64_t c = cfg.channels;
    const std::uint64_t k = cfg.chips_per_channel;
    const std::uint64_t planes = cfg.total_planes();
    std::vector<std::uint64_t> valid(planes, 0);
    for (std::uint64_t i = 0; i < 3 * planes + 5; ++i) {
      ftl.program_page(i, 1, 0);
      const std::uint64_t want =
          ((i % c) * k + (i / c) % k) * cfg.planes_per_chip +
          (i / (c * k)) % cfg.planes_per_chip;
      for (std::uint32_t p = 0; p < planes; ++p) {
        const std::uint64_t now = ftl.array().valid_page_count(p);
        ASSERT_EQ(now, valid[p] + (p == want ? 1 : 0))
            << "write " << i << " plane " << p;
        valid[p] = now;
      }
    }
  }
}

TEST(FtlTest, BatchMetricsCount) {
  Ftl ftl(tiny_ssd());
  std::vector<FlushPage> batch{{0, 1}, {1, 1}, {2, 1}};
  ftl.program_batch(batch, 0, false);
  EXPECT_EQ(ftl.metrics().host_page_writes, 3u);
}

TEST(FtlTest, EmptyBatchRejected) {
  Ftl ftl(tiny_ssd());
  std::vector<FlushPage> batch;
  EXPECT_THROW(ftl.program_batch(batch, 0, false), std::logic_error);
}

}  // namespace
}  // namespace reqblock
