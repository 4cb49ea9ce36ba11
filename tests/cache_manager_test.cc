#include "cache/cache_manager.h"

#include <gtest/gtest.h>

#include "fault/fault.h"
#include "snapshot/snapshot.h"
#include "test_util.h"
#include "util/audit.h"

namespace reqblock {
namespace {

using testing::Harness;
using testing::policy_config;
using testing::read_req;
using testing::write_req;

TEST(CacheManagerTest, WriteInsertsCountedNotHits) {
  Harness h(policy_config("lru", 16));
  h.serve(write_req(0, 0, 4));
  const auto& m = h.cache->metrics();
  EXPECT_EQ(m.page_lookups, 4u);
  EXPECT_EQ(m.page_hits, 0u);
  EXPECT_EQ(m.inserts, 4u);
  EXPECT_EQ(h.cache->cached_pages(), 4u);
}

TEST(CacheManagerTest, RewriteIsWriteHit) {
  Harness h(policy_config("lru", 16));
  h.serve(write_req(0, 0, 4));
  h.serve(write_req(1, 0, 4));
  const auto& m = h.cache->metrics();
  EXPECT_EQ(m.write_hits, 4u);
  EXPECT_EQ(m.page_hits, 4u);
  EXPECT_EQ(h.cache->cached_pages(), 4u);
}

TEST(CacheManagerTest, ReadHitServedFromDram) {
  Harness h(policy_config("lru", 16));
  h.serve(write_req(0, 0, 2));
  const SimTime done = h.serve(read_req(1, 0, 2, 5 * kSecond));
  EXPECT_EQ(done, 5 * kSecond + h.ftl.config().cache_access_latency);
  EXPECT_EQ(h.cache->metrics().read_hits, 2u);
  EXPECT_EQ(h.ftl.metrics().host_page_reads, 0u);
}

TEST(CacheManagerTest, ReadMissGoesToFlash) {
  Harness h(policy_config("lru", 16));
  h.serve(read_req(0, 100, 1));
  const auto& m = h.cache->metrics();
  EXPECT_EQ(m.read_misses, 1u);
  EXPECT_EQ(m.page_hits, 0u);
  // Unmapped page: controller-served, no insert (write buffer).
  EXPECT_EQ(h.cache->cached_pages(), 0u);
  EXPECT_EQ(h.ftl.metrics().unmapped_reads, 1u);
}

TEST(CacheManagerTest, CapacityNeverExceeded) {
  Harness h(policy_config("lru", 8));
  for (std::uint64_t i = 0; i < 100; ++i) {
    h.serve(write_req(i, i * 10, 3, static_cast<SimTime>(i) * kSecond));
    ASSERT_LE(h.cache->cached_pages(), 8u);
  }
}

TEST(CacheManagerTest, EvictionFlushesDirtyPagesToFlash) {
  Harness h(policy_config("lru", 4));
  h.serve(write_req(0, 0, 4));
  EXPECT_EQ(h.ftl.metrics().host_page_writes, 0u);
  h.serve(write_req(1, 100, 4, kSecond));
  // LRU evicted four pages one by one; all were dirty.
  EXPECT_EQ(h.ftl.metrics().host_page_writes, 4u);
  EXPECT_EQ(h.cache->metrics().evictions, 4u);
  EXPECT_EQ(h.cache->metrics().flushed_pages, 4u);
}

TEST(CacheManagerTest, EvictedPageReadableFromFlashWithLatestVersion) {
  Harness h(policy_config("lru", 4));
  h.serve(write_req(0, 0, 4));
  h.serve(write_req(1, 0, 4, kSecond));         // rewrite (v2)
  h.serve(write_req(2, 100, 4, 2 * kSecond));   // evicts lpns 0..3
  // Read-your-writes through the flash path; verify_consistency would
  // throw inside serve() on a mismatch.
  h.serve(read_req(3, 0, 4, 10 * kSecond));
  EXPECT_EQ(h.cache->metrics().read_misses, 4u);
  EXPECT_EQ(h.ftl.metrics().host_page_reads, 4u);
}

TEST(CacheManagerTest, WriteMissWaitsForEvictionFlush) {
  Harness h(policy_config("lru", 1));
  h.serve(write_req(0, 0, 1));
  const SimTime done = h.serve(write_req(1, 1, 1, 0));
  // The insert had to wait for the evicted page's program.
  const auto& cfg = h.ftl.config();
  EXPECT_GE(done, cfg.page_transfer_time() + cfg.program_latency);
}

TEST(CacheManagerTest, WriteHitIsFast) {
  Harness h(policy_config("lru", 16));
  h.serve(write_req(0, 0, 1));
  const SimTime at = 7 * kSecond;
  const SimTime done = h.serve(write_req(1, 0, 1, at));
  EXPECT_EQ(done, at + h.ftl.config().cache_access_latency);
}

TEST(CacheManagerTest, EvictionBatchHistogramRecorded) {
  Harness h(policy_config("lru", 2));
  for (std::uint64_t i = 0; i < 10; ++i) {
    h.serve(write_req(i, i * 5, 1));
  }
  const auto& m = h.cache->metrics();
  EXPECT_EQ(m.eviction_batch.count(), m.evictions);
  EXPECT_DOUBLE_EQ(m.eviction_batch.mean(), 1.0);  // LRU evicts one page
}

TEST(CacheManagerTest, InsertsTrackedByRequestSize) {
  Harness h(policy_config("lru", 64));
  h.serve(write_req(0, 0, 3));
  h.serve(write_req(1, 100, 7));
  const auto& m = h.cache->metrics();
  EXPECT_EQ(m.inserts_by_req_size[3], 3u);
  EXPECT_EQ(m.inserts_by_req_size[7], 7u);
}

TEST(CacheManagerTest, HitsAttributedToInsertingRequestSize) {
  Harness h(policy_config("lru", 64));
  h.serve(write_req(0, 0, 3));
  h.serve(read_req(1, 0, 2, kSecond));  // hits 2 pages inserted by size-3 req
  const auto& m = h.cache->metrics();
  EXPECT_EQ(m.hits_by_req_size[3], 2u);
}

TEST(CacheManagerTest, ReuseStatsAfterFinalize) {
  Harness h(policy_config("lru", 64));
  h.serve(write_req(0, 0, 4));
  h.serve(read_req(1, 0, 1, kSecond));  // one of four pages reused
  h.cache->finalize();
  const auto& m = h.cache->metrics();
  EXPECT_EQ(m.pages_retired_by_req_size[4], 4u);
  EXPECT_EQ(m.pages_reused_by_req_size[4], 1u);
}

TEST(CacheManagerTest, OversizedRequestSizesBucketZero) {
  CacheOptions opts;
  opts.capacity_pages = 2048;
  Harness h(policy_config("lru", 2048), testing::tiny_ssd(), opts);
  h.serve(write_req(0, 0, 300));  // above max_tracked_request_pages (256)
  EXPECT_EQ(h.cache->metrics().inserts_by_req_size[0], 300u);
}

TEST(CacheManagerTest, CacheReadsModeAdmitsCleanPages) {
  CacheOptions opts;
  opts.cache_reads = true;
  Harness h(policy_config("cflru", 16), testing::tiny_ssd(), opts);
  // Write + evict so the page lives on flash only.
  h.serve(write_req(0, 0, 1));
  for (std::uint64_t i = 1; i <= 16; ++i) {
    h.serve(write_req(i, 1000 + i * 10, 1, static_cast<SimTime>(i) * kSecond));
  }
  EXPECT_EQ(h.cache->cached_pages(), 16u);
  // A read miss now inserts the page as clean.
  h.serve(read_req(20, 0, 1, 100 * kSecond));
  EXPECT_EQ(h.cache->metrics().read_misses, 1u);
  // The page is cached now; a second read hits.
  h.serve(read_req(21, 0, 1, 101 * kSecond));
  EXPECT_EQ(h.cache->metrics().read_hits, 1u);
}

TEST(CacheManagerTest, CleanEvictionDoesNotFlush) {
  CacheOptions opts;
  opts.cache_reads = true;
  Harness h(policy_config("lru", 2), testing::tiny_ssd(), opts);
  // Put a page on flash, then cache it cleanly via a read.
  h.serve(write_req(0, 0, 1));
  h.serve(write_req(1, 10, 1, kSecond));
  h.serve(write_req(2, 20, 1, 2 * kSecond));  // evicts lpn 0 to flash
  const auto writes_before_read = h.ftl.metrics().host_page_writes;
  h.serve(read_req(3, 0, 1, 3 * kSecond));    // miss; admitted clean
  // Fill to force eviction of something; if the clean page is evicted it
  // must not be programmed again.
  h.serve(write_req(4, 30, 1, 4 * kSecond));
  h.serve(write_req(5, 40, 1, 5 * kSecond));
  const auto& m = h.cache->metrics();
  EXPECT_EQ(m.flushed_pages + m.bypass_pages,
            h.ftl.metrics().host_page_writes);
  EXPECT_GE(h.ftl.metrics().host_page_writes, writes_before_read);
}

TEST(CacheManagerTest, ZeroPageRequestRejected) {
  Harness h(policy_config("lru", 4));
  IoRequest bad = write_req(0, 0, 1);
  bad.pages = 0;
  EXPECT_THROW(h.serve(bad), std::logic_error);
}

TEST(CacheManagerTest, FlushedPagesMatchFlashWrites) {
  Harness h(policy_config("lru", 8));
  for (std::uint64_t i = 0; i < 50; ++i) {
    h.serve(write_req(i, (i * 3) % 40, 2, static_cast<SimTime>(i) * kSecond));
  }
  const auto& m = h.cache->metrics();
  EXPECT_EQ(m.flushed_pages + m.bypass_pages + m.padding_pages,
            h.ftl.metrics().host_page_writes);
}

::testing::AssertionResult AuditsClean(const CacheManager& cache) {
  AuditReport report("CacheManager");
  cache.audit(report, AuditLevel::kFull);
  if (report.ok()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << report.to_string();
}

// A miss is decided by the presence map, so the map must follow every way
// into the resident set (write, read admission, restore) and every way out
// (eviction, power loss); the full audit compares the two after each.
TEST(CacheManagerTest, PresenceMapFollowsEveryAdmissionAndRelease) {
  CacheOptions opts;
  opts.cache_reads = true;
  Harness h(policy_config("lru", 4), testing::tiny_ssd(), opts);
  h.serve(write_req(0, 0, 4));
  ASSERT_TRUE(AuditsClean(*h.cache));
  h.serve(write_req(1, 0, 4, kSecond));
  EXPECT_EQ(h.cache->metrics().write_hits, 4u);

  h.serve(write_req(2, 10, 1, 2 * kSecond));  // evicts lpn 0
  ASSERT_TRUE(AuditsClean(*h.cache));
  h.serve(read_req(3, 0, 1, 3 * kSecond));  // miss, admitted clean
  EXPECT_EQ(h.cache->metrics().read_misses, 1u);
  ASSERT_TRUE(AuditsClean(*h.cache));
  h.serve(read_req(4, 0, 1, 4 * kSecond));
  EXPECT_EQ(h.cache->metrics().read_hits, 1u);
  h.serve(read_req(5, 1, 1, 5 * kSecond));  // lpn 1 made room for lpn 0
  EXPECT_EQ(h.cache->metrics().read_misses, 2u);
  ASSERT_TRUE(AuditsClean(*h.cache));

  // A restored manager finds exactly the pages the saved one held.
  SnapshotWriter w;
  h.cache->serialize(w);
  const std::string bytes = w.take();
  Harness restored(policy_config("lru", 4), testing::tiny_ssd(), opts);
  SnapshotReader r(bytes);
  restored.cache->deserialize(r);
  ASSERT_TRUE(AuditsClean(*restored.cache));
  SnapshotWriter again;
  restored.cache->serialize(again);
  EXPECT_EQ(again.take(), bytes);
  const std::uint64_t hits = restored.cache->metrics().page_hits;
  restored.serve(read_req(6, 0, 1, 6 * kSecond));
  EXPECT_EQ(restored.cache->metrics().page_hits, hits + 1);

  // Power loss empties the map with the resident set: lpn 0 (clean, so
  // flash still holds its version) misses again.
  FaultPlan plan;
  plan.power_loss_every_requests = 1;  // any schedule; fired manually
  FaultInjector injector(plan);
  const SimTime up = h.cache->power_loss(7 * kSecond, injector);
  EXPECT_EQ(h.cache->cached_pages(), 0u);
  ASSERT_TRUE(AuditsClean(*h.cache));
  h.serve(read_req(7, 0, 1, up));
  EXPECT_EQ(h.cache->metrics().read_misses, 3u);
}

}  // namespace
}  // namespace reqblock
