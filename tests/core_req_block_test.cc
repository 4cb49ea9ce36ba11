#include "core/req_block_policy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "snapshot/snapshot.h"
#include "test_util.h"
#include "util/audit.h"

namespace reqblock {
namespace {

using testing::read_req;
using testing::write_req;

ReqBlockOptions delta(std::uint32_t d) {
  ReqBlockOptions o;
  o.delta = d;
  return o;
}

/// Drives a whole write request through the policy the way the manager
/// would: begin_request, then per page on_insert (assumes all miss).
void insert_request(ReqBlockPolicy& p, const IoRequest& req) {
  p.begin_request(req);
  for (std::uint32_t i = 0; i < req.pages; ++i) {
    p.on_insert(req.lpn + i, req, true);
  }
}

/// Drives a request whose pages all hit.
void hit_request(ReqBlockPolicy& p, const IoRequest& req,
                 bool is_write = false) {
  p.begin_request(req);
  for (std::uint32_t i = 0; i < req.pages; ++i) {
    p.on_hit(req.lpn + i, req, is_write);
  }
}

TEST(ReqBlockPolicyTest, InsertCreatesOneBlockPerRequestInIRL) {
  ReqBlockPolicy p(delta(5));
  insert_request(p, write_req(1, 0, 4));
  EXPECT_EQ(p.block_count(), 1u);
  const ReqBlock* b = p.block_of(0);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->level, ReqList::kIRL);
  EXPECT_EQ(b->page_count(), 4u);
  EXPECT_EQ(b->access_cnt, 1u);
  EXPECT_EQ(p.block_of(3), b);
  EXPECT_EQ(p.pages(), 4u);
}

TEST(ReqBlockPolicyTest, DistinctRequestsGetDistinctBlocks) {
  ReqBlockPolicy p(delta(5));
  insert_request(p, write_req(1, 0, 2));
  insert_request(p, write_req(2, 100, 2));
  EXPECT_EQ(p.block_count(), 2u);
  EXPECT_NE(p.block_of(0), p.block_of(100));
}

TEST(ReqBlockPolicyTest, HitOnSmallBlockPromotesToSRL) {
  ReqBlockPolicy p(delta(5));
  insert_request(p, write_req(1, 0, 3));
  hit_request(p, read_req(2, 0, 3));
  const ReqBlock* b = p.block_of(0);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->level, ReqList::kSRL);
  // One access_cnt++ per page hit.
  EXPECT_EQ(b->access_cnt, 4u);
  const auto occ = p.occupancy();
  EXPECT_EQ(occ.srl_pages, 3u);
  EXPECT_EQ(occ.irl_pages, 0u);
}

TEST(ReqBlockPolicyTest, BoundaryDeltaBlockIsSmall) {
  ReqBlockPolicy p(delta(5));
  insert_request(p, write_req(1, 0, 5));  // exactly delta
  hit_request(p, read_req(2, 0, 1));
  EXPECT_EQ(p.block_of(0)->level, ReqList::kSRL);
}

TEST(ReqBlockPolicyTest, HitOnLargeBlockSplitsToDRL) {
  ReqBlockPolicy p(delta(5));
  insert_request(p, write_req(1, 0, 10));  // large
  hit_request(p, read_req(2, 2, 3));       // hit pages 2..4
  const ReqBlock* split = p.block_of(2);
  ASSERT_NE(split, nullptr);
  EXPECT_EQ(split->level, ReqList::kDRL);
  EXPECT_EQ(split->page_count(), 3u);
  EXPECT_EQ(split->access_cnt, 1u);  // initialized to 1, per the paper
  // Origin keeps the unhit 7 pages, still in IRL.
  const ReqBlock* origin = p.block_of(0);
  ASSERT_NE(origin, nullptr);
  EXPECT_NE(origin, split);
  EXPECT_EQ(origin->level, ReqList::kIRL);
  EXPECT_EQ(origin->page_count(), 7u);
  EXPECT_EQ(split->origin_id, origin->block_id);
  EXPECT_EQ(p.pages(), 10u);
}

TEST(ReqBlockPolicyTest, SplitPagesFromOneRequestShareOneDrlBlock) {
  ReqBlockPolicy p(delta(2));
  insert_request(p, write_req(1, 0, 8));
  hit_request(p, read_req(2, 0, 4));  // four pages split out together
  const ReqBlock* split = p.block_of(0);
  EXPECT_EQ(split->page_count(), 4u);
  EXPECT_EQ(p.block_of(3), split);
  EXPECT_EQ(p.block_count(), 2u);
}

TEST(ReqBlockPolicyTest, SplitsFromDifferentRequestsMakeDifferentBlocks) {
  ReqBlockPolicy p(delta(2));
  insert_request(p, write_req(1, 0, 8));
  hit_request(p, read_req(2, 0, 1));
  hit_request(p, read_req(3, 5, 1));
  EXPECT_NE(p.block_of(0), p.block_of(5));
  EXPECT_EQ(p.block_of(0)->level, ReqList::kDRL);
  EXPECT_EQ(p.block_of(5)->level, ReqList::kDRL);
}

TEST(ReqBlockPolicyTest, SmallDrlBlockPromotesToSrlOnNextHit) {
  // Fig. 5(b): the split block holding Page K+1 moves from DRL to SRL.
  ReqBlockPolicy p(delta(3));
  insert_request(p, write_req(1, 0, 8));
  hit_request(p, read_req(2, 4, 2));  // split 2 pages -> DRL (size 2 <= 3)
  EXPECT_EQ(p.block_of(4)->level, ReqList::kDRL);
  hit_request(p, read_req(3, 4, 1));  // small block hit -> SRL
  EXPECT_EQ(p.block_of(4)->level, ReqList::kSRL);
  EXPECT_EQ(p.block_of(5), p.block_of(4));
}

TEST(ReqBlockPolicyTest, LargeDrlBlockSplitsAgain) {
  ReqBlockPolicy p(delta(2));
  insert_request(p, write_req(1, 0, 10));
  hit_request(p, read_req(2, 0, 5));  // DRL block of 5 pages (> delta)
  EXPECT_EQ(p.block_of(0)->page_count(), 5u);
  // A block pointer lasts only until the next policy call: keep the id.
  const std::uint64_t drl1 = p.block_of(0)->block_id;
  hit_request(p, read_req(3, 1, 2));  // splits 2 pages out of the DRL block
  const ReqBlock* drl2 = p.block_of(1);
  EXPECT_NE(drl2->block_id, drl1);
  EXPECT_EQ(drl2->level, ReqList::kDRL);
  EXPECT_EQ(drl2->origin_id, drl1);
  EXPECT_EQ(p.block_of(0)->page_count(), 3u);
}

TEST(ReqBlockPolicyTest, FullHitShrinksOriginUntilItBecomesSmall) {
  // Hitting every page of a 4-page block with delta=2: the first two hits
  // split into a DRL block; by then the origin has shrunk to delta pages,
  // so the remaining hits promote the residual block to SRL instead.
  ReqBlockPolicy p(delta(2));
  insert_request(p, write_req(1, 0, 4));  // large (> delta=2)
  hit_request(p, read_req(2, 0, 4));
  EXPECT_EQ(p.block_count(), 2u);
  const ReqBlock* split = p.block_of(0);
  ASSERT_NE(split, nullptr);
  EXPECT_EQ(split->level, ReqList::kDRL);
  EXPECT_EQ(split->page_count(), 2u);  // pages 0 and 1
  const ReqBlock* residual = p.block_of(2);
  ASSERT_NE(residual, nullptr);
  EXPECT_EQ(residual->level, ReqList::kSRL);
  EXPECT_EQ(residual->page_count(), 2u);  // pages 2 and 3
  EXPECT_EQ(p.occupancy().irl_blocks, 0u);
}

TEST(ReqBlockPolicyTest, OriginDestroyedWhenEveryPageSplitsOut) {
  // With delta=1 a 3-page block never becomes "small" until one page is
  // left; hitting all pages drains it: two split out, the final single
  // page promotes to SRL.
  ReqBlockPolicy p(delta(1));
  insert_request(p, write_req(1, 0, 3));
  hit_request(p, read_req(2, 0, 3));
  EXPECT_EQ(p.occupancy().irl_blocks, 0u);
  EXPECT_EQ(p.block_of(0)->level, ReqList::kDRL);
  EXPECT_EQ(p.block_of(1)->level, ReqList::kDRL);
  EXPECT_EQ(p.block_of(2)->level, ReqList::kSRL);
  EXPECT_EQ(p.block_of(2)->page_count(), 1u);
}

TEST(ReqBlockPolicyTest, WriteHitSameSemanticsAsReadHit) {
  ReqBlockPolicy p(delta(5));
  insert_request(p, write_req(1, 0, 3));
  hit_request(p, write_req(2, 0, 3), /*is_write=*/true);
  EXPECT_EQ(p.block_of(0)->level, ReqList::kSRL);
}

TEST(ReqBlockPolicyTest, VictimIsTailWithMinimumFreq) {
  ReqBlockPolicy p(delta(5));
  // Old large cold block vs fresh small hot block.
  insert_request(p, write_req(1, 0, 10));
  insert_request(p, write_req(2, 100, 2));
  hit_request(p, read_req(3, 100, 2));  // promote to SRL, access 3
  // Advance the policy clock with unrelated traffic.
  insert_request(p, write_req(4, 200, 2));
  const auto v = p.select_victim();
  ASSERT_EQ(v.pages.size(), 10u);  // the large cold IRL block
  EXPECT_LE(*std::max_element(v.pages.begin(), v.pages.end()), 9u);
  EXPECT_FALSE(v.colocate);
  EXPECT_EQ(p.pages(), 4u);
}

TEST(ReqBlockPolicyTest, EvictionRemovesWholeBlock) {
  ReqBlockPolicy p(delta(5));
  insert_request(p, write_req(1, 0, 4));
  insert_request(p, write_req(2, 50, 1));
  const std::size_t before = p.pages();
  const auto v = p.select_victim();
  EXPECT_EQ(p.pages(), before - v.pages.size());
  for (const Lpn l : v.pages) {
    EXPECT_EQ(p.block_of(l), nullptr);
  }
}

// Builds the Fig. 6 situation where the *split* (DRL) block is the Freq
// minimum: a big split block (6 pages, access 1) next to its small IRL
// origin (2 pages). With Eq. 1, freq(D) < freq(A) once the clock passes
// tick 13 (2*(T-1) < 6*(T-9)), so the DRL tail wins the eviction race.
void build_split_colder_than_origin(ReqBlockPolicy& p) {
  insert_request(p, write_req(1, 0, 8));  // ticks 1..8, origin A @ tick 1
  hit_request(p, read_req(2, 0, 6));      // ticks 9..14, split D @ tick 9
  // Advance the clock with a hot unrelated block (never the minimum).
  insert_request(p, write_req(3, 100, 1));  // tick 15
  hit_request(p, read_req(4, 100, 1));      // tick 16
  hit_request(p, read_req(5, 100, 1));      // tick 17
  hit_request(p, read_req(6, 100, 1));      // tick 18
}

TEST(ReqBlockPolicyTest, DowngradeMergeEvictsSplitWithOrigin) {
  // Fig. 6: the DRL victim drags its IRL origin along in one batch.
  ReqBlockPolicy p(delta(2));
  build_split_colder_than_origin(p);
  const auto v = p.select_victim();
  EXPECT_EQ(v.pages.size(), 8u);  // 6 split pages + 2 origin pages
  for (Lpn l = 0; l < 8; ++l) {
    EXPECT_EQ(p.block_of(l), nullptr);
  }
  EXPECT_EQ(p.occupancy().drl_blocks, 0u);
  EXPECT_EQ(p.occupancy().irl_blocks, 0u);
}

TEST(ReqBlockPolicyTest, NoMergeWhenDisabled) {
  ReqBlockOptions o = delta(2);
  o.merge_on_evict = false;
  ReqBlockPolicy p(o);
  build_split_colder_than_origin(p);
  const auto v = p.select_victim();
  // Without merging, only the 6-page split block is evicted; its origin
  // stays in IRL.
  EXPECT_EQ(v.pages.size(), 6u);
  EXPECT_EQ(p.occupancy().irl_blocks, 1u);
}

TEST(ReqBlockPolicyTest, NoMergeWhenOriginLeftIRL) {
  ReqBlockPolicy p(delta(2));
  insert_request(p, write_req(1, 0, 3));   // small block -> stays IRL
  insert_request(p, write_req(2, 10, 8));  // large block
  hit_request(p, read_req(3, 10, 1));      // split {10} from large
  // Promote the remaining origin? It has 7 pages (> delta) so hits split
  // it instead; fully consume it so it disappears.
  hit_request(p, read_req(4, 11, 7));
  // The first split block's origin is gone: evicting it must not merge.
  EXPECT_EQ(p.occupancy().irl_blocks, 1u);  // only request 1's block
  const auto v = p.select_victim();
  // Whatever was chosen, eviction must never throw and must only remove
  // one block since no origin merge applies to IRL candidates.
  EXPECT_FALSE(v.empty());
}

TEST(ReqBlockPolicyTest, GuardProtectsInFlightInsertionBlock) {
  ReqBlockPolicy p(delta(5));
  const IoRequest big = write_req(1, 0, 4);
  p.begin_request(big);
  p.on_insert(0, big, true);
  // Mid-request eviction: the only block is the in-flight one -> empty.
  EXPECT_TRUE(p.select_victim().empty());
  p.on_insert(1, big, true);
  EXPECT_EQ(p.pages(), 2u);
}

TEST(ReqBlockPolicyTest, GuardAllowsOtherBlocksMidRequest) {
  ReqBlockPolicy p(delta(5));
  insert_request(p, write_req(1, 100, 2));
  const IoRequest req = write_req(2, 0, 2);
  p.begin_request(req);
  p.on_insert(0, req, true);
  const auto v = p.select_victim();
  ASSERT_EQ(v.pages.size(), 2u);  // request 1's block, not ours
  EXPECT_GE(v.pages[0], 100u);
}

TEST(ReqBlockPolicyTest, OccupancyTracksAllLists) {
  ReqBlockPolicy p(delta(3));
  insert_request(p, write_req(1, 0, 2));    // IRL
  insert_request(p, write_req(2, 10, 8));   // IRL (large)
  hit_request(p, read_req(3, 0, 2));        // -> SRL
  hit_request(p, read_req(4, 10, 1));       // split -> DRL
  const auto occ = p.occupancy();
  EXPECT_EQ(occ.irl_pages, 7u);
  EXPECT_EQ(occ.srl_pages, 2u);
  EXPECT_EQ(occ.drl_pages, 1u);
  EXPECT_EQ(occ.irl_blocks, 1u);
  EXPECT_EQ(occ.srl_blocks, 1u);
  EXPECT_EQ(occ.drl_blocks, 1u);
  EXPECT_EQ(occ.total_pages(), p.pages());
}

TEST(ReqBlockPolicyTest, MetadataIs32BytesPerBlock) {
  ReqBlockPolicy p(delta(5));
  insert_request(p, write_req(1, 0, 4));
  insert_request(p, write_req(2, 100, 4));
  EXPECT_EQ(p.metadata_bytes(), 64u);
}

TEST(ReqBlockPolicyTest, DeltaOfOneIsPageLikeInSRL) {
  // delta = 1: only single-page blocks can enter SRL.
  ReqBlockPolicy p(delta(1));
  insert_request(p, write_req(1, 0, 1));
  insert_request(p, write_req(2, 10, 2));
  hit_request(p, read_req(3, 0, 1));
  hit_request(p, read_req(4, 10, 1));
  EXPECT_EQ(p.block_of(0)->level, ReqList::kSRL);
  EXPECT_EQ(p.block_of(10)->level, ReqList::kDRL);  // 2-page block split
}

TEST(ReqBlockPolicyTest, InvalidDeltaRejected) {
  ReqBlockOptions o;
  o.delta = 0;
  EXPECT_THROW(ReqBlockPolicy{o}, std::logic_error);
}

TEST(ReqBlockPolicyTest, EmptyVictimWhenNoBlocks) {
  ReqBlockPolicy p(delta(5));
  EXPECT_TRUE(p.select_victim().empty());
}

/// A `reqblock` snapshot section at tick 2 with no request in flight and
/// one IRL block `block_id` (request 1, inserted at tick 1, split from
/// `origin_id`) holding `pages`.
std::string one_block_section(std::uint64_t next_block_id,
                              std::uint64_t block_id,
                              const std::vector<Lpn>& pages,
                              std::uint64_t origin_id = 0) {
  SnapshotWriter w;
  w.tag("reqblock");
  w.u64(2);  // tick
  w.u64(next_block_id);
  w.u64(~0ULL);  // current request: none
  w.u64(0);  // insert guard
  w.u64(0);  // split guard
  w.u64(2);  // mutations
  w.u64(1);  // IRL: one block
  w.u64(block_id);
  w.u64(1);  // req_id
  w.u64(1);  // access_cnt
  w.u64(1);  // insert_tick
  w.u64(origin_id);
  w.u64(pages.size());
  for (const Lpn lpn : pages) w.u64(lpn);
  w.u64(0);  // SRL
  w.u64(0);  // DRL
  return w.buffer();
}

void restore(ReqBlockPolicy& p, const std::string& section) {
  SnapshotReader r(section);
  p.deserialize(r);
}

TEST(ReqBlockSnapshotTest, RefusesMalformedBlocks) {
  const struct {
    const char* what;
    std::string section;
  } malformed[] = {
      // The next create_block would hand out the restored block's id.
      {"id == next_block_id", one_block_section(1, 1, {0, 1})},
      {"id > next_block_id", one_block_section(2, 7, {0, 1})},
      // Id 0 is the no-guard sentinel: the block could never be evicted.
      {"id 0", one_block_section(2, 0, {0, 1})},
      {"no pages", one_block_section(2, 1, {})},
      // Evicting a block that is its own origin would consume it twice.
      {"origin_id == id", one_block_section(2, 1, {0, 1}, 1)},
  };
  for (const auto& m : malformed) {
    ReqBlockPolicy p(delta(5));
    EXPECT_THROW(restore(p, m.section), SnapshotError) << m.what;
  }
}

TEST(ReqBlockSnapshotTest, WellFormedSectionRestoresInsertsAndAuditsClean) {
  ReqBlockPolicy p(delta(5));
  restore(p, one_block_section(2, 1, {0, 1}));
  ASSERT_EQ(p.block_count(), 1u);
  const IoRequest req = write_req(2, 10, 1);
  p.begin_request(req);
  p.on_insert(10, req, true);
  EXPECT_EQ(p.block_count(), 2u);
  EXPECT_EQ(p.block_of(0)->block_id, 1u);
  EXPECT_EQ(p.block_of(10)->block_id, 2u);
  EXPECT_EQ(p.pages(), 3u);
  AuditReport report("Req-block");
  p.audit(report);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

}  // namespace
}  // namespace reqblock
