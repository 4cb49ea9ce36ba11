// Randomized property test for Req-block: a synthetic mixed read/write
// trace replayed (a) directly against the policy with a deep audit after
// every single operation, and (b) through the full CacheManager+FTL stack
// with run-time audits forced to "full". Coverage counters prove the
// stream exercised every interesting transition — split, promotion
// (upgrade to SRL), downgraded merge, batch eviction, guard bypass — so a
// green run means those paths ran *and* never violated an invariant.
// (c) A differential run checks the order of each block's page chain
// against page vectors.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/req_block_policy.h"
#include "snapshot/snapshot.h"
#include "test_util.h"
#include "util/audit.h"
#include "util/rng.h"

namespace reqblock::testing {
namespace {

class AuditLevelGuard {
 public:
  explicit AuditLevelGuard(AuditLevel level)
      : previous_(set_audit_level(level)) {}
  ~AuditLevelGuard() { set_audit_level(previous_); }

 private:
  AuditLevel previous_;
};

void expect_clean_audit(const ReqBlockPolicy& policy, std::uint64_t op) {
  AuditReport report("Req-block");
  policy.audit(report);
  ASSERT_TRUE(report.ok()) << "after op " << op << ":\n"
                           << report.to_string();
}

TEST(ReqBlockProperty, RandomTraceAuditsCleanAndCoversAllTransitions) {
  ReqBlockOptions opt;
  opt.delta = 5;
  ReqBlockPolicy policy(opt);
  Rng rng(0xFEED5EED);

  std::uint64_t splits = 0;       // hit on a > delta block
  std::uint64_t promotions = 0;   // hit on a <= delta block -> SRL
  std::uint64_t merges = 0;       // eviction dragged the IRL origin along
  std::uint64_t batches = 0;      // eviction of more than one page
  std::uint64_t ops = 0;

  for (std::uint64_t req_id = 1; ops < 40'000; ++req_id) {
    const Lpn start = rng.next_below(384);
    const std::uint32_t len =
        1 + static_cast<std::uint32_t>(rng.next_below(16));
    const IoRequest req = write_req(req_id, start, len);
    policy.begin_request(req);
    for (std::uint32_t i = 0; i < len; ++i) {
      const Lpn lpn = start + i;
      const ReqBlock* blk = policy.block_of(lpn);
      if (blk != nullptr) {
        const bool will_split = blk->page_count() > opt.delta;
        policy.on_hit(lpn, req, /*is_write=*/true);
        if (will_split) {
          ++splits;
          // The page must now live in a DRL block remembering its origin.
          const ReqBlock* moved = policy.block_of(lpn);
          ASSERT_NE(moved, nullptr);
          EXPECT_EQ(moved->level, ReqList::kDRL);
          EXPECT_NE(moved->origin_id, 0u);
        } else {
          ++promotions;
          const ReqBlock* moved = policy.block_of(lpn);
          ASSERT_NE(moved, nullptr);
          EXPECT_EQ(moved->level, ReqList::kSRL);
          EXPECT_GE(moved->access_cnt, 2u);
        }
      } else {
        policy.on_insert(lpn, req, /*is_write=*/true);
        const ReqBlock* inserted = policy.block_of(lpn);
        ASSERT_NE(inserted, nullptr);
        EXPECT_EQ(inserted->level, ReqList::kIRL);
      }
      ++ops;
      while (policy.pages() > 192) {
        const ReqBlock* victim_preview = nullptr;
        {
          // Identify the upcoming victim's own size so a larger batch can
          // only mean the origin was merged in.
          const ReqList order[] = {ReqList::kIRL, ReqList::kDRL,
                                   ReqList::kSRL};
          double best = 0.0;
          for (const ReqList level : order) {
            const ReqBlock* cand = policy.tail_of(level);
            while (cand != nullptr && policy.is_guarded(cand)) {
              cand = policy.prev_in_list(cand);
            }
            if (cand == nullptr) continue;
            const double f =
                req_block_freq(*cand, policy.now(), opt.freq_mode);
            if (victim_preview == nullptr || f < best) {
              best = f;
              victim_preview = cand;
            }
          }
        }
        const std::size_t victim_own_pages =
            victim_preview == nullptr ? 0 : victim_preview->page_count();
        VictimBatch batch = policy.select_victim();
        ASSERT_FALSE(batch.empty());
        if (batch.pages.size() > 1) ++batches;
        if (batch.pages.size() > victim_own_pages) ++merges;
      }
      expect_clean_audit(policy, ops);
    }
  }

  EXPECT_GT(splits, 100u) << "trace never split a large block";
  EXPECT_GT(promotions, 100u) << "trace never promoted to SRL";
  EXPECT_GT(merges, 10u) << "trace never exercised downgraded merging";
  EXPECT_GT(batches, 100u) << "trace never evicted a multi-page batch";
}

// Full stack: the same kind of mixed trace through CacheManager + FTL with
// run-time audits at "full". CacheManager::serve audits itself (and the
// policy, and throws on violation) after every request, so simply
// completing the replay is the assertion; the version oracle check on
// reads keeps the data path honest too.
TEST(ReqBlockProperty, FullStackRandomTraceUnderFullAudits) {
  AuditLevelGuard audits(AuditLevel::kFull);
  Harness h(policy_config("reqblock", 256));
  Rng rng(0xBADF00D);

  std::uint64_t id = 1;
  SimTime at = 0;
  for (std::uint64_t i = 0; i < 4'000; ++i) {
    const Lpn start = rng.next_below(1024);
    const std::uint32_t len =
        1 + static_cast<std::uint32_t>(rng.next_below(12));
    const bool is_read = rng.next_below(10) < 3;
    const IoRequest req = is_read ? read_req(id, start, len, at)
                                  : write_req(id, start, len, at);
    ++id;
    at += 5;  // nondecreasing arrivals
    ASSERT_NO_THROW(h.serve(req)) << "request " << i;
  }
  const CacheMetrics& m = h.cache->metrics();
  EXPECT_GT(m.page_hits, 0u);
  EXPECT_GT(m.evictions, 0u);

  // End-of-run device audit, like the simulator's.
  AuditReport report("Ftl");
  h.ftl.audit(report);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// Each block's pages as a vector, in the order Req-block kept them before
// its page chains: a page is appended to its block, and a split takes it
// out by swap-with-back. Which block a page joins comes from the policy;
// the order within each block is the model's own.
class PageVectorModel {
 public:
  void append(Lpn lpn, std::uint64_t block, std::uint64_t origin) {
    auto [it, created] = blocks_.try_emplace(block);
    if (created) origins_[block] = origin;
    it->second.push_back(lpn);
    owner_[lpn] = block;
  }

  /// A split: `lpn` leaves its block by swap-with-back and joins `to`.
  void move(Lpn lpn, std::uint64_t to, std::uint64_t origin) {
    std::vector<Lpn>& from = blocks_.at(owner_.at(lpn));
    const auto it = std::find(from.begin(), from.end(), lpn);
    *it = from.back();
    from.pop_back();
    if (from.empty()) forget(owner_.at(lpn));
    append(lpn, to, origin);
  }

  /// The batch that evicting the block holding `first` gives, with its
  /// split origin's pages after its own when `merged`; forgets both.
  std::vector<Lpn> evict(Lpn first, bool merged) {
    const std::uint64_t victim = owner_.at(first);
    std::vector<Lpn> batch = blocks_.at(victim);
    const std::uint64_t origin = origins_.at(victim);
    forget(victim);
    if (merged) {
      const std::vector<Lpn>& more = blocks_.at(origin);
      batch.insert(batch.end(), more.begin(), more.end());
      forget(origin);
    }
    for (const Lpn lpn : batch) owner_.erase(lpn);
    return batch;
  }

  std::size_t block_pages(Lpn lpn) const {
    return blocks_.at(owner_.at(lpn)).size();
  }
  const std::map<std::uint64_t, std::vector<Lpn>>& blocks() const {
    return blocks_;
  }

 private:
  void forget(std::uint64_t block) {
    blocks_.erase(block);
    origins_.erase(block);
  }

  std::map<std::uint64_t, std::vector<Lpn>> blocks_;  // by block id
  std::unordered_map<std::uint64_t, std::uint64_t> origins_;
  std::unordered_map<Lpn, std::uint64_t> owner_;
};

/// Every block's chain, read through the test accessor, in model order.
void expect_chains_match(const ReqBlockPolicy& policy,
                         const PageVectorModel& model, std::uint64_t op) {
  ASSERT_EQ(policy.block_count(), model.blocks().size()) << "op " << op;
  std::size_t pages = 0;
  for (const auto& [id, order] : model.blocks()) {
    const ReqBlock* blk = policy.block_of(order.front());
    ASSERT_NE(blk, nullptr) << "op " << op;
    ASSERT_EQ(blk->block_id, id) << "op " << op;
    ASSERT_EQ(policy.pages_of(*blk), order)
        << "block " << id << " chain order, op " << op;
    pages += order.size();
  }
  ASSERT_EQ(policy.pages(), pages) << "op " << op;
}

/// serialize -> deserialize into a fresh policy -> serialize: equal bytes.
/// Returns the restored policy, which the run carries on with.
std::unique_ptr<ReqBlockPolicy> round_trip(const ReqBlockPolicy& policy) {
  SnapshotWriter first;
  policy.serialize(first);
  const std::string bytes = first.take();
  auto restored = std::make_unique<ReqBlockPolicy>(policy.options());
  SnapshotReader r(bytes);
  restored->deserialize(r);
  r.expect_end();
  SnapshotWriter second;
  restored->serialize(second);
  EXPECT_EQ(second.take(), bytes) << "snapshot bytes changed on a restore";
  return restored;
}

// Req-block threads each block's pages through its page table. Random
// requests (inserts, and hits that split and promote) and evictions (with
// downgraded merges) run beside PageVectorModel, under full audits: after
// every operation each block's chain must list the model's pages in the
// model's order, and every victim batch must come out in that order too.
// At random points the policy is round-tripped through its snapshot and
// the restored copy carries on.
TEST(ReqBlockProperty, PageChainsMatchSwapWithBackVectors) {
  AuditLevelGuard audits(AuditLevel::kFull);
  ReqBlockOptions opt;
  opt.delta = 4;
  auto policy = std::make_unique<ReqBlockPolicy>(opt);
  PageVectorModel model;
  Rng rng(0xC4A1);

  std::uint64_t splits = 0;
  std::uint64_t promotions = 0;
  std::uint64_t merges = 0;
  std::uint64_t evictions = 0;
  std::uint64_t round_trips = 0;
  std::uint64_t ops = 0;

  for (std::uint64_t req_id = 1; ops < 30'000; ++req_id) {
    if (rng.next_below(50) == 0) {
      policy = round_trip(*policy);
      ++round_trips;
      expect_chains_match(*policy, model, ops);
    }
    const Lpn start = rng.next_below(320);
    const auto len = 1 + static_cast<std::uint32_t>(rng.next_below(14));
    const IoRequest req = write_req(req_id, start, len);
    policy->begin_request(req);
    for (std::uint32_t i = 0; i < len; ++i, ++ops) {
      const Lpn lpn = start + i;
      if (const ReqBlock* blk = policy->block_of(lpn); blk != nullptr) {
        const std::uint64_t before = blk->block_id;
        policy->on_hit(lpn, req, /*is_write=*/true);
        const ReqBlock* now = policy->block_of(lpn);
        if (now->block_id != before) {
          model.move(lpn, now->block_id, now->origin_id);
          ++splits;
        } else {
          ++promotions;
        }
      } else {
        bool room = true;
        while (policy->pages() >= 128) {
          const VictimBatch batch = policy->select_victim();
          if (batch.empty()) {
            room = false;  // only the in-flight request's blocks are left
            break;
          }
          const bool merged =
              batch.pages.size() > model.block_pages(batch.pages.front());
          const std::vector<Lpn> got(batch.pages.begin(), batch.pages.end());
          ASSERT_EQ(got, model.evict(batch.pages.front(), merged))
              << "victim batch order, op " << ops;
          ++evictions;
          if (merged) ++merges;
        }
        if (!room) continue;
        policy->on_insert(lpn, req, /*is_write=*/true);
        const ReqBlock* owner = policy->block_of(lpn);
        model.append(lpn, owner->block_id, owner->origin_id);
      }
      expect_chains_match(*policy, model, ops);
      expect_clean_audit(*policy, ops);
    }
  }

  EXPECT_GT(splits, 1'000u);
  EXPECT_GT(promotions, 1'000u);
  EXPECT_GT(merges, 50u);
  EXPECT_GT(evictions, 1'000u);
  EXPECT_GT(round_trips, 20u);
}

// Guard property: a single in-flight request larger than the whole buffer
// cannot evict its own block; the policy reports "no victim" and the
// manager bypasses the overflow pages to flash instead of deadlocking or
// self-evicting.
TEST(ReqBlockProperty, OversizedRequestBypassesInsteadOfSelfEvicting) {
  AuditLevelGuard audits(AuditLevel::kFull);
  Harness h(policy_config("reqblock", 8));
  ASSERT_NO_THROW(h.serve(write_req(1, 0, 32)));
  const CacheMetrics& m = h.cache->metrics();
  EXPECT_GT(m.bypass_pages, 0u);
  EXPECT_LE(h.cache->cached_pages(), 8u);
}

}  // namespace
}  // namespace reqblock::testing
