// Differential checker: replay identical randomized operation streams
// through each optimized policy and its slow-but-obviously-correct
// reference model (tests/reference_models.h), requiring identical eviction
// decisions at every step and a clean deep audit throughout. Any divergence
// is a bug in the optimized structure.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "cache/bplru.h"
#include "cache/cflru.h"
#include "cache/fab.h"
#include "cache/lfu.h"
#include "cache/lru.h"
#include "cache/vbbms.h"
#include "core/req_block_policy.h"
#include "reference_models.h"
#include "snapshot/snapshot.h"
#include "test_util.h"
#include "util/audit.h"
#include "util/rng.h"

namespace reqblock::testing {
namespace {

/// Restores the runtime audit level on scope exit.
class AuditLevelGuard {
 public:
  explicit AuditLevelGuard(AuditLevel level)
      : previous_(set_audit_level(level)) {}
  ~AuditLevelGuard() { set_audit_level(previous_); }

 private:
  AuditLevel previous_;
};

/// Audits `policy` and fails the test with the full report on violation.
void expect_clean_audit(const WriteBufferPolicy& policy,
                        std::uint64_t op_index) {
  AuditReport report(policy.name());
  policy.audit(report);
  ASSERT_TRUE(report.ok()) << "after op " << op_index << ":\n"
                           << report.to_string();
}

// One op stream drives both sides: ~70% accesses (hit or insert depending
// on residency), ~30% evictions once the structure has warmed up. Deep
// audits run on a stride so the 100k-op streams stay fast while still
// covering thousands of full walks.
constexpr std::uint64_t kOps = 100'000;
constexpr std::uint64_t kLpnSpace = 512;
constexpr std::uint64_t kAuditStride = 97;  // prime: no phase-lock with ops

template <typename Policy, typename Reference>
void run_differential(std::uint64_t seed) {
  Policy policy;
  Reference reference;
  Rng rng(seed);
  std::uint64_t evictions = 0;

  for (std::uint64_t op = 0; op < kOps; ++op) {
    const bool evict = reference.size() > 64 && rng.next_below(10) < 3;
    if (evict) {
      const Lpn expected = reference.victim();
      VictimBatch batch = policy.select_victim();
      ASSERT_EQ(batch.pages.size(), 1u) << "op " << op;
      ASSERT_EQ(batch.pages.front(), expected)
          << policy.name() << " diverged from reference at op " << op;
      ++evictions;
    } else {
      const Lpn lpn = rng.next_below(kLpnSpace);
      const IoRequest req = write_req(op, lpn, 1);
      if (reference.contains(lpn)) {
        reference.hit(lpn);
        policy.on_hit(lpn, req, /*is_write=*/true);
      } else {
        reference.insert(lpn);
        policy.on_insert(lpn, req, /*is_write=*/true);
      }
    }
    ASSERT_EQ(policy.pages(), reference.size()) << "op " << op;
    if (op % kAuditStride == 0) expect_clean_audit(policy, op);
  }
  expect_clean_audit(policy, kOps);
  // The stream must actually have exercised the eviction path.
  EXPECT_GT(evictions, 10'000u);
}

TEST(DifferentialPolicy, LruMatchesReferenceOver100kOps) {
  run_differential<LruPolicy, ReferenceLru>(0xA11CE);
}

TEST(DifferentialPolicy, FifoMatchesReferenceOver100kOps) {
  run_differential<FifoPolicy, ReferenceFifo>(0xB0B);
}

TEST(DifferentialPolicy, LfuMatchesReferenceOver100kOps) {
  run_differential<LfuPolicy, ReferenceLfu>(0xCAFE);
}

// Request-stream differential for the policies that see whole requests
// (CFLRU's dirty bits, the block schemes' grouping, VBBMS's size classes):
// drive the policy the way the cache manager does — begin_request, then per
// page a hit, or evictions down below capacity followed by an insert — and
// require every victim batch to equal the reference's, page for page.
// Past the halfway mark, at the first request boundary where
// `ready(policy)` holds, the policy is serialized and restored into a
// fresh instance, which carries on; the restored state must serialize to
// the same bytes and behave identically from there.
struct StreamShape {
  std::uint64_t capacity = 128;
  Lpn lpn_space = 512;
  std::uint32_t max_pages = 8;
  /// Half the requests start at a multiple of this many pages (0: none).
  std::uint32_t align = 0;
  /// Write share of each phase; phases alternate every `phase_len`
  /// requests.
  double write_share[2] = {1.0, 1.0};
  std::uint64_t phase_len = 1000;
};

/// Calls `observe(policy, reference)` before every eviction.
template <typename Policy, typename Reference, typename Make,
          typename Observe, typename Ready>
void run_request_differential(const Make& make, Reference reference,
                              const StreamShape& shape, std::uint64_t seed,
                              const Observe& observe, const Ready& ready) {
  std::unique_ptr<Policy> policy = make();
  Rng rng(seed);
  std::uint64_t pages_processed = 0;
  std::uint64_t evictions = 0;
  bool restored = false;
  for (std::uint64_t req_id = 1; pages_processed < kOps; ++req_id) {
    if (!restored && pages_processed >= kOps / 2 && ready(*policy)) {
      SnapshotWriter w;
      policy->serialize(w);
      std::unique_ptr<Policy> fresh = make();
      SnapshotReader r(w.buffer());
      fresh->deserialize(r);
      SnapshotWriter again;
      fresh->serialize(again);
      ASSERT_EQ(w.buffer(), again.buffer())
          << policy->name() << ": restore is not a fixed point";
      policy = std::move(fresh);
      expect_clean_audit(*policy, pages_processed);
      restored = true;
    }
    Lpn start = rng.next_below(shape.lpn_space);
    if (shape.align != 0 && rng.next_below(2) == 0) {
      start -= start % shape.align;
    }
    const auto len =
        1 + static_cast<std::uint32_t>(rng.next_below(shape.max_pages));
    const double share = shape.write_share[(req_id / shape.phase_len) % 2];
    const bool is_write =
        static_cast<double>(rng.next_below(1000)) < share * 1000.0;
    IoRequest req = write_req(req_id, start, len);
    if (!is_write) req.type = IoType::kRead;
    policy->begin_request(req);
    for (std::uint32_t i = 0; i < len; ++i) {
      const Lpn lpn = start + i;
      if (reference.contains(lpn)) {
        reference.hit(lpn, req, is_write);
        policy->on_hit(lpn, req, is_write);
      } else {
        while (reference.size() >= shape.capacity) {
          observe(*policy, reference);
          const std::vector<Lpn> expected = reference.victim();
          const VictimBatch batch = policy->select_victim();
          ASSERT_EQ(std::vector<Lpn>(batch.pages.begin(), batch.pages.end()),
                    expected)
              << policy->name() << " diverged from its reference after "
              << pages_processed << " pages";
          ++evictions;
        }
        reference.insert(lpn, req, is_write);
        policy->on_insert(lpn, req, is_write);
      }
      ++pages_processed;
      ASSERT_EQ(policy->pages(), reference.size())
          << "after " << pages_processed << " pages";
      if (pages_processed % kAuditStride == 0) {
        expect_clean_audit(*policy, pages_processed);
      }
    }
  }
  expect_clean_audit(*policy, pages_processed);
  EXPECT_TRUE(restored);
  EXPECT_GT(evictions, 5'000u) << policy->name();
}

// CFLRU under windows of one page, a few pages and the whole cache. Read
// requests insert clean pages and write hits dirty them; every other phase
// is all writes, long enough for the clean pages to drain, so evictions
// run both with clean pages resident (the window walk) and with none (the
// LRU-tail shortcut). The restore happens while clean pages are resident,
// so a clean count that restore does not rebuild shows up at the next
// eviction.
TEST(DifferentialPolicy, CflruMatchesReferenceOver100kOps) {
  constexpr std::uint64_t kCapacity = 128;
  for (const std::size_t window : {std::size_t{1}, std::size_t{4},
                                   std::size_t{kCapacity}}) {
    SCOPED_TRACE("window " + std::to_string(window));
    const double fraction =
        static_cast<double>(window) / static_cast<double>(kCapacity);
    StreamShape shape;
    shape.capacity = kCapacity;
    shape.lpn_space = 384;
    shape.write_share[0] = 0.5;
    shape.write_share[1] = 1.0;
    shape.phase_len = 1500;
    std::uint64_t shortcut = 0;
    std::uint64_t walked = 0;
    run_request_differential<CflruPolicy>(
        [&] { return std::make_unique<CflruPolicy>(kCapacity, fraction); },
        ReferenceCflru(window), shape, 0xCF1 + window,
        [&](const CflruPolicy& policy, const ReferenceCflru& reference) {
          ASSERT_EQ(policy.clean_pages(), reference.clean_pages());
          if (policy.clean_pages() == 0) {
            ++shortcut;
          } else {
            ++walked;
          }
        },
        [](const CflruPolicy& policy) { return policy.clean_pages() > 0; });
    EXPECT_GT(shortcut, 5'000u);
    EXPECT_GT(walked, 5'000u);
  }
}

TEST(DifferentialPolicy, FabMatchesReferenceOver100kOps) {
  StreamShape shape;
  shape.capacity = 96;
  shape.lpn_space = 1024;
  shape.max_pages = 12;
  run_request_differential<FabPolicy>(
      [] { return std::make_unique<FabPolicy>(8); }, ReferenceFab(8), shape,
      0xFAB, [](const FabPolicy&, const ReferenceFab&) {},
      [](const FabPolicy&) { return true; });
}

// Page-aligned full-block writes into uncached blocks exercise BPLRU's
// LRU compensation; read requests produce hits that do not break a
// block's sequential run.
TEST(DifferentialPolicy, BplruMatchesReferenceOver100kOps) {
  StreamShape shape;
  shape.capacity = 96;
  shape.lpn_space = 1024;
  shape.max_pages = 8;
  shape.align = 8;
  shape.write_share[0] = 0.7;
  shape.write_share[1] = 0.7;
  std::uint64_t demotions = 0;
  run_request_differential<BplruPolicy>(
      [] { return std::make_unique<BplruPolicy>(8); }, ReferenceBplru(8),
      shape, 0xB1B,
      [&](const BplruPolicy& policy, const ReferenceBplru&) {
        for (Lpn block = 0; block < 1024 / 8; ++block) {
          if (policy.is_sequential_demoted(block)) ++demotions;
        }
      },
      [](const BplruPolicy&) { return true; });
  EXPECT_GT(demotions, 0u) << "no block was ever demoted";
}

// Request sizes straddle the sequential threshold, so both regions fill
// and the load comparison picks each.
TEST(DifferentialPolicy, VbbmsMatchesReferenceOver100kOps) {
  constexpr std::uint64_t kCapacity = 120;
  StreamShape shape;
  shape.capacity = kCapacity;
  shape.lpn_space = 768;
  shape.max_pages = 10;
  run_request_differential<VbbmsPolicy>(
      [&] { return std::make_unique<VbbmsPolicy>(kCapacity); },
      ReferenceVbbms(kCapacity, VbbmsOptions{}), shape, 0xBB5,
      [](const VbbmsPolicy&, const ReferenceVbbms&) {},
      [](const VbbmsPolicy&) { return true; });
}

// Req-block differential: drive the policy exactly like the cache manager
// does (begin_request, then per-page hit/insert), and before every
// select_victim compute the brute-force Eq. 1 victim and its expected
// downgraded-merge batch; the optimized eviction must return the same page
// set. Audits run after every request.
TEST(DifferentialPolicy, ReqBlockMatchesBruteForceEq1Over100kOps) {
  ReqBlockOptions opt;
  opt.delta = 5;
  ReqBlockPolicy policy(opt);
  Rng rng(0xD1FF);

  std::uint64_t pages_processed = 0;
  std::uint64_t evictions = 0;
  std::uint64_t merged_evictions = 0;
  std::uint64_t req_id = 1;

  while (pages_processed < kOps) {
    // Synthetic request: start in a 4 KiB-page LPN space small enough to
    // re-hit earlier requests, size 1..16 pages so both the <= delta and
    // > delta regimes occur.
    const Lpn start = rng.next_below(kLpnSpace);
    const std::uint32_t len = 1 + static_cast<std::uint32_t>(
                                      rng.next_below(16));
    const IoRequest req = write_req(req_id, start, len);
    ++req_id;
    policy.begin_request(req);
    for (std::uint32_t i = 0; i < len; ++i) {
      const Lpn lpn = start + i;
      if (policy.block_of(lpn) != nullptr) {
        policy.on_hit(lpn, req, /*is_write=*/true);
      } else {
        policy.on_insert(lpn, req, /*is_write=*/true);
      }
      ++pages_processed;
      // Keep the structure near a fixed size, evicting like the manager
      // does when over capacity.
      while (policy.pages() > 256) {
        const ReqBlock* expected_victim = brute_force_victim(policy);
        const std::vector<Lpn> expected =
            expected_victim_pages(policy, expected_victim);
        // Capture before select_victim: the victim block is destroyed by
        // the eviction itself.
        const bool victim_was_split =
            expected_victim != nullptr && expected_victim->origin_id != 0;
        const std::size_t victim_own_pages =
            expected_victim == nullptr ? 0 : expected_victim->page_count();
        VictimBatch batch = policy.select_victim();
        std::vector<Lpn> got(batch.pages.begin(), batch.pages.end());
        std::sort(got.begin(), got.end());
        ASSERT_EQ(got, expected)
            << "Req-block eviction diverged from brute-force Eq.1 after "
            << pages_processed << " pages";
        ASSERT_FALSE(batch.empty())
            << "policy refused to evict with no in-flight guard conflict";
        ++evictions;
        if (victim_was_split && expected.size() > victim_own_pages) {
          ++merged_evictions;
        }
      }
    }
    expect_clean_audit(policy, pages_processed);
  }

  // The workload must have hit the interesting paths, not skated past them.
  EXPECT_GT(evictions, 1'000u);
  EXPECT_GT(merged_evictions, 0u) << "no downgraded merge ever happened";
}

// Same differential under every FreqMode, so the Eq. 1 ablation variants
// stay consistent with their brute-force definition too.
TEST(DifferentialPolicy, ReqBlockBruteForceAgreesUnderFreqModes) {
  for (const FreqMode mode : {FreqMode::kFull, FreqMode::kNoTime,
                              FreqMode::kNoSize, FreqMode::kCountOnly}) {
    ReqBlockOptions opt;
    opt.delta = 3;
    opt.freq_mode = mode;
    ReqBlockPolicy policy(opt);
    Rng rng(0x5EED + static_cast<std::uint64_t>(mode));

    std::uint64_t req_id = 1;
    for (std::uint64_t op = 0; op < 20'000; ++op) {
      const Lpn start = rng.next_below(128);
      const std::uint32_t len =
          1 + static_cast<std::uint32_t>(rng.next_below(8));
      const IoRequest req = write_req(req_id++, start, len);
      policy.begin_request(req);
      for (std::uint32_t i = 0; i < len; ++i) {
        const Lpn lpn = start + i;
        if (policy.block_of(lpn) != nullptr) {
          policy.on_hit(lpn, req, true);
        } else {
          policy.on_insert(lpn, req, true);
        }
        while (policy.pages() > 96) {
          const std::vector<Lpn> expected =
              expected_victim_pages(policy, brute_force_victim(policy));
          VictimBatch batch = policy.select_victim();
          std::vector<Lpn> got(batch.pages.begin(), batch.pages.end());
          std::sort(got.begin(), got.end());
          ASSERT_EQ(got, expected) << "mode " << static_cast<int>(mode);
        }
      }
    }
  }
}

}  // namespace
}  // namespace reqblock::testing
