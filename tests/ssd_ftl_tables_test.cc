// The FTL's paged L2P table with versions stored on the flash pages, and
// the cache manager's paged write oracle and page table:
//   * a page's version moves with it through GC copyback, read-disturb
//     migration and patrol-scrub refresh, and leaves with the mapping on
//     an uncorrectable loss;
//   * restore refuses tables that disagree with each other, with the
//     device geometry, or with the pages they map, naming the table.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "snapshot/snapshot.h"
#include "ssd/ftl.h"
#include "test_util.h"
#include "util/audit.h"

namespace reqblock {
namespace {

struct FullAuditScope {
  AuditLevel previous = set_audit_level(AuditLevel::kFull);
  ~FullAuditScope() { set_audit_level(previous); }
};

/// Single plane, 64 blocks of 8 pages: GC starts once 57 blocks are used.
SsdConfig one_plane() {
  SsdConfig cfg;
  cfg.channels = 1;
  cfg.chips_per_channel = 1;
  cfg.pages_per_block = 8;
  cfg.capacity_bytes = 64ULL * 8 * 4096;
  cfg.validate();
  return cfg;
}

std::string serialize(const Ftl& ftl) {
  SnapshotWriter w;
  ftl.serialize(w);
  return w.take();
}

/// version_of and mapped_pages agree with the model, and the FTL audits
/// clean.
void expect_matches(const Ftl& ftl, const std::map<Lpn, std::uint64_t>& model,
                    const std::string& step) {
  for (const auto& [lpn, version] : model) {
    ASSERT_EQ(ftl.version_of(lpn), version) << step << ": lpn " << lpn;
  }
  EXPECT_EQ(ftl.mapped_pages(), model.size()) << step;
  AuditReport report(step);
  ftl.audit(report);
  EXPECT_TRUE(report.ok()) << step;
}

TEST(FtlPageVersionTest, VersionMovesWithThePage) {
  FullAuditScope audit_scope;
  const SsdConfig cfg = one_plane();
  FaultPlan plan;
  plan.seed = 3;
  plan.spare_blocks_per_plane = 0;  // tiny device: no room for spares
  plan.aging.read_disturb_limit = 8;
  // A bit-error model driven by data age alone: data younger than a few
  // simulated seconds predicts ~1e-6 (reads stay clean), data older than
  // the 1e6 s anchor predicts the 0.999 ceiling. With no retry steps and
  // no parity, such a read is lost.
  plan.integrity.rber_base = 1e-9;
  plan.integrity.rber_age_anchor = 1'000'000 * kSecond;
  plan.integrity.rber_age_boost = 1e9;
  plan.integrity.ecc_escape = 1.0;
  plan.integrity.read_retry_steps = 0;
  plan.integrity.scrub_rber_threshold = 0.5;
  plan.integrity.scrub_time_budget = kSecond;  // one pass covers the device
  FaultInjector injector(plan);
  Ftl ftl(cfg);
  ftl.set_fault_injector(&injector);
  std::map<Lpn, std::uint64_t> model;

  // 1. GC copyback: cold pages (written once) share blocks with hot pages
  //    (rewritten), so greedy victims still hold valid cold data.
  SimTime t = 0;
  Lpn cold = 0;
  for (int i = 0; i < 700; ++i) {
    const Lpn lpn = i % 5 == 0 && cold < 120 ? cold++ : 200 + i % 32;
    const std::uint64_t version = ++model[lpn];
    t = ftl.program_page(lpn, version, t + 1);
  }
  ASSERT_GT(ftl.metrics().gc_page_moves, 0u);
  expect_matches(ftl, model, "after GC copyback");

  // 2. Read-disturb migration: the eighth read of a block relocates it.
  for (int i = 0; i < 8; ++i) {
    const auto rr = ftl.read_page(7, t + 1);
    ASSERT_TRUE(rr.mapped);
    ASSERT_FALSE(rr.lost);
    EXPECT_EQ(rr.version, model[7]);
    t = rr.complete;
  }
  ASSERT_EQ(injector.metrics().read_disturb_migrations, 1u);
  ASSERT_GT(injector.metrics().read_disturb_pages_moved, 0u);
  expect_matches(ftl, model, "after read-disturb migration");

  // 3. Patrol scrub: every block's data is now old enough to predict
  //    over the threshold, so the pass refreshes it into fresh blocks.
  const SimTime scrub_at = t + 600'000 * kSecond;
  ftl.patrol_scrub(scrub_at);
  const IntegrityMetrics& m = injector.metrics().integrity;
  ASSERT_GT(m.patrol_scrubs, 0u);
  ASSERT_GT(m.patrol_pages_moved, 0u);
  expect_matches(ftl, model, "after patrol scrub");

  // 4. Uncorrectable loss: data past the anchor predicts the ceiling and
  //    the cascade has no tier left. The version leaves with the mapping.
  const auto rr = ftl.read_page(200, scrub_at + 2'000'000 * kSecond);
  ASSERT_TRUE(rr.lost);
  EXPECT_EQ(rr.version, model[200]) << "a lost read reports what was asked";
  EXPECT_EQ(m.uncorrectable, 1u);
  model.erase(200);
  EXPECT_FALSE(ftl.is_mapped(200));
  EXPECT_EQ(ftl.version_of(200), 0u);
  expect_matches(ftl, model, "after uncorrectable loss");

  // The tables survive a checkpoint byte for byte, versions included.
  const std::string bytes = serialize(ftl);
  FaultInjector restored_injector(plan);
  Ftl restored(cfg);
  restored.set_fault_injector(&restored_injector);
  SnapshotReader r(bytes);
  restored.deserialize(r);
  EXPECT_TRUE(r.at_end());
  expect_matches(restored, model, "restored");
  EXPECT_EQ(serialize(restored), bytes);
}

// --- Restore refusals ------------------------------------------------------

using Entries = std::vector<std::pair<Lpn, std::uint64_t>>;

Entries read_entries(SnapshotReader& r) {
  Entries out(r.u64());
  for (auto& [key, value] : out) {
    key = r.u64();
    value = r.u64();
  }
  return out;
}

void write_entries(SnapshotWriter& w, const Entries& entries) {
  w.u64(entries.size());
  for (const auto& [key, value] : entries) {
    w.u64(key);
    w.u64(value);
  }
}

/// An FTL snapshot split into its L2P table, its version table, and the
/// bytes after them, so a test can edit one table and rejoin.
struct FtlImage {
  Entries l2p;
  Entries versions;
  std::string rest;

  explicit FtlImage(const std::string& bytes) {
    SnapshotReader r(bytes);
    r.tag("ftl");
    l2p = read_entries(r);
    versions = read_entries(r);
    rest = bytes.substr(bytes.size() - r.remaining());
  }

  std::string join() const {
    SnapshotWriter w;
    w.tag("ftl");
    write_entries(w, l2p);
    write_entries(w, versions);
    return w.take() + rest;
  }
};

class FtlRestoreRefusalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Ftl ftl(cfg_);
    SimTime t = 0;
    for (Lpn lpn = 10; lpn < 20; ++lpn) t = ftl.program_page(lpn, lpn, t + 1);
    ftl.program_page(12, 99, t + 1);  // one overwritten page
    bytes_ = serialize(ftl);
  }

  /// Restores `bytes` into a fresh FTL and returns the refusal message
  /// ("" when the restore was accepted).
  std::string refusal(const std::string& bytes) const {
    Ftl fresh(cfg_);
    SnapshotReader r(bytes);
    try {
      fresh.deserialize(r);
    } catch (const SnapshotError& e) {
      return e.what();
    }
    return "";
  }

  const SsdConfig cfg_ = testing::micro_ssd();
  std::string bytes_;
};

::testing::AssertionResult Names(const std::string& refusal,
                                 const char* text) {
  if (refusal.find(text) != std::string::npos) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "refusal \"" << refusal << "\" does not say \"" << text << "\"";
}

TEST_F(FtlRestoreRefusalTest, UnmodifiedImageRestores) {
  FtlImage image(bytes_);
  ASSERT_EQ(image.l2p.size(), 10u);
  EXPECT_EQ(image.versions[2], (std::pair<Lpn, std::uint64_t>{12, 99}));
  EXPECT_EQ(image.join(), bytes_);
  EXPECT_EQ(refusal(bytes_), "");
}

TEST_F(FtlRestoreRefusalTest, PpnOutsideTheGeometry) {
  FtlImage image(bytes_);
  image.l2p[3].second = cfg_.total_pages();
  EXPECT_TRUE(Names(refusal(image.join()), "L2P table"));
  EXPECT_TRUE(Names(refusal(image.join()), "outside the device geometry"));
}

TEST_F(FtlRestoreRefusalTest, LpnBeyondThe32BitSpace) {
  FtlImage image(bytes_);
  image.l2p.back().first = 1ULL << 32;
  EXPECT_TRUE(Names(refusal(image.join()), "L2P table"));
  EXPECT_TRUE(Names(refusal(image.join()), "32-bit"));
}

TEST_F(FtlRestoreRefusalTest, RepeatedMapping) {
  FtlImage image(bytes_);
  image.l2p.push_back(image.l2p.front());
  image.versions.push_back(image.versions.front());
  EXPECT_TRUE(Names(refusal(image.join()), "L2P table repeats"));
}

TEST_F(FtlRestoreRefusalTest, MappingToAPageThatHoldsAnotherLpn) {
  FtlImage image(bytes_);
  std::swap(image.l2p[0].second, image.l2p[1].second);
  EXPECT_TRUE(Names(refusal(image.join()), "L2P table"));
  EXPECT_TRUE(Names(refusal(image.join()), "does not hold that lpn"));
}

TEST_F(FtlRestoreRefusalTest, VersionTableWithADifferentCount) {
  FtlImage image(bytes_);
  image.versions.pop_back();
  EXPECT_TRUE(Names(refusal(image.join()), "version table has 9 entries"));
}

TEST_F(FtlRestoreRefusalTest, VersionTableWithAnOrphanEntry) {
  FtlImage image(bytes_);
  image.versions[4].first = 500;  // never mapped
  EXPECT_TRUE(Names(refusal(image.join()), "version table has an orphan"));
}

TEST_F(FtlRestoreRefusalTest, VersionTableMissingAnEntry) {
  // Same count, no orphan: lpn 14's entry is replaced by a second one
  // for lpn 15, so 14 has no version.
  FtlImage image(bytes_);
  image.versions[4] = image.versions[5];
  EXPECT_TRUE(
      Names(refusal(image.join()), "version table is missing mapped lpn 14"));
}

// --- The cache manager's page table and write oracle ------------------------

/// A cache snapshot split into its page table, its write-oracle table and
/// the bytes after them.
struct CacheImage {
  struct Page {
    Lpn lpn;
    std::uint64_t version;
    std::uint32_t insert_req_pages;
    bool dirty;
    bool reused;
  };
  std::vector<Page> pages;
  Entries oracle;
  std::string rest;

  explicit CacheImage(const std::string& bytes) {
    SnapshotReader r(bytes);
    r.tag("cache");
    const std::uint64_t resident = r.u64();
    for (std::uint64_t i = 0; i < resident; ++i) {
      // Braced initializers evaluate left to right.
      pages.push_back(Page{r.u64(), r.u64(), r.u32(), r.b(), r.b()});
    }
    oracle = read_entries(r);
    rest = bytes.substr(bytes.size() - r.remaining());
  }

  std::string join() const {
    SnapshotWriter w;
    w.tag("cache");
    w.u64(pages.size());
    for (const Page& p : pages) {
      w.u64(p.lpn);
      w.u64(p.version);
      w.u32(p.insert_req_pages);
      w.b(p.dirty);
      w.b(p.reused);
    }
    write_entries(w, oracle);
    return w.take() + rest;
  }
};

class OracleRestoreRefusalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testing::Harness h(testing::policy_config("lru", 4), cfg_);
    // Five pages through a four-page cache: one eviction reaches flash,
    // and every written page gets an oracle entry.
    for (std::uint64_t i = 0; i < 5; ++i) {
      h.serve(testing::write_req(i, 30 + i, 1, static_cast<SimTime>(i)));
    }
    h.serve(testing::write_req(5, 31, 1, 10));
    SnapshotWriter w;
    h.cache->serialize(w);
    bytes_ = w.take();
  }

  std::string refusal(const std::string& bytes) const {
    testing::Harness fresh(testing::policy_config("lru", 4), cfg_);
    SnapshotReader r(bytes);
    try {
      fresh.cache->deserialize(r);
    } catch (const SnapshotError& e) {
      return e.what();
    }
    return "";
  }

  const SsdConfig cfg_ = testing::micro_ssd();
  std::string bytes_;
};

TEST_F(OracleRestoreRefusalTest, UnmodifiedImageRestores) {
  CacheImage image(bytes_);
  ASSERT_EQ(image.oracle.size(), 5u);
  EXPECT_EQ(image.oracle[1], (std::pair<Lpn, std::uint64_t>{31, 2}));
  // The page table is written in ascending LPN order.
  ASSERT_EQ(image.pages.size(), 4u);
  for (std::size_t i = 0; i < image.pages.size(); ++i) {
    EXPECT_EQ(image.pages[i].lpn, 31 + i);
  }
  EXPECT_EQ(image.join(), bytes_);
  EXPECT_EQ(refusal(bytes_), "");
}

TEST_F(OracleRestoreRefusalTest, PageTableLpnBeyondThe32BitSpace) {
  // Accepted, this page would fail FlashArray's 32-bit check when flushed.
  CacheImage image(bytes_);
  image.pages.back().lpn = 1ULL << 32;
  EXPECT_TRUE(Names(refusal(image.join()), "page table entry for lpn "
                                           "4294967296"));
  EXPECT_TRUE(Names(refusal(image.join()), "32-bit"));
}

TEST_F(OracleRestoreRefusalTest, PageTableLpnAtTheTopOfThe64BitSpace) {
  // 2^64 - 1 is also the slot map's free-slot key: refused before it
  // reaches either map.
  CacheImage image(bytes_);
  image.pages.front().lpn = ~Lpn{0};
  EXPECT_TRUE(Names(refusal(image.join()), "page table entry for lpn "
                                           "18446744073709551615"));
  EXPECT_TRUE(Names(refusal(image.join()), "32-bit"));
}

TEST_F(OracleRestoreRefusalTest, PageTableRepeatedLpn) {
  CacheImage image(bytes_);
  image.pages[2].lpn = image.pages[1].lpn;
  EXPECT_TRUE(
      Names(refusal(image.join()), "page table entry for lpn 32 is repeated"));
}

TEST_F(OracleRestoreRefusalTest, AbsentSentinelAsAVersion) {
  CacheImage image(bytes_);
  image.oracle[2].second = ~std::uint64_t{0};
  EXPECT_TRUE(Names(refusal(image.join()), "write-oracle table"));
  EXPECT_TRUE(Names(refusal(image.join()), "absent sentinel"));
}

TEST_F(OracleRestoreRefusalTest, VersionZeroIsAccepted) {
  // Power loss and uncorrectable reads roll entries back to version 0;
  // such an entry is present, not absent.
  CacheImage image(bytes_);
  image.oracle[0].second = 0;
  EXPECT_EQ(refusal(image.join()), "");
}

TEST_F(OracleRestoreRefusalTest, RepeatedOrOutOfRangeLpn) {
  CacheImage repeated(bytes_);
  repeated.oracle[3].first = repeated.oracle[2].first;
  EXPECT_TRUE(Names(refusal(repeated.join()), "write-oracle table"));
  EXPECT_TRUE(Names(refusal(repeated.join()), "repeated"));

  CacheImage beyond(bytes_);
  beyond.oracle.back().first = 1ULL << 32;
  EXPECT_TRUE(Names(refusal(beyond.join()), "32-bit"));
}

}  // namespace
}  // namespace reqblock
