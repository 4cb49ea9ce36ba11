// Unit tests for the audit framework itself (src/util/audit.h): level
// gating, env-string parsing, report collection, lazy dumps, the RAII
// scope, and — the payoff — that a deliberately corrupted ReqBlockPolicy
// is caught by its own audit with a report naming the broken invariant.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/req_block_policy.h"
#include "test_util.h"
#include "util/audit.h"

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

TEST(AuditLevelControl, ParseRecognizesAllSpellings) {
  const AuditLevel fb = AuditLevel::kLight;
  EXPECT_EQ(parse_audit_level("off", fb), AuditLevel::kOff);
  EXPECT_EQ(parse_audit_level("0", fb), AuditLevel::kOff);
  EXPECT_EQ(parse_audit_level("none", fb), AuditLevel::kOff);
  EXPECT_EQ(parse_audit_level("light", fb), AuditLevel::kLight);
  EXPECT_EQ(parse_audit_level("1", fb), AuditLevel::kLight);
  EXPECT_EQ(parse_audit_level("full", fb), AuditLevel::kFull);
  EXPECT_EQ(parse_audit_level("2", fb), AuditLevel::kFull);
  EXPECT_EQ(parse_audit_level("on", fb), AuditLevel::kFull);
  EXPECT_EQ(parse_audit_level("", fb), fb);
  EXPECT_EQ(parse_audit_level("garbage", AuditLevel::kFull),
            AuditLevel::kFull);
}

TEST(AuditLevelControl, SetReturnsPreviousAndClampsToCompiledMax) {
  const AuditLevel before = set_audit_level(AuditLevel::kOff);
  EXPECT_EQ(audit_level(), AuditLevel::kOff);
  EXPECT_EQ(set_audit_level(AuditLevel::kFull), AuditLevel::kOff);
  EXPECT_LE(audit_level(), kAuditCompiledMax);
  set_audit_level(before);
}

TEST(AuditLevelControl, EnabledRespectsRuntimeLevel) {
  AuditLevelGuard guard(AuditLevel::kLight);
  EXPECT_TRUE(audit_enabled(AuditLevel::kLight));
  EXPECT_FALSE(audit_enabled(AuditLevel::kFull));
  set_audit_level(AuditLevel::kOff);
  EXPECT_FALSE(audit_enabled(AuditLevel::kLight));
}

TEST(AuditReportTest, CollectsEveryFailureNotJustTheFirst) {
  AuditReport report("subject");
  EXPECT_TRUE(report.ok());
  EXPECT_FALSE(report.require(false, "first rule", "detail one"));
  EXPECT_TRUE(report.require(true, "healthy rule"));
  report.fail("second rule");
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.failure_count(), 2u);
  const std::string text = report.to_string();
  EXPECT_NE(text.find("subject"), std::string::npos);
  EXPECT_NE(text.find("first rule"), std::string::npos);
  EXPECT_NE(text.find("detail one"), std::string::npos);
  EXPECT_NE(text.find("second rule"), std::string::npos);
}

TEST(AuditReportTest, ThrowIfFailedCarriesTheFullReport) {
  AuditReport report("ftl");
  report.fail("l2p roundtrip", "lpn 7 maps to an erased page");
  try {
    report.throw_if_failed();
    FAIL() << "failed report did not throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("lpn 7"), std::string::npos);
  }
  AuditReport clean("ok");
  EXPECT_NO_THROW(clean.throw_if_failed());
}

TEST(AuditReportTest, DumpIsLazyAndOnlyRenderedOnFailure) {
  int renders = 0;
  {
    AuditReport healthy("h");
    healthy.attach_dump([&renders] {
      ++renders;
      return std::string("dump");
    });
    EXPECT_NE(healthy.to_string().find("ok"), std::string::npos);
  }
  EXPECT_EQ(renders, 0) << "dump rendered for a passing report";
  AuditReport failing("f");
  failing.attach_dump([&renders] {
    ++renders;
    return std::string("the structural dump");
  });
  failing.fail("broken");
  EXPECT_NE(failing.to_string().find("the structural dump"),
            std::string::npos);
  EXPECT_EQ(renders, 1);
}

TEST(AuditMacros, DetailExpressionOnlyEvaluatedOnFailure) {
  AuditReport report("macros");
  int detail_builds = 0;
  auto detail = [&detail_builds] {
    ++detail_builds;
    return std::string("built");
  };
  EXPECT_TRUE(REQB_AUDIT_MSG(report, true, detail()));
  EXPECT_EQ(detail_builds, 0);
  EXPECT_FALSE(REQB_AUDIT_MSG(report, false, detail()));
  EXPECT_EQ(detail_builds, 1);
  EXPECT_TRUE(REQB_AUDIT(report, 1 < 2));
  EXPECT_FALSE(REQB_AUDIT(report, 2 < 1));
  EXPECT_EQ(report.failure_count(), 2u);
  // The parameter-free macro records the expression text itself.
  EXPECT_NE(report.to_string().find("2 < 1"), std::string::npos);
}

TEST(RunAudit, SkipsEntirelyWhenLevelDisabled) {
  AuditLevelGuard guard(AuditLevel::kOff);
  bool ran = false;
  run_audit("skipped", AuditLevel::kLight,
            [&ran](AuditReport&) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(RunAudit, RunsAndThrowsWhenEnabled) {
  AuditLevelGuard guard(AuditLevel::kFull);
  bool ran = false;
  EXPECT_NO_THROW(run_audit("healthy", AuditLevel::kFull,
                            [&ran](AuditReport&) { ran = true; }));
  EXPECT_TRUE(ran);
  EXPECT_THROW(run_audit("broken", AuditLevel::kFull,
                         [](AuditReport& r) { r.fail("rule"); }),
               std::logic_error);
}

TEST(AuditScopeTest, AuditsOnNormalExitOnly) {
  AuditLevelGuard guard(AuditLevel::kFull);
  int runs = 0;
  {
    AuditScope scope("scoped", AuditLevel::kFull,
                     [&runs](AuditReport&) { ++runs; });
    EXPECT_EQ(runs, 0) << "scope audited before exit";
  }
  EXPECT_EQ(runs, 1);

  // During unwinding the scope must stay quiet so it cannot mask the
  // original exception with its own.
  try {
    AuditScope scope("unwinding", AuditLevel::kFull,
                     [&runs](AuditReport& r) {
                       ++runs;
                       r.fail("would terminate if thrown while unwinding");
                     });
    throw std::runtime_error("original");
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "original");
  }
  EXPECT_EQ(runs, 1) << "scope audited while unwinding";
}

// The audit must actually catch corruption. Corrupt one field at a time
// through the test-only mutable hook and require a failed report whose
// text names the violated rule.
class ReqBlockAuditDetection : public ::testing::Test {
 protected:
  void SetUp() override {
    ReqBlockOptions opt;
    opt.delta = 3;
    policy_ = std::make_unique<ReqBlockPolicy>(opt);
    const IoRequest req = write_req(1, 0, 4);
    policy_->begin_request(req);
    for (Lpn lpn = 0; lpn < 4; ++lpn) {
      policy_->on_insert(lpn, req, true);
    }
    // Second request promotes one page's block... it is > delta, so this
    // splits page 2 into a DRL block with an origin backpointer.
    const IoRequest hit = write_req(2, 2, 1);
    policy_->begin_request(hit);
    policy_->on_hit(2, hit, true);
  }

  std::string audit_text() {
    AuditReport report("Req-block");
    policy_->audit(report);
    return report.ok() ? std::string() : report.to_string();
  }

  std::unique_ptr<ReqBlockPolicy> policy_;
};

TEST_F(ReqBlockAuditDetection, CleanStateAuditsClean) {
  EXPECT_EQ(audit_text(), "");
}

TEST_F(ReqBlockAuditDetection, CatchesZeroAccessCount) {
  ReqBlock* blk = policy_->mutable_block_for_tests(0);
  ASSERT_NE(blk, nullptr);
  blk->access_cnt = 0;
  EXPECT_NE(audit_text().find("access count 0"), std::string::npos);
}

TEST_F(ReqBlockAuditDetection, CatchesLevelTagMismatch) {
  ReqBlock* blk = policy_->mutable_block_for_tests(0);
  ASSERT_NE(blk, nullptr);
  ASSERT_EQ(blk->level, ReqList::kIRL);
  blk->level = ReqList::kSRL;  // linked on IRL, tagged SRL
  EXPECT_NE(audit_text().find("tagged"), std::string::npos);
}

TEST_F(ReqBlockAuditDetection, CatchesDuplicatePage) {
  ReqBlock* blk = policy_->mutable_block_for_tests(0);
  ASSERT_NE(blk, nullptr);
  // The split moved page 3 into page 2's place on the chain.
  ASSERT_EQ(policy_->pages_of(*blk), (std::vector<Lpn>{0, 1, 3}));
  ReqPageNode* last = policy_->mutable_page_for_tests(3);
  ASSERT_NE(last, nullptr);
  ASSERT_EQ(last->next, kNoSlot);
  last->next = blk->first_page;  // page 0 is linked a second time
  const std::string text = audit_text();
  EXPECT_NE(text.find("duplicate page"), std::string::npos);
}

TEST_F(ReqBlockAuditDetection, CatchesFutureInsertTick) {
  ReqBlock* blk = policy_->mutable_block_for_tests(0);
  ASSERT_NE(blk, nullptr);
  blk->insert_tick = policy_->now() + 100;
  EXPECT_NE(audit_text().find("inserted at tick"), std::string::npos);
}

TEST_F(ReqBlockAuditDetection, CatchesBrokenOriginBackpointer) {
  ReqBlock* drl = policy_->mutable_block_for_tests(2);
  ASSERT_NE(drl, nullptr);
  ASSERT_EQ(drl->level, ReqList::kDRL);
  drl->origin_id = 0;  // DRL block without a split origin
  EXPECT_NE(audit_text().find("without a split origin"), std::string::npos);
}

TEST_F(ReqBlockAuditDetection, CatchesPageTableDesync) {
  ReqPageNode* page = policy_->mutable_page_for_tests(0);
  const ReqPageNode* split = policy_->mutable_page_for_tests(2);
  ASSERT_NE(page, nullptr);
  ASSERT_NE(split, nullptr);
  ASSERT_NE(page->block, split->block);
  // Page 0 stays on its block's chain but its node names the DRL block.
  page->block = split->block;
  EXPECT_NE(audit_text().find("page table disagrees"), std::string::npos);
}

TEST_F(ReqBlockAuditDetection, CatchesListCycleWithoutHanging) {
  ReqBlock* blk = policy_->mutable_block_for_tests(0);
  ASSERT_NE(blk, nullptr);
  ASSERT_EQ(blk->level, ReqList::kIRL);
  // The IRL block was created first, so it sits at slot 0: pointing its
  // next link there closes a cycle that an unchecked walk never leaves.
  blk->link.next = 0;
  EXPECT_NE(audit_text().find("corrupt IRL chain"), std::string::npos);
}

TEST_F(ReqBlockAuditDetection, FailedAuditAttachesStructuralDump) {
  ReqBlock* blk = policy_->mutable_block_for_tests(0);
  ASSERT_NE(blk, nullptr);
  blk->access_cnt = 0;
  EXPECT_NE(audit_text().find("structural dump"), std::string::npos);
  EXPECT_NE(audit_text().find("IRL"), std::string::npos);
}

}  // namespace
}  // namespace reqblock::testing
