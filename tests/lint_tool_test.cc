// reqblock-lint fixture & acceptance tests.
//
// Each rule has a _bad fixture that must trigger it exactly once, an _ok
// twin that must stay silent, and a disabled-rule check proving that the
// finding comes from that rule's detection logic (switch the rule off
// and the fixture stops triggering). On top sit suppression-comment and
// baseline-mode semantics, and the acceptance gate: the production tree
// (src/ bench/ examples/) lints clean with an empty baseline.
#include "lint.h"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace reqblock::lint {
namespace {

std::string fixture(const std::string& name) {
  return std::string(REQB_LINT_FIXTURES_DIR) + "/" + name;
}

Report lint_one(const std::string& file, const Options& options = {}) {
  Report out;
  std::string error;
  EXPECT_TRUE(lint_file(fixture(file), options, &out, &error)) << error;
  return out;
}

struct RuleCase {
  const char* rule;
  const char* bad_fixture;
  const char* ok_fixture;
};

const RuleCase kCases[] = {
    {"no-wallclock", "wallclock_bad.cc", "wallclock_ok.cc"},
    {"no-ambient-rng", "ambient_rng_bad.cc", "ambient_rng_ok.cc"},
    {"no-raw-ofstream", "raw_ofstream_bad.cc", "raw_ofstream_ok.cc"},
    {"no-unordered-serialization", "unordered_serialization_bad.cc",
     "unordered_serialization_ok.cc"},
    {"no-unordered-serialization", "unordered_slab_walk_bad.cc",
     "unordered_slab_walk_ok.cc"},
    {"no-raw-float-format", "raw_float_format_bad.cc",
     "raw_float_format_ok.cc"},
    {"check-macro-hygiene", "check_macro_bad.cc", "check_macro_ok.cc"},
};

TEST(LintFixtures, EachBadFixtureTriggersItsRuleExactlyOnce) {
  for (const RuleCase& c : kCases) {
    const Report r = lint_one(c.bad_fixture);
    ASSERT_EQ(r.findings.size(), 1u)
        << c.bad_fixture << " should trigger exactly one finding";
    EXPECT_EQ(r.findings[0].rule, c.rule) << c.bad_fixture;
    EXPECT_GT(r.findings[0].line, 0) << c.bad_fixture;
    EXPECT_FALSE(r.findings[0].message.empty()) << c.bad_fixture;
    EXPECT_EQ(r.suppressed, 0) << c.bad_fixture;
  }
}

TEST(LintFixtures, EachOkTwinStaysSilent) {
  for (const RuleCase& c : kCases) {
    const Report r = lint_one(c.ok_fixture);
    EXPECT_TRUE(r.findings.empty())
        << c.ok_fixture << " triggered: "
        << (r.findings.empty() ? "" : r.findings[0].rule + ": " +
                                          r.findings[0].message);
  }
}

// The acceptance criterion's teeth: disabling a rule's detection logic
// makes its fixture pass, so the finding demonstrably comes from that
// rule — and the two tests above fail if the logic is broken or removed.
TEST(LintFixtures, DisablingARuleSilencesOnlyThatRule) {
  for (const RuleCase& c : kCases) {
    Options options;
    options.disabled.insert(c.rule);
    const Report r = lint_one(c.bad_fixture, options);
    EXPECT_TRUE(r.findings.empty())
        << c.bad_fixture << " still triggers with " << c.rule
        << " disabled";
    // Disabling any *other* rule must leave the finding intact.
    for (const RuleCase& other : kCases) {
      if (std::string(other.rule) == c.rule) continue;
      Options cross;
      cross.disabled.insert(other.rule);
      const Report kept = lint_one(c.bad_fixture, cross);
      ASSERT_EQ(kept.findings.size(), 1u)
          << c.bad_fixture << " lost its finding when disabling "
          << other.rule;
      EXPECT_EQ(kept.findings[0].rule, c.rule);
    }
  }
}

TEST(LintSuppressions, AllowCommentSilencesAndIsCounted) {
  const Report r = lint_one("suppression.cc");
  EXPECT_TRUE(r.findings.empty());
  EXPECT_EQ(r.suppressed, 1);
}

TEST(LintSuppressions, IgnoredWhenDisabledSoTheViolationIsStillThere) {
  Options options;
  options.honor_suppressions = false;
  const Report r = lint_one("suppression.cc", options);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, "no-wallclock");
  EXPECT_EQ(r.suppressed, 0);
}

TEST(LintBaseline, RoundTripAbsorbsExactlyTheFrozenFindings) {
  const Report r = lint_one("wallclock_bad.cc");
  ASSERT_EQ(r.findings.size(), 1u);
  const std::string baseline = render_baseline(r.findings);
  EXPECT_NE(baseline.find("no-wallclock"), std::string::npos);

  int absorbed = 0;
  const std::vector<Finding> fresh =
      apply_baseline(r.findings, baseline, &absorbed);
  EXPECT_TRUE(fresh.empty());
  EXPECT_EQ(absorbed, 1);

  // A different finding is NOT absorbed by that baseline.
  const Report other = lint_one("ambient_rng_bad.cc");
  ASSERT_EQ(other.findings.size(), 1u);
  int absorbed_other = 0;
  const std::vector<Finding> still =
      apply_baseline(other.findings, baseline, &absorbed_other);
  EXPECT_EQ(still.size(), 1u);
  EXPECT_EQ(absorbed_other, 0);
}

TEST(LintBaseline, KeysSurviveLineNumberDriftButNotContentChanges) {
  Finding f;
  f.file = "a.cc";
  f.rule = "no-wallclock";
  f.line = 10;
  f.line_text = "auto t = std::chrono::system_clock::now();";
  Finding moved = f;
  moved.line = 99;  // same code, shifted by edits above it
  EXPECT_EQ(baseline_key(f), baseline_key(moved));
  Finding changed = f;
  changed.line_text = "auto t2 = std::chrono::system_clock::now();";
  EXPECT_NE(baseline_key(f), baseline_key(changed));
}

TEST(LintBaseline, MultisetSemanticsAbsorbAtMostN) {
  const Report r = lint_one("wallclock_bad.cc");
  ASSERT_EQ(r.findings.size(), 1u);
  // Duplicate the finding; a baseline with ONE entry absorbs only one.
  std::vector<Finding> doubled = {r.findings[0], r.findings[0]};
  int absorbed = 0;
  const std::vector<Finding> fresh =
      apply_baseline(doubled, render_baseline(r.findings), &absorbed);
  EXPECT_EQ(fresh.size(), 1u);
  EXPECT_EQ(absorbed, 1);
}

TEST(LintCatalog, EveryRuleIsDocumentedAndKnown) {
  std::set<std::string> seen;
  for (const RuleInfo& r : rule_catalog()) {
    EXPECT_TRUE(is_known_rule(r.id));
    EXPECT_NE(r.summary[0], '\0');
    EXPECT_NE(r.fix_suggestion[0], '\0');
    seen.insert(r.id);
  }
  EXPECT_EQ(seen.size(), 6u);
  for (const RuleCase& c : kCases) {
    EXPECT_TRUE(seen.count(c.rule) != 0) << c.rule;
  }
  EXPECT_FALSE(is_known_rule("no-such-rule"));
}

TEST(LintSources, CollectsOnlyCppSourcesSorted) {
  std::string error;
  const std::vector<std::string> files =
      collect_sources({REQB_LINT_FIXTURES_DIR}, &error);
  EXPECT_TRUE(error.empty()) << error;
  ASSERT_FALSE(files.empty());
  EXPECT_TRUE(std::is_sorted(files.begin(), files.end()));
  for (const std::string& f : files) {
    EXPECT_EQ(f.find("README.md"), std::string::npos) << f;
  }
  std::string missing_error;
  const std::vector<std::string> none =
      collect_sources({"/no/such/path/anywhere"}, &missing_error);
  EXPECT_TRUE(none.empty());
  EXPECT_FALSE(missing_error.empty());
}

// The acceptance gate, in-process: the production tree lints clean with
// an empty baseline. Suppressions are allowed (that's the allowlist);
// findings are not. tests/ is deliberately out of scope — fixtures and
// test helpers may violate on purpose.
TEST(LintTree, ProductionTreeIsCleanWithEmptyBaseline) {
  const std::string repo = REQB_LINT_REPO_DIR;
  std::string error;
  const Report r = lint_paths(
      {repo + "/src", repo + "/bench", repo + "/examples"}, {}, &error);
  EXPECT_TRUE(error.empty()) << error;
  std::ostringstream all;
  for (const Finding& f : r.findings) {
    all << f.file << ":" << f.line << ": " << f.rule << ": " << f.message
        << "\n";
  }
  EXPECT_TRUE(r.findings.empty()) << all.str();
  EXPECT_GT(r.files_scanned, 100);
  // The allowlist is small and deliberate: profiler + session wall-clock
  // plus the one wall_unix_s stamp in bench_common's LedgerWriter, shared
  // by the attribution, integrity and soak ledgers. A change here means a
  // new wall-clock use slipped in — justify it or remove it.
  EXPECT_EQ(r.suppressed, 7);
}

}  // namespace
}  // namespace reqblock::lint
