// reqblock-lint — project-specific determinism & serialization linter.
//
// The whole simulator rests on one contract: equal logical state must
// produce equal bytes, on any host, at any thread count, in any locale.
// The runtime side of that contract is enforced by the cmp-style
// determinism tests; this tool enforces the *source* side, at review
// time, with a token/AST-lite scan over src/, bench/ and examples/:
//
//   no-wallclock               wall-clock time sources outside the
//                              profiler allowlist
//   no-ambient-rng             rand()/<random> engines instead of the
//                              seeded xoshiro stream in util/rng.h
//   no-raw-ofstream            file output that bypasses
//                              util/atomic_file or SnapshotWriter
//   no-unordered-serialization hash-order iteration (or a slot map's
//                              for_each_unordered slab walk) inside an
//                              emission (serialize/report/CSV) function
//   no-raw-float-format        locale/precision-dependent float
//                              formatting instead of format_double
//   check-macro-hygiene        side effects inside compiled-out
//                              REQB_DCHECK / REQB_AUDIT macros
//
// A finding is suppressed by a comment `// REQB_LINT_ALLOW(rule-id):
// justification` on the offending line or on a line of its own directly
// above it. The library half (this header) is what the fixture tests
// link against; tools/reqblock-lint/main.cc is the thin CLI.
#pragma once

#include <set>
#include <string>
#include <vector>

namespace reqblock::lint {

/// One diagnostic. `line_text` is the trimmed source line the finding
/// anchors to; baseline keys hash it instead of the line number so a
/// baseline survives unrelated edits above the finding.
struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
  std::string line_text;
};

struct Options {
  /// Rule ids whose detection logic is switched off entirely.
  std::set<std::string> disabled;
  /// When false, REQB_LINT_ALLOW comments are ignored (used by the
  /// fixture tests to prove a suppressed violation is still detected).
  bool honor_suppressions = true;
};

struct Report {
  std::vector<Finding> findings;
  int suppressed = 0;
  int files_scanned = 0;
};

struct RuleInfo {
  const char* id;
  const char* summary;
  const char* fix_suggestion;
};

/// The full rule catalog, in stable documentation order.
const std::vector<RuleInfo>& rule_catalog();
bool is_known_rule(const std::string& id);

/// Expands files/directories into the sorted list of C++ sources to scan
/// (.h/.hpp/.cc/.cpp/.cxx; hidden directories and build/ are skipped).
/// On error returns an empty list and sets *error.
std::vector<std::string> collect_sources(const std::vector<std::string>& paths,
                                         std::string* error);

/// Lints one in-memory translation unit; appends to out->findings and
/// bumps the suppression counter. `path` is used for diagnostics and for
/// the handful of path-scoped heuristics (bench/examples are report
/// contexts end to end).
void lint_content(const std::string& path, const std::string& content,
                  const Options& options, Report* out);

/// Reads and lints one file. Returns false (and sets *error) if the file
/// cannot be read.
bool lint_file(const std::string& path, const Options& options, Report* out,
               std::string* error);

/// collect_sources + lint_file over every hit, findings sorted by
/// (file, line, rule).
Report lint_paths(const std::vector<std::string>& paths,
                  const Options& options, std::string* error);

/// Baseline support: a baseline freezes today's accepted findings so CI
/// can gate on "no *new* findings". Keys are file|rule|fnv1a64(line_text),
/// deliberately line-number-free.
std::string baseline_key(const Finding& f);
std::string render_baseline(const std::vector<Finding>& findings);
/// Returns the findings not covered by the baseline text (multiset
/// semantics: N baseline entries absorb at most N identical findings).
/// *baselined (optional) receives the number absorbed.
std::vector<Finding> apply_baseline(const std::vector<Finding>& findings,
                                    const std::string& baseline_text,
                                    int* baselined);

}  // namespace reqblock::lint
