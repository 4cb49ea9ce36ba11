// Invariant-audit framework.
//
// Audits are deep structural self-checks that the major stateful components
// (cache policies, CacheManager, FTL, FlashArray) expose as `audit()`
// methods. Unlike REQB_CHECK — a single hot-path assertion that throws at
// the first violated expression — an audit walks a whole structure,
// *collects* every violated invariant into an AuditReport, attaches a
// structural dump, and only then raises, so one failure message shows the
// full picture instead of the first symptom.
//
// Two gates control the cost:
//   * compile time: REQBLOCK_AUDIT_MAX_LEVEL (CMake option of the same
//     name) caps the level that can ever run; at 0 every run_audit call
//     compiles down to a level check against a constant and dead code.
//   * run time: the REQBLOCK_AUDIT environment variable ("off", "light",
//     "full") or set_audit_level() select the active level, clamped to the
//     compiled maximum. Tests drive "full"; the default is "light".
//
// Level semantics:
//   * kLight — O(1)/O(lists) counter cross-checks, cheap enough to leave on
//     in every run (this is the default);
//   * kFull  — O(n) deep walks: every list node, every page mapping, every
//     physical page counter, after every mutation batch.
#pragma once

#include <exception>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace reqblock {

enum class AuditLevel : int { kOff = 0, kLight = 1, kFull = 2 };

inline const char* to_string(AuditLevel l) {
  switch (l) {
    case AuditLevel::kOff: return "off";
    case AuditLevel::kLight: return "light";
    case AuditLevel::kFull: return "full";
  }
  return "?";
}

/// Compile-time ceiling for audit work (0 = compiled out, 1 = light,
/// 2 = full). Overridable via -DREQBLOCK_AUDIT_MAX_LEVEL=<n>.
#ifndef REQBLOCK_AUDIT_MAX_LEVEL
#define REQBLOCK_AUDIT_MAX_LEVEL 2
#endif

inline constexpr AuditLevel kAuditCompiledMax =
    static_cast<AuditLevel>(REQBLOCK_AUDIT_MAX_LEVEL);

/// Active level: min(compiled max, runtime selection). The runtime value is
/// initialized from the REQBLOCK_AUDIT environment variable on first use,
/// which throws std::invalid_argument naming the variable and its value
/// when the text names no level.
AuditLevel audit_level();

/// Overrides the runtime level (clamped to the compiled maximum). Returns
/// the previous runtime level so tests can restore it. Thread-safe.
AuditLevel set_audit_level(AuditLevel level);

/// Parses an REQBLOCK_AUDIT-style string ("off"/"0"/"none", "light"/"1",
/// "full"/"2"/"on"); nullopt for unrecognized text.
std::optional<AuditLevel> audit_level_from_name(std::string_view text);

/// audit_level_from_name, with `fallback` for unrecognized text.
AuditLevel parse_audit_level(std::string_view text, AuditLevel fallback);

/// True when audits at `level` are both compiled in and runtime-enabled.
inline bool audit_enabled(AuditLevel level) {
  if (kAuditCompiledMax < level) return false;
  return audit_level() >= level;
}

/// One violated invariant.
struct AuditFailure {
  std::string invariant;  // the checked expression / rule name
  std::string detail;     // instance data: ids, counts, expected vs actual
};

/// Collects invariant violations for one audited subject. Cheap when
/// everything passes: failure strings and dumps are only materialized on
/// violation.
class AuditReport {
 public:
  explicit AuditReport(std::string subject) : subject_(std::move(subject)) {}

  /// Records a failure unless `ok`; returns `ok` so callers can chain
  /// dependent checks (skip detail checks whose preconditions failed).
  bool require(bool ok, std::string_view invariant,
               std::string_view detail = {}) {
    if (!ok) fail(invariant, detail);
    return ok;
  }

  void fail(std::string_view invariant, std::string_view detail = {}) {
    failures_.push_back(
        AuditFailure{std::string(invariant), std::string(detail)});
  }

  /// Attaches a structural dump rendered only if the report ends up failed
  /// (dumps of large structures are expensive; never pay on success).
  void attach_dump(std::function<std::string()> dump) {
    dump_ = std::move(dump);
  }

  bool ok() const { return failures_.empty(); }
  std::size_t failure_count() const { return failures_.size(); }
  const std::vector<AuditFailure>& failures() const { return failures_; }
  const std::string& subject() const { return subject_; }

  /// Human-readable report: subject, every failure, then the dump.
  std::string to_string() const;

  /// Throws std::logic_error carrying to_string() when any check failed.
  void throw_if_failed() const;

 private:
  std::string subject_;
  std::vector<AuditFailure> failures_;
  std::function<std::string()> dump_;
};

/// Runs `fn(AuditReport&)` when audits at `level` are enabled, then throws
/// if the report collected failures. The report is only constructed when
/// the audit actually runs.
template <typename Fn>
void run_audit(const char* subject, AuditLevel level, Fn&& fn) {
  if (!audit_enabled(level)) return;
  AuditReport report(subject);
  fn(report);
  report.throw_if_failed();
}

/// RAII audit scope: runs the audit when the scope exits *normally* (it
/// stays quiet during unwinding so it never masks the original error).
/// Usage:
///   AuditScope scope("ReqBlockPolicy", AuditLevel::kFull,
///                    [&](AuditReport& r) { policy.audit(r); });
template <typename Fn>
class AuditScope {
 public:
  AuditScope(const char* subject, AuditLevel level, Fn fn)
      : subject_(subject),
        level_(level),
        fn_(std::move(fn)),
        exceptions_at_entry_(std::uncaught_exceptions()) {}

  AuditScope(const AuditScope&) = delete;
  AuditScope& operator=(const AuditScope&) = delete;

  ~AuditScope() noexcept(false) {
    if (std::uncaught_exceptions() > exceptions_at_entry_) return;
    run_audit(subject_, level_, fn_);
  }

 private:
  const char* subject_;
  AuditLevel level_;
  Fn fn_;
  int exceptions_at_entry_;
};

}  // namespace reqblock

/// Records a failed invariant in `report` (detail-free form). Evaluates to
/// the checked condition, like AuditReport::require.
#define REQB_AUDIT(report, expr) (report).require((expr), #expr)

/// Same, with a detail expression evaluated only on failure.
#define REQB_AUDIT_MSG(report, expr, detail) \
  ((expr) ? true : ((report).fail(#expr, (detail)), false))
