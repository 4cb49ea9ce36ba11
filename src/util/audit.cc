#include "util/audit.h"

#include <atomic>
#include <sstream>
#include <stdexcept>

#include "util/strings.h"

namespace reqblock {

namespace {

AuditLevel clamp_to_compiled(AuditLevel level) {
  if (level < AuditLevel::kOff) return AuditLevel::kOff;
  return level > kAuditCompiledMax ? kAuditCompiledMax : level;
}

std::atomic<int>& level_storage() {
  // REQBLOCK_AUDIT is read once, under the static-init guard.
  static std::atomic<int> level{static_cast<int>(clamp_to_compiled(
      env_value("REQBLOCK_AUDIT", audit_level_from_name, "off, light or full")
          .value_or(AuditLevel::kLight)))};
  return level;
}

}  // namespace

std::optional<AuditLevel> audit_level_from_name(std::string_view text) {
  if (text == "off" || text == "0" || text == "none") return AuditLevel::kOff;
  if (text == "light" || text == "1") return AuditLevel::kLight;
  if (text == "full" || text == "2" || text == "on") return AuditLevel::kFull;
  return std::nullopt;
}

AuditLevel parse_audit_level(std::string_view text, AuditLevel fallback) {
  return audit_level_from_name(text).value_or(fallback);
}

AuditLevel audit_level() {
  return static_cast<AuditLevel>(
      level_storage().load(std::memory_order_relaxed));
}

AuditLevel set_audit_level(AuditLevel level) {
  return static_cast<AuditLevel>(level_storage().exchange(
      static_cast<int>(clamp_to_compiled(level)), std::memory_order_relaxed));
}

std::string AuditReport::to_string() const {
  std::ostringstream os;
  os << "Audit of " << subject_ << ": ";
  if (ok()) {
    os << "ok";
    return os.str();
  }
  os << failures_.size() << " invariant violation"
     << (failures_.size() == 1 ? "" : "s");
  for (const AuditFailure& f : failures_) {
    os << "\n  * " << f.invariant;
    if (!f.detail.empty()) os << " — " << f.detail;
  }
  if (dump_) {
    os << "\n--- structural dump ---\n" << dump_();
  }
  return os.str();
}

void AuditReport::throw_if_failed() const {
  if (!ok()) throw std::logic_error(to_string());
}

}  // namespace reqblock
