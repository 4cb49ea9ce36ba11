#include "fault/fault.h"

#include "snapshot/snapshot.h"

namespace reqblock {

void FaultPlan::validate() const {
  check_knobs(kFaultKnobs, *this);
  aging.validate();
  integrity.validate();
}

void FaultPlan::apply_cli(const ArgParser& args) {
  apply_knobs(kFaultKnobs, *this, args);
  apply_knobs(kAgingKnobs, aging, args);
  apply_knobs(kIntegrityKnobs, integrity, args);
}

namespace {

/// Combined base + aging probability, held below 1 so every bounded
/// retry/retire loop still terminates on a success branch.
double combined_prob(double base, double extra) {
  const double p = base + extra;
  return p < 0.999 ? p : 0.999;
}

}  // namespace

FaultInjector::FaultInjector(const FaultPlan& plan)
    : plan_(plan),
      aging_(plan.aging),
      integrity_(plan.integrity),
      rng_(plan.seed) {
  plan_.validate();
  metrics_.enabled = plan_.enabled();
}

IntegrityModel::Outcome FaultInjector::integrity_read_outcome(
    std::uint32_t pe_cycles, std::uint32_t reads, SimTime age) {
  const double p = integrity_.detect_prob(pe_cycles, reads, age);
  const IntegrityModel::Outcome out =
      integrity_.resolve(rng_.next_double(), p);
  IntegrityMetrics& m = metrics_.integrity;
  switch (out.tier) {
    case IntegrityModel::Tier::kClean:
      break;
    case IntegrityModel::Tier::kEccCorrected:
      ++m.ecc_attempts;
      ++m.ecc_corrected;
      break;
    case IntegrityModel::Tier::kRetryCorrected:
      ++m.ecc_attempts;
      ++m.ecc_escalated;
      ++m.retry_corrected;
      m.retry_steps_total += out.retry_steps;
      break;
    case IntegrityModel::Tier::kParity:
      ++m.ecc_attempts;
      ++m.ecc_escalated;
      ++m.retry_escalated;
      m.retry_steps_total += out.retry_steps;
      break;
  }
  return out;
}

bool FaultInjector::inject_program_fault(double extra) {
  const double p = combined_prob(plan_.program_fail_prob, extra);
  if (p <= 0.0) return false;
  if (!rng_.next_bool(p)) return false;
  ++metrics_.program_faults;
  return true;
}

bool FaultInjector::inject_read_fault(double extra) {
  const double p = combined_prob(plan_.read_fail_prob, extra);
  if (p <= 0.0) return false;
  if (!rng_.next_bool(p)) return false;
  ++metrics_.read_faults;
  return true;
}

bool FaultInjector::inject_erase_fault(double extra) {
  const double p = combined_prob(plan_.erase_fail_prob, extra);
  if (p <= 0.0) return false;
  if (!rng_.next_bool(p)) return false;
  ++metrics_.erase_faults;
  return true;
}

SimTime FaultInjector::program_backoff(std::uint32_t chip) {
  if (chip_fail_streak_.size() <= chip) chip_fail_streak_.resize(chip + 1, 0);
  const std::uint32_t streak = chip_fail_streak_[chip]++;
  return plan_.retry_backoff << (streak < 6 ? streak : 6);
}

void FaultInjector::note_program_success(std::uint32_t chip) {
  if (chip < chip_fail_streak_.size()) chip_fail_streak_[chip] = 0;
}

void FaultInjector::reset_metrics() {
  const bool enabled = metrics_.enabled;
  // degraded_planes describes current device state (like cache contents,
  // it carries across the warmup boundary); the event counters reset.
  const std::uint64_t degraded = metrics_.degraded_planes;
  metrics_ = FaultMetrics{};
  metrics_.enabled = enabled;
  metrics_.degraded_planes = degraded;
}

void FaultMetrics::serialize(SnapshotWriter& w) const {
  w.tag("fault_metrics");
  write_fields(kFaultMetricsFields, *this, w);
}

std::size_t FaultMetrics::snapshot_bytes() const {
  return SnapshotWriter::tag_bytes("fault_metrics") +
         fields_bytes(kFaultMetricsFields, *this);
}

void FaultMetrics::deserialize(SnapshotReader& r) {
  r.tag("fault_metrics");
  read_fields(kFaultMetricsFields, *this, r);
}

void FaultInjector::serialize(SnapshotWriter& w) const {
  w.tag("fault_injector");
  reqblock::serialize(w, rng_);
  w.vec_u32(chip_fail_streak_);
  metrics_.serialize(w);
}

std::size_t FaultInjector::snapshot_bytes() const {
  return SnapshotWriter::tag_bytes("fault_injector") + 4 * 8 + 8 +
         4 * chip_fail_streak_.size() + metrics_.snapshot_bytes();
}

void FaultInjector::deserialize(SnapshotReader& r) {
  r.tag("fault_injector");
  reqblock::deserialize(r, rng_);
  chip_fail_streak_ = r.vec_u32();
  metrics_.deserialize(r);
}

}  // namespace reqblock
