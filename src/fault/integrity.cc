#include "fault/integrity.h"

#include <stdexcept>
#include <string>

#include "snapshot/snapshot.h"

namespace reqblock {

namespace {

void check_anchor(double boost, bool anchored, const char* name,
                  const char* anchor_name) {
  if (boost > 0.0 && !anchored) {
    throw std::invalid_argument(std::string(name) + " needs " + anchor_name +
                                " > 0 to anchor the ramp");
  }
}

/// The clean branch of the cascade must stay reachable on any wear
/// state, mirroring the injector's combined-probability clamp.
constexpr double kMaxDetectProb = 0.999;

}  // namespace

void IntegrityPlan::validate() const {
  check_knobs(kIntegrityKnobs, *this);
  check_anchor(rber_pe_boost, rber_pe_anchor > 0, "rber_pe_boost",
               "rber_pe_anchor");
  check_anchor(rber_read_boost, rber_read_anchor > 0, "rber_read_boost",
               "rber_read_anchor");
  check_anchor(rber_age_boost, rber_age_anchor > 0, "rber_age_boost",
               "rber_age_anchor");
  if (scrub_every_requests > 0) {
    if (!enabled()) {
      throw std::invalid_argument(
          "patrol scrub needs rber_base > 0 (nothing to predict without "
          "a bit-error model)");
    }
    if (scrub_time_budget <= 0) {
      throw std::invalid_argument(
          "patrol scrub needs scrub_time_budget > 0");
    }
    if (scrub_rber_threshold <= 0.0 && scrub_error_limit == 0) {
      throw std::invalid_argument(
          "patrol scrub needs scrub_rber_threshold > 0 or "
          "scrub_error_limit > 0 (a pass that can never refresh is a "
          "misconfiguration)");
    }
  }
}

IntegrityModel::IntegrityModel(const IntegrityPlan& plan) : plan_(plan) {
  plan_.validate();
  if (plan_.rber_pe_anchor > 0) {
    inv_pe_ = 1.0 / static_cast<double>(plan_.rber_pe_anchor);
  }
  if (plan_.rber_read_anchor > 0) {
    inv_read_ = 1.0 / static_cast<double>(plan_.rber_read_anchor);
  }
  if (plan_.rber_age_anchor > 0) {
    inv_age_ = 1.0 / static_cast<double>(plan_.rber_age_anchor);
  }
  relief_pow_.resize(plan_.read_retry_steps + 1);
  double pow = 1.0;
  for (std::uint32_t k = 0; k <= plan_.read_retry_steps; ++k) {
    relief_pow_[k] = pow;
    pow *= plan_.retry_relief;
  }
}

double IntegrityModel::detect_prob(std::uint32_t pe_cycles,
                                   std::uint32_t reads, SimTime age) const {
  if (plan_.rber_base <= 0.0) return 0.0;
  double boost = 0.0;
  if (plan_.rber_pe_boost > 0.0) {
    // Quadratic, uncapped past the anchor: the endurance curve keeps
    // climbing (the final clamp, not the ramp, bounds the probability).
    const double f = static_cast<double>(pe_cycles) * inv_pe_;
    boost += plan_.rber_pe_boost * f * f;
  }
  if (plan_.rber_read_boost > 0.0) {
    const double f = static_cast<double>(reads) * inv_read_;
    boost += plan_.rber_read_boost * (f < 1.0 ? f : 1.0);
  }
  if (plan_.rber_age_boost > 0.0 && age > 0) {
    const double f = static_cast<double>(age) * inv_age_;
    boost += plan_.rber_age_boost * (f < 1.0 ? f : 1.0);
  }
  const double p = plan_.rber_base * (1.0 + boost);
  return p < kMaxDetectProb ? p : kMaxDetectProb;
}

IntegrityModel::Outcome IntegrityModel::resolve(double u,
                                                double p_detect) const {
  Outcome out;
  if (u >= p_detect) return out;  // kClean
  // Nested slices: p_fail(k) = p_detect * ecc_escape * relief^k is the
  // probability mass still failing after k re-senses. u landing between
  // p_fail(k) and p_fail(k-1) means step k corrected it.
  const double p_fail_0 = p_detect * plan_.ecc_escape;
  if (u >= p_fail_0) {
    out.tier = Tier::kEccCorrected;
    return out;
  }
  for (std::uint32_t k = 1; k <= plan_.read_retry_steps; ++k) {
    if (u >= p_fail_0 * relief_pow_[k]) {
      out.tier = Tier::kRetryCorrected;
      out.retry_steps = k;
      return out;
    }
  }
  out.tier = Tier::kParity;
  out.retry_steps = plan_.read_retry_steps;
  return out;
}

void IntegrityMetrics::serialize(SnapshotWriter& w) const {
  w.tag("integrity_metrics");
  write_fields(kIntegrityMetricsFields, *this, w);
}

std::size_t IntegrityMetrics::snapshot_bytes() const {
  return SnapshotWriter::tag_bytes("integrity_metrics") +
         fields_bytes(kIntegrityMetricsFields, *this);
}

void IntegrityMetrics::deserialize(SnapshotReader& r) {
  r.tag("integrity_metrics");
  read_fields(kIntegrityMetricsFields, *this, r);
}

}  // namespace reqblock
