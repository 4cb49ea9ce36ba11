// End-to-end data integrity: raw bit errors and the recovery hierarchy.
//
// An IntegrityPlan is the seed-free, immutable description of how raw
// bit errors appear on page senses and what the device does about them.
// The raw-bit-error rate (RBER) is a pure function of the PR 9 wear
// state — P/E cycles, reads since last program, data age — so the model
// needs no randomness of its own: the FaultInjector folds the whole
// recovery cascade into ONE uniform draw per instrumented host read
// (nested thresholds along [0, 1)), keeping aged, error-riddled runs
// byte-identical at any experiment thread count.
//
// Recovery tiers, cheapest first:
//   1. fast ECC correct        — free, the engine rides the sense
//   2. read-retry              — up to N re-senses with escalating
//                                latency; each step shrinks the escape
//                                probability by `retry_relief`
//   3. plane-stripe parity     — RAIN: one parity page per
//                                `stripe_pages` data pages, maintained
//                                on program; a rebuild reads all
//                                stripe-size-1 peer pages through the
//                                normal chip timeline
//   4. uncorrectable           — the page's data is lost; the host sees
//                                a failed read (shed or error, per
//                                `uncorrectable_shed`)
//
// The patrol scrubber is prediction-only (it never draws or decodes):
// during idle windows it walks valid pages under a simulated-time
// budget and refreshes blocks whose predicted RBER nears the ECC limit
// or whose pages accumulated too many corrected errors. Its cursor,
// the stripe-parity map, and the per-page error counters serialize into
// snapshot format v6 and resume byte-identically.
#pragma once

#include <cstdint>
#include <vector>

#include "util/fields.h"
#include "util/knobs.h"
#include "util/types.h"

namespace reqblock {

class SnapshotReader;
class SnapshotWriter;

/// Immutable description of the bit-error model and recovery hierarchy.
/// Folded into the config fingerprint (when enabled) so a checkpoint
/// taken under one integrity model cannot restore under another.
struct IntegrityPlan {
  // --- Raw bit-error model ---------------------------------------------
  /// Base probability that a page sense returns raw bit errors (before
  /// any wear boost). 0 disables the whole subsystem: no draws, no
  /// parity maintenance, no scrub — runs stay bit-identical to builds
  /// without it.
  double rber_base = 0.0;
  /// P/E cycles at which the wear boost contributes `rber_pe_boost`
  /// (quadratic in pe/anchor, uncapped past the anchor). 0 disables the
  /// endurance term.
  std::uint32_t rber_pe_anchor = 0;
  double rber_pe_boost = 0.0;
  /// Reads-since-program at which the disturb boost contributes
  /// `rber_read_boost` (linear, saturates at the anchor). 0 disables.
  std::uint32_t rber_read_anchor = 0;
  double rber_read_boost = 0.0;
  /// Data age at which the retention boost contributes `rber_age_boost`
  /// (linear, saturates at the anchor). 0 disables.
  SimTime rber_age_anchor = 0;
  double rber_age_boost = 0.0;

  // --- Tier 1: fast ECC ------------------------------------------------
  /// P(the fast ECC engine cannot correct | raw bit errors present).
  double ecc_escape = 0.05;

  // --- Tier 2: read retry ----------------------------------------------
  /// Re-sense attempts before escalating to the parity tier. 0 sends
  /// ECC escapes straight to parity.
  std::uint32_t read_retry_steps = 3;
  /// Escape-probability shrink factor per retry step (step k fails with
  /// ecc_escape * retry_relief^k, conditioned on raw errors).
  double retry_relief = 0.25;
  /// Chip time for the first re-sense; step k charges k * this
  /// (deeper retry voltages sense slower).
  SimTime retry_step_latency = 40 * kMicrosecond;

  // --- Tier 3: plane-stripe parity (RAIN) ------------------------------
  /// Data pages per parity stripe (consecutive physical pages of one
  /// block; the parity page lives in the modeled spare area, so the
  /// stripe *size* is stripe_pages + 1). 0 disables the parity tier:
  /// retry escapes become uncorrectable. Parity is programmed when the
  /// stripe's last data page programs, charging one real page program
  /// on the chip timeline.
  std::uint32_t stripe_pages = 0;

  // --- Tier 4: uncorrectable -------------------------------------------
  /// true: the failed host read is shed like a degraded-mode write
  /// (counted, excluded from the response histograms); false: it
  /// completes as a host-visible error after the full recovery cost and
  /// stays in the histograms.
  bool uncorrectable_shed = false;

  // --- Patrol scrub -----------------------------------------------------
  /// Attempt one scrub pass per this many served requests, during idle
  /// windows only (0 = no patrol).
  std::uint64_t scrub_every_requests = 0;
  /// Simulated chip time one pass may spend examining pages.
  SimTime scrub_time_budget = 2 * kMillisecond;
  /// Refresh a block once any valid page's predicted raw-bit-error
  /// probability reaches this (0 = trigger disabled).
  double scrub_rber_threshold = 0.0;
  /// Refresh a block once any page accumulated this many corrected
  /// errors (0 = trigger disabled).
  std::uint32_t scrub_error_limit = 0;

  /// True when the bit-error model can fire. Disabled plans are never
  /// consulted: error-free hot paths stay bit-identical to builds
  /// without this subsystem.
  bool enabled() const { return rber_base > 0.0; }

  /// Throws std::invalid_argument on out-of-range or inconsistent knobs.
  void validate() const;
};

/// Re-sense steps per read: IntegrityModel keeps a table of steps + 1
/// relief powers and walks it on every escalated read.
inline constexpr Range kRetrySteps{0.0, 1024.0, false, false, "in [0, 1024]"};

/// Every IntegrityPlan knob, in fingerprint order (src/util/knobs.h).
inline constexpr auto kIntegrityKnobs = std::tuple{
    Knob{"integrity-rber", REQB_KNOB_FIELD(rber_base), kNumber, kProbability},
    Knob{"integrity-rber-pe-anchor", REQB_KNOB_FIELD(rber_pe_anchor), kInteger},
    Knob{"integrity-rber-pe-boost", REQB_KNOB_FIELD(rber_pe_boost),
         kNumber, kNonNegative},
    Knob{"integrity-rber-read-anchor", REQB_KNOB_FIELD(rber_read_anchor),
         kInteger},
    Knob{"integrity-rber-read-boost", REQB_KNOB_FIELD(rber_read_boost),
         kNumber, kNonNegative},
    Knob{"integrity-rber-age-anchor-ms", REQB_KNOB_FIELD(rber_age_anchor),
         kMsInteger, kNonNegative},
    Knob{"integrity-rber-age-boost", REQB_KNOB_FIELD(rber_age_boost),
         kNumber, kNonNegative},
    Knob{"integrity-ecc-escape", REQB_KNOB_FIELD(ecc_escape), kNumber,
         kFraction},
    Knob{"integrity-retry-steps", REQB_KNOB_FIELD(read_retry_steps), kInteger,
         kRetrySteps},
    Knob{"integrity-retry-relief", REQB_KNOB_FIELD(retry_relief),
         kNumber, kFraction},
    Knob{"integrity-retry-step-us", REQB_KNOB_FIELD(retry_step_latency),
         kUsInteger, kNonNegative},
    Knob{"integrity-stripe-pages", REQB_KNOB_FIELD(stripe_pages), kInteger},
    Knob{"integrity-uncorrectable-shed", REQB_KNOB_FIELD(uncorrectable_shed),
         kSwitch},
    Knob{"integrity-scrub-every", REQB_KNOB_FIELD(scrub_every_requests),
         kInteger},
    Knob{"integrity-scrub-budget-us", REQB_KNOB_FIELD(scrub_time_budget),
         kUsInteger},
    Knob{"integrity-scrub-rber", REQB_KNOB_FIELD(scrub_rber_threshold),
         kNumber, kFraction},
    Knob{"integrity-scrub-error-limit", REQB_KNOB_FIELD(scrub_error_limit),
         kInteger},
};

/// Pure threshold math over an IntegrityPlan: maps wear state to the
/// detect probability and splits one uniform variate into a recovery
/// outcome. Stateless apart from precomputed reciprocals and relief
/// powers — nothing here touches an RNG or needs serialization.
class IntegrityModel {
 public:
  /// Where the cascade stopped. The parity tier's split (rebuild vs
  /// uncorrectable) depends on stripe state only the FTL knows, so the
  /// model stops at kParity.
  enum class Tier : std::uint8_t {
    kClean,           // no raw bit errors on this sense
    kEccCorrected,    // tier 1 fixed it, free
    kRetryCorrected,  // tier 2 fixed it after `retry_steps` re-senses
    kParity,          // retries exhausted; rebuild or lose the page
  };
  struct Outcome {
    Tier tier = Tier::kClean;
    /// Re-sense steps performed (for kRetryCorrected the last one
    /// succeeded; for kParity all plan.read_retry_steps failed).
    std::uint32_t retry_steps = 0;
  };

  IntegrityModel() = default;
  explicit IntegrityModel(const IntegrityPlan& plan);

  const IntegrityPlan& plan() const { return plan_; }
  bool enabled() const { return plan_.enabled(); }

  /// Predicted probability that a sense of a page with this wear state
  /// returns raw bit errors. Pure; also drives the patrol scrubber's
  /// refresh decisions. Clamped below 1 so the clean branch stays
  /// reachable.
  double detect_prob(std::uint32_t pe_cycles, std::uint32_t reads,
                     SimTime age) const;

  /// Splits one uniform draw u in [0, 1) into an outcome via nested
  /// thresholds: u >= p_detect is clean; below that, successively
  /// smaller slices escalate tier by tier. Monotone in u, so a fixed
  /// seed yields a fixed recovery mix.
  Outcome resolve(double u, double p_detect) const;

  /// Chip time of re-sense step `step` (1-based, escalating).
  SimTime retry_step_cost(std::uint32_t step) const {
    return plan_.retry_step_latency * static_cast<SimTime>(step);
  }

  /// Patrol decision: refresh a block whose worst page predicts
  /// `p_detect` and accumulated `page_errors` corrected errors.
  bool scrub_refresh_due(double p_detect, std::uint32_t page_errors) const {
    if (plan_.scrub_rber_threshold > 0.0 &&
        p_detect >= plan_.scrub_rber_threshold) {
      return true;
    }
    return plan_.scrub_error_limit > 0 &&
           page_errors >= plan_.scrub_error_limit;
  }

 private:
  IntegrityPlan plan_;
  double inv_pe_ = 0.0;
  double inv_read_ = 0.0;
  double inv_age_ = 0.0;
  /// retry_relief^k for k = 0..read_retry_steps.
  std::vector<double> relief_pow_;
};

/// Everything the recovery hierarchy counted. Reconciled 1:1 against
/// the integrity TraceEvents and the report/CSV columns by the test
/// suite. Conservation identities (tested):
///   ecc_attempts   == ecc_corrected   + ecc_escalated
///   ecc_escalated  == retry_corrected + retry_escalated
///   retry_escalated == parity_rebuilds + uncorrectable
///   uncorrectable  == host_reads_lost
///   parity_peer_reads == parity_rebuilds * stripe_pages
struct IntegrityMetrics {
  std::uint64_t ecc_attempts = 0;     // senses with raw bit errors
  std::uint64_t ecc_corrected = 0;    // kEccCorrect events
  std::uint64_t ecc_escalated = 0;    // escaped the fast engine
  std::uint64_t retry_corrected = 0;  // fixed within the retry budget
  std::uint64_t retry_escalated = 0;  // retries exhausted
  std::uint64_t retry_steps_total = 0;  // kReadRetryStep events
  std::uint64_t parity_rebuilds = 0;    // kParityRebuild events
  std::uint64_t parity_peer_reads = 0;  // sum of their peer-read args
  std::uint64_t uncorrectable = 0;      // kUncorrectable events
  std::uint64_t host_reads_lost = 0;    // reads reported lost to the host
  std::uint64_t patrol_scrubs = 0;      // kPatrolScrub events
  std::uint64_t patrol_pages_moved = 0;   // sum of their page args
  std::uint64_t patrol_pages_examined = 0;
  SimTime recovery_time_total = 0;  // retry + rebuild latency charged

  /// True when the run saw bit errors or patrol activity; gates the
  /// integrity CSV columns and summary so error-free exports keep the
  /// historical layout byte for byte.
  bool any() const {
    return ecc_attempts > 0 || patrol_scrubs > 0 ||
           patrol_pages_examined > 0;
  }

  void serialize(SnapshotWriter& w) const;
  void deserialize(SnapshotReader& r);
};

/// IntegrityMetrics' fields in snapshot order (src/util/fields.h).
inline constexpr auto kIntegrityMetricsFields = std::tuple{
    Field{REQB_KNOB_FIELD(ecc_attempts)},
    Field{REQB_KNOB_FIELD(ecc_corrected)},
    Field{REQB_KNOB_FIELD(ecc_escalated)},
    Field{REQB_KNOB_FIELD(retry_corrected)},
    Field{REQB_KNOB_FIELD(retry_escalated)},
    Field{REQB_KNOB_FIELD(retry_steps_total)},
    Field{REQB_KNOB_FIELD(parity_rebuilds)},
    Field{REQB_KNOB_FIELD(parity_peer_reads)},
    Field{REQB_KNOB_FIELD(uncorrectable)},
    Field{REQB_KNOB_FIELD(host_reads_lost)},
    Field{REQB_KNOB_FIELD(patrol_scrubs)},
    Field{REQB_KNOB_FIELD(patrol_pages_moved)},
    Field{REQB_KNOB_FIELD(patrol_pages_examined)},
    Field{REQB_KNOB_FIELD(recovery_time_total)},
};

}  // namespace reqblock
