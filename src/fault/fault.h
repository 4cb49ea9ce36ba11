// Deterministic fault injection: plan + injector.
//
// A FaultPlan is the seeded, immutable description of every fault a run
// may experience: NAND program/read/erase failure probabilities, the
// bounded program-retry budget with per-chip backoff, the spare-block
// budget behind bad-block retirement, and the power-loss schedule. A
// FaultInjector is the per-run mutable state: one RNG stream (consulted in
// device-operation order, which is deterministic because each simulated
// run is single-threaded), per-chip consecutive-failure counters, and the
// fault accounting the report layer exposes.
//
// Determinism contract: with the same plan, a run produces bit-identical
// results at any experiment thread count (runs own private injectors);
// with every probability at zero and no power loss scheduled, the
// instrumented hot paths never consult the injector and behave exactly
// like a build without this subsystem.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/aging.h"
#include "fault/integrity.h"
#include "util/fields.h"
#include "util/knobs.h"
#include "util/rng.h"
#include "util/types.h"

namespace reqblock {

class SnapshotReader;
class SnapshotWriter;

/// Seeded, immutable description of the faults a run may inject.
struct FaultPlan {
  std::uint64_t seed = 1;

  // --- NAND operation failure probabilities (per attempt) -------------
  double program_fail_prob = 0.0;
  double read_fail_prob = 0.0;
  double erase_fail_prob = 0.0;

  // --- Program retry ---------------------------------------------------
  /// Failed program attempts tolerated per page write before the block is
  /// declared bad; the attempt after the last retry always succeeds (on a
  /// fresh block), bounding the retry loop.
  std::uint32_t max_program_retries = 3;
  /// Base chip backoff after a failed program; doubles per consecutive
  /// failure on the same chip (capped), resets on success.
  SimTime retry_backoff = 50 * kMicrosecond;

  // --- Bad-block retirement --------------------------------------------
  /// Blocks reserved per plane at wiring time. Retiring a block consumes
  /// one spare; when the pool is empty the plane runs degraded.
  std::uint32_t spare_blocks_per_plane = 8;
  /// Extra chip time per program on a degraded plane (read-retry / soft
  /// ECC overhead of running past the spare budget).
  SimTime degraded_program_penalty = 200 * kMicrosecond;

  // --- Power loss -------------------------------------------------------
  /// Drop the volatile write buffer after every N served requests
  /// (0 = never). Deterministic by construction — no RNG involved.
  std::uint64_t power_loss_every_requests = 0;
  /// Fixed controller restart cost charged per power-loss event.
  SimTime power_loss_downtime = 10 * kMillisecond;
  /// Recovery-replay cost per lost dirty page (mapping-journal scan and
  /// rebuild work is proportional to what was in flight).
  SimTime recovery_replay_per_page = 10 * kMicrosecond;

  // --- Device aging -----------------------------------------------------
  /// Lifetime fault ramps and end-of-life behavior (src/fault/aging.h).
  /// Rides inside the fault plan so both share one seed, one injector,
  /// and one RNG stream.
  AgingPlan aging;

  // --- Data integrity ---------------------------------------------------
  /// Raw bit errors and the ECC/retry/parity/uncorrectable recovery
  /// hierarchy (src/fault/integrity.h). Rides inside the fault plan for
  /// the same reason aging does: one seed, one injector, one stream.
  IntegrityPlan integrity;

  /// True when any fault class can fire. Disabled plans are never wired,
  /// so the hot paths keep their fault-free behavior bit-for-bit.
  bool enabled() const {
    return program_fail_prob > 0.0 || read_fail_prob > 0.0 ||
           erase_fail_prob > 0.0 || power_loss_every_requests > 0 ||
           aging.enabled() || integrity.enabled();
  }

  /// Throws std::invalid_argument on out-of-range probabilities, here and
  /// in the aging and integrity blocks.
  void validate() const;

  /// Reads the flags of kFaultKnobs, kAgingKnobs and kIntegrityKnobs;
  /// flags the parser does not carry keep their current value. Every
  /// driver funnels through this one method.
  void apply_cli(const ArgParser& args);
};

/// FaultPlan's own knobs, in fingerprint order (src/util/knobs.h); the
/// aging and integrity blocks have their own tables.
inline constexpr auto kFaultKnobs = std::tuple{
    Knob{"fault-seed", REQB_KNOB_FIELD(seed), kInteger},
    Knob{"fault-program-fail", REQB_KNOB_FIELD(program_fail_prob),
         kNumber, kProbability},
    Knob{"fault-read-fail", REQB_KNOB_FIELD(read_fail_prob), kNumber,
         kProbability},
    Knob{"fault-erase-fail", REQB_KNOB_FIELD(erase_fail_prob),
         kNumber, kProbability},
    Knob{"fault-retries", REQB_KNOB_FIELD(max_program_retries),
         kInteger, kAtLeastOne},
    Knob{nullptr, REQB_KNOB_FIELD(retry_backoff)},
    Knob{"fault-spares", REQB_KNOB_FIELD(spare_blocks_per_plane), kInteger},
    Knob{nullptr, REQB_KNOB_FIELD(degraded_program_penalty)},
    Knob{"fault-power-loss-every", REQB_KNOB_FIELD(power_loss_every_requests),
         kInteger},
    Knob{nullptr, REQB_KNOB_FIELD(power_loss_downtime)},
    Knob{nullptr, REQB_KNOB_FIELD(recovery_replay_per_page)},
};

/// Everything the injector counted. Reconciled 1:1 against fault-class
/// TraceEvents and the report/CSV columns by the test suite.
struct FaultMetrics {
  bool enabled = false;
  std::uint64_t program_faults = 0;   // injected program-attempt failures
  std::uint64_t read_faults = 0;      // injected read failures (1 retry each)
  std::uint64_t erase_faults = 0;     // injected erase failures
  std::uint64_t blocks_retired = 0;   // blocks taken out of service
  std::uint64_t retires_refused = 0;  // retirement denied: no capacity slack
  std::uint64_t bad_block_marks = 0;  // blocks that exhausted their retries
  std::uint64_t degraded_planes = 0;  // planes running past the spare pool
  std::uint64_t power_loss_events = 0;
  std::uint64_t lost_dirty_pages = 0;  // dirty pages dropped by power loss
  SimTime recovery_time_total = 0;     // summed recovery-replay stalls

  // --- Aging (reconciled 1:1 against the aging EventKinds) -------------
  std::uint64_t read_disturb_migrations = 0;  // kReadDisturbMigrate events
  std::uint64_t read_disturb_pages_moved = 0;  // sum of their page args
  std::uint64_t retention_scrubs = 0;          // kRetentionScrub events
  std::uint64_t retention_pages_moved = 0;     // sum of their page args
  std::uint64_t wear_threshold_crossings = 0;  // kWearThreshold events
  std::uint64_t degraded_mode_enters = 0;      // kDegradedModeEnter events
  std::uint64_t degraded_mode_exits = 0;       // kDegradedModeExit events
  std::uint64_t degraded_write_sheds = 0;  // host writes shed in read-mostly

  // --- Data integrity (reconciled against the integrity EventKinds) ----
  IntegrityMetrics integrity;

  /// True when any aging mechanism left a trace in this run.
  bool any_aging() const {
    return read_disturb_migrations > 0 || retention_scrubs > 0 ||
           wear_threshold_crossings > 0 || degraded_mode_enters > 0 ||
           degraded_write_sheds > 0;
  }

  void serialize(SnapshotWriter& w) const;
  void deserialize(SnapshotReader& r);
};

/// FaultMetrics' fields in snapshot order (src/util/fields.h).
inline constexpr auto kFaultMetricsFields = std::tuple{
    Field{REQB_KNOB_FIELD(enabled)},
    Field{REQB_KNOB_FIELD(program_faults)},
    Field{REQB_KNOB_FIELD(read_faults)},
    Field{REQB_KNOB_FIELD(erase_faults)},
    Field{REQB_KNOB_FIELD(blocks_retired)},
    Field{REQB_KNOB_FIELD(retires_refused)},
    Field{REQB_KNOB_FIELD(bad_block_marks)},
    Field{REQB_KNOB_FIELD(degraded_planes)},
    Field{REQB_KNOB_FIELD(power_loss_events)},
    Field{REQB_KNOB_FIELD(lost_dirty_pages)},
    Field{REQB_KNOB_FIELD(recovery_time_total)},
    Field{REQB_KNOB_FIELD(read_disturb_migrations)},
    Field{REQB_KNOB_FIELD(read_disturb_pages_moved)},
    Field{REQB_KNOB_FIELD(retention_scrubs)},
    Field{REQB_KNOB_FIELD(retention_pages_moved)},
    Field{REQB_KNOB_FIELD(wear_threshold_crossings)},
    Field{REQB_KNOB_FIELD(degraded_mode_enters)},
    Field{REQB_KNOB_FIELD(degraded_mode_exits)},
    Field{REQB_KNOB_FIELD(degraded_write_sheds)},
    Field{REQB_KNOB_FIELD(integrity)},
};

class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan);

  const FaultPlan& plan() const { return plan_; }

  /// Ramp math for the plan's aging block (enabled() is false when the
  /// plan carries no aging).
  const AgingModel& aging() const { return aging_; }

  /// Threshold math for the plan's integrity block (enabled() is false
  /// when the plan carries no bit-error model).
  const IntegrityModel& integrity() const { return integrity_; }

  /// Draws, in device-operation order, from the single stream. Each
  /// returns true when the fault fires and counts it. `extra` is the
  /// age-dependent addition (AgingModel ramps) folded into the same
  /// single draw; the combined probability is clamped below 1 so the
  /// bounded retry/retire paths stay reachable. A zero combined
  /// probability never touches the RNG, so unrelated fault classes do
  /// not perturb each other's sequences when toggled off — and aged runs
  /// with zero base probabilities draw exactly one variate per
  /// instrumented operation, same as base-fault runs.
  bool inject_program_fault(double extra = 0.0);
  bool inject_read_fault(double extra = 0.0);
  bool inject_erase_fault(double extra = 0.0);

  /// Recovery cascade for one host page sense: exactly ONE draw from
  /// the single stream (the caller gates on integrity().enabled(), so
  /// disabled runs never reach the RNG), split by nested thresholds
  /// into clean / ECC-corrected / retry-corrected / parity-tier. Counts
  /// the ECC and retry tiers; the parity tier's split (rebuild vs
  /// uncorrectable) is counted by the FTL, which knows stripe state.
  IntegrityModel::Outcome integrity_read_outcome(std::uint32_t pe_cycles,
                                                 std::uint32_t reads,
                                                 SimTime age);

  /// Chip backoff for the next retry after a failed program: the base
  /// doubles per consecutive failure on that chip (capped at 2^6x) and
  /// resets on success.
  SimTime program_backoff(std::uint32_t chip);
  void note_program_success(std::uint32_t chip);

  /// True when the power-loss schedule fires at this served-request count.
  bool power_loss_due(std::uint64_t served_requests) const {
    return plan_.power_loss_every_requests != 0 && served_requests != 0 &&
           served_requests % plan_.power_loss_every_requests == 0;
  }

  FaultMetrics& metrics() { return metrics_; }
  const FaultMetrics& metrics() const { return metrics_; }
  /// Clears the counters (RNG stream and chip state continue). Warmup.
  void reset_metrics();

  /// Checkpoint: RNG stream position, per-chip failure streaks, and the
  /// metrics. The plan itself is not stored — deserialize() restores into
  /// an injector constructed from the identical plan (the run's config
  /// fingerprint covers the plan, so a mismatch is refused upstream).
  void serialize(SnapshotWriter& w) const;
  void deserialize(SnapshotReader& r);

 private:
  FaultPlan plan_;
  AgingModel aging_;
  IntegrityModel integrity_;
  Rng rng_;
  std::vector<std::uint32_t> chip_fail_streak_;
  FaultMetrics metrics_;
};

}  // namespace reqblock
