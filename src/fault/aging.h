// Device aging: lifetime fault ramps over per-block wear state.
//
// An AgingPlan is the seeded-free, immutable description of how the
// device degrades over its life: an endurance curve that scales the
// injector's program/erase failure probabilities with per-block P/E
// cycles, a read-disturb ramp (re-sense faults plus forced migration
// once a block's read count since its last program crosses a limit), a
// retention ramp (read failures plus on-read relocation as data ages),
// and the end-of-life floors behind degraded read-mostly mode. The
// AgingModel precomputes the ramp reciprocals and answers pure
// probability/threshold queries; all randomness still flows through the
// FaultInjector's single xoshiro stream, so aged runs remain
// byte-reproducible at any experiment thread count.
//
// Per-block wear state (P/E counters, read counters since last program,
// data-age stamps) lives in FlashArray and is serialized into snapshots
// (format v5); this header holds only the immutable plan and the pure
// ramp math.
#pragma once

#include <cstdint>

#include "util/knobs.h"
#include "util/types.h"

namespace reqblock {

/// Immutable description of how the device ages. Folded into the config
/// fingerprint (when enabled) so a checkpoint taken under one aging
/// model cannot restore under another.
struct AgingPlan {
  // --- Endurance (P/E wear) --------------------------------------------
  /// Rated P/E cycles per block; the wear ramps reach their max extra
  /// probability here. 0 disables the endurance ramp.
  std::uint32_t rated_pe_cycles = 0;
  /// Extra program-failure probability at rated wear (quadratic ramp:
  /// extra = max * (pe / rated)^2, uncapped past rated).
  double wear_program_fail_max = 0.0;
  /// Extra erase-failure probability at rated wear (same ramp shape).
  double wear_erase_fail_max = 0.0;
  /// Pre-age: every block starts the run with this many P/E cycles
  /// already consumed, so a soak can open mid-life or near end-of-life.
  std::uint32_t initial_pe_cycles = 0;

  // --- Read disturb ----------------------------------------------------
  /// Reads a block tolerates since its last program before the FTL
  /// force-migrates its valid pages. 0 disables the disturb ramp.
  std::uint32_t read_disturb_limit = 0;
  /// Extra read-failure (re-sense) probability as the read count
  /// approaches the limit (linear ramp, saturates at the limit).
  double read_disturb_fail_max = 0.0;

  // --- Retention -------------------------------------------------------
  /// Data age after which a read triggers relocation (retention scrub).
  /// 0 disables the retention ramp.
  SimTime retention_age_limit = 0;
  /// Extra read-failure probability as data age approaches the limit
  /// (linear ramp, saturates at the limit).
  double retention_fail_max = 0.0;

  // --- End of life -----------------------------------------------------
  /// Reclaimable-block floor per plane below which the device enters
  /// degraded read-mostly mode. 0 = auto (GC threshold + 3, one block of
  /// slack above the allocator's hard capacity reserve).
  std::uint32_t eol_free_block_floor = 0;
  /// Extra reclaimable blocks (above the floor) every plane must regain
  /// before degraded mode exits; hysteresis against enter/exit flapping.
  std::uint32_t eol_exit_margin = 1;
  /// Device-wide spare-block floor: once the pool drops below this the
  /// device stays read-mostly for the rest of the run (spares never
  /// regrow). 0 disables the spare trigger.
  std::uint32_t eol_spare_floor = 0;

  /// True when any aging mechanism can fire. A disabled plan is never
  /// consulted: fault-free and aging-free hot paths stay bit-identical
  /// to builds without this subsystem.
  bool enabled() const {
    return rated_pe_cycles > 0 || read_disturb_limit > 0 ||
           retention_age_limit > 0 || eol_spare_floor > 0 ||
           initial_pe_cycles > 0;
  }

  /// Throws std::invalid_argument on out-of-range ramp maxima and on a
  /// ramp without its anchor.
  void validate() const;
};

/// Every AgingPlan knob, in fingerprint order (src/util/knobs.h).
inline constexpr auto kAgingKnobs = std::tuple{
    Knob{"aging-rated-pe", REQB_KNOB_FIELD(rated_pe_cycles), kInteger},
    Knob{"aging-wear-program-max", REQB_KNOB_FIELD(wear_program_fail_max),
         kNumber, kProbability},
    Knob{"aging-wear-erase-max", REQB_KNOB_FIELD(wear_erase_fail_max),
         kNumber, kProbability},
    Knob{"aging-initial-pe", REQB_KNOB_FIELD(initial_pe_cycles), kInteger},
    Knob{"aging-read-disturb-limit", REQB_KNOB_FIELD(read_disturb_limit),
         kInteger},
    Knob{"aging-read-disturb-max", REQB_KNOB_FIELD(read_disturb_fail_max),
         kNumber, kProbability},
    Knob{"aging-retention-limit-ms", REQB_KNOB_FIELD(retention_age_limit),
         kMsInteger, kNonNegative},
    Knob{"aging-retention-max", REQB_KNOB_FIELD(retention_fail_max),
         kNumber, kProbability},
    Knob{"aging-eol-floor", REQB_KNOB_FIELD(eol_free_block_floor), kInteger},
    Knob{"aging-eol-margin", REQB_KNOB_FIELD(eol_exit_margin), kInteger},
    Knob{"aging-eol-spare-floor", REQB_KNOB_FIELD(eol_spare_floor), kInteger},
};

/// Pure ramp math over an AgingPlan: maps per-block wear state to the
/// extra failure probability the injector folds into its single draw,
/// and answers the migration/relocation threshold predicates. Stateless
/// apart from precomputed reciprocals — nothing here touches an RNG or
/// needs serialization.
class AgingModel {
 public:
  AgingModel() = default;
  explicit AgingModel(const AgingPlan& plan);

  const AgingPlan& plan() const { return plan_; }
  bool enabled() const { return plan_.enabled(); }

  /// Extra program-failure probability for a block at `pe_cycles` wear.
  double program_fail_extra(std::uint32_t pe_cycles) const {
    if (plan_.wear_program_fail_max <= 0.0) return 0.0;
    return plan_.wear_program_fail_max * wear_square(pe_cycles);
  }

  /// Extra erase-failure probability for a block at `pe_cycles` wear.
  double erase_fail_extra(std::uint32_t pe_cycles) const {
    if (plan_.wear_erase_fail_max <= 0.0) return 0.0;
    return plan_.wear_erase_fail_max * wear_square(pe_cycles);
  }

  /// Extra read-failure (re-sense) probability for a page in a block
  /// with `reads` reads since its last program and data of age `age`.
  /// Disturb and retention ramps add (each saturates at its limit).
  double read_fail_extra(std::uint32_t reads, SimTime age) const {
    double extra = 0.0;
    if (plan_.read_disturb_fail_max > 0.0 && plan_.read_disturb_limit > 0) {
      double f = static_cast<double>(reads) * inv_disturb_;
      extra += plan_.read_disturb_fail_max * (f < 1.0 ? f : 1.0);
    }
    if (plan_.retention_fail_max > 0.0 && plan_.retention_age_limit > 0 &&
        age > 0) {
      double f = static_cast<double>(age) * inv_retention_;
      extra += plan_.retention_fail_max * (f < 1.0 ? f : 1.0);
    }
    return extra;
  }

  /// True when a block with `reads` reads since its last program must
  /// have its valid pages force-migrated (read-disturb refresh).
  bool read_disturb_migration_due(std::uint32_t reads) const {
    return plan_.read_disturb_limit > 0 && reads >= plan_.read_disturb_limit;
  }

  /// True when data of age `age` must be relocated on read (retention
  /// scrub).
  bool retention_scrub_due(SimTime age) const {
    return plan_.retention_age_limit > 0 && age >= plan_.retention_age_limit;
  }

 private:
  /// (pe / rated)^2, the endurance curve shape; 0 when the ramp is off.
  double wear_square(std::uint32_t pe_cycles) const {
    const double f = static_cast<double>(pe_cycles) * inv_rated_;
    return f * f;
  }

  AgingPlan plan_;
  double inv_rated_ = 0.0;
  double inv_disturb_ = 0.0;
  double inv_retention_ = 0.0;
};

}  // namespace reqblock
