// Page-level Flash Translation Layer.
//
// The FTL is the cache layer's view of the flash array: it maps logical
// pages to physical pages, allocates dynamically round-robin across
// channels (striped) or into a single derived plane (colocated — used by
// BPLRU-style whole-block flushes), runs greedy garbage collection, and
// charges all operation timing on per-channel / per-chip FCFS timelines.
//
// The L2P map is a paged LPN table (util/lpn_table.h) of 32-bit PPNs, so
// a lookup is two array loads and the map serializes in LPN order without
// a sort. A 64-bit version travels with every programmed page, stored in
// the flash array's page slot and copied by GC and refresh relocation; it
// is the end-to-end consistency oracle the test suite checks
// read-your-writes against (no payload bytes are simulated).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fault/fault.h"
#include "ssd/address.h"
#include "ssd/config.h"
#include "ssd/flash_array.h"
#include "ssd/timeline.h"
#include "telemetry/attribution.h"
#include "telemetry/metrics_registry.h"
#include "telemetry/profiler.h"
#include "telemetry/trace_buffer.h"
#include "util/audit.h"
#include "util/fields.h"
#include "util/lpn_table.h"
#include "util/types.h"

namespace reqblock {

/// One page of a flush batch.
struct FlushPage {
  Lpn lpn = 0;
  std::uint64_t version = 0;
};

/// Device-internal operation counters.
struct FlashMetrics {
  std::uint64_t host_page_reads = 0;   // flash reads serving host misses
  std::uint64_t host_page_writes = 0;  // flash programs from cache flushes
  std::uint64_t unmapped_reads = 0;    // reads of never-written pages
  std::uint64_t gc_runs = 0;
  std::uint64_t gc_page_moves = 0;
  std::uint64_t erases = 0;

  /// Write amplification factor (programs incl. GC moves / host programs).
  double waf() const {
    return host_page_writes == 0
               ? 0.0
               : static_cast<double>(host_page_writes + gc_page_moves) /
                     static_cast<double>(host_page_writes);
  }

  void serialize(SnapshotWriter& w) const;
  void deserialize(SnapshotReader& r);
  /// The bytes serialize() writes.
  std::size_t snapshot_bytes() const;
};

/// FlashMetrics' fields in snapshot order (src/util/fields.h).
inline constexpr auto kFlashMetricsFields = std::tuple{
    Field{REQB_KNOB_FIELD(host_page_reads)},
    Field{REQB_KNOB_FIELD(host_page_writes)},
    Field{REQB_KNOB_FIELD(unmapped_reads)},
    Field{REQB_KNOB_FIELD(gc_runs)},
    Field{REQB_KNOB_FIELD(gc_page_moves)},
    Field{REQB_KNOB_FIELD(erases)},
};

class Ftl {
 public:
  explicit Ftl(const SsdConfig& cfg);

  struct ReadResult {
    SimTime complete = 0;
    std::uint64_t version = 0;
    bool mapped = false;
    /// The recovery hierarchy was exhausted on this read: the page's data
    /// is gone (mapping dropped, physical page invalidated) and the host
    /// must be told. `complete` still carries the full recovery cost.
    bool lost = false;
  };

  /// Reads one logical page. Issue times must be non-decreasing across
  /// calls (the simulator processes requests in arrival order). When
  /// `attr` is non-null it receives the GC/fault share of the service
  /// interval (latency attribution); timing is identical either way.
  ReadResult read_page(Lpn lpn, SimTime issue, OpAttribution* attr = nullptr);

  /// Declares [begin, end) as holding data written before the simulated
  /// trace started (device pre-conditioning). Reads of such pages are
  /// served from flash with full timing and version 0, without the memory
  /// cost of materializing mappings; the first in-trace write takes over
  /// normally. GC never needs to move pre-existing data (it has no
  /// physical page), which slightly understates GC load — see DESIGN.md.
  void add_preexisting_range(Lpn begin, Lpn end);

  /// Programs a batch of pages.
  ///  * striped (colocate = false): pages round-robin across channels, so
  ///    a batch of N <= channels pages completes in ~1 program time;
  ///  * colocated (colocate = true): every page goes to the *channel*
  ///    derived from the first page's logical block (striped over that
  ///    channel's chips/planes) — BPLRU whole-block flush semantics; the
  ///    paper §4.2.2: "flushing a block data onto a specific SSD channel
  ///    only delays I/O processing at the same channel".
  /// Returns the completion time of the last page. When `attr` is
  /// non-null it receives the GC/fault share of the batch's critical-path
  /// page (the one whose program completed last; ties keep the first).
  SimTime program_batch(std::span<const FlushPage> pages, SimTime issue,
                        bool colocate = false, OpAttribution* attr = nullptr);

  SimTime program_page(Lpn lpn, std::uint64_t version, SimTime issue,
                       OpAttribution* attr = nullptr);

  bool is_mapped(Lpn lpn) const { return l2p_.contains(lpn); }
  /// Version of the data flash holds for `lpn` (0 when unmapped).
  std::uint64_t version_of(Lpn lpn) const;
  std::uint64_t mapped_pages() const { return l2p_.size(); }

  const FlashMetrics& metrics() const { return metrics_; }
  /// Clears the operation counters (device state stays). For warmup.
  void reset_metrics() { metrics_ = FlashMetrics{}; }
  const SsdConfig& config() const { return cfg_; }
  const FlashArray& array() const { return array_; }

  /// End-of-life read-mostly mode (aging subsystem). Entered when any
  /// plane's reclaimable capacity falls below the plan's floor or the
  /// device-wide spare pool drops below its floor; exits (with
  /// hysteresis) once every plane regains floor + margin. The session
  /// sheds host writes through the admission machinery while this is
  /// set, instead of driving the allocator into an assert.
  bool degraded_mode() const { return degraded_mode_; }

  /// Re-evaluates the end-of-life floors at time `now`, emitting
  /// kDegradedModeEnter/Exit and counting transitions. Call before
  /// admitting a host write (aging-enabled runs only). Returns the mode
  /// after the update.
  bool update_degraded_mode(SimTime now);

  /// One patrol-scrub pass (integrity subsystem): walks blocks from the
  /// persistent cursor, charging read time per examined valid page on the
  /// block's chip timeline until the plan's time budget is spent, and
  /// refreshes blocks whose predicted raw-bit-error probability or
  /// corrected-error count crossed the plan's thresholds. Prediction-only:
  /// never draws from the RNG and never touches the wear counters, so the
  /// recovery-tier conservation identities stay exact. The session calls
  /// this during idle windows on the plan's request cadence; a no-op
  /// unless an integrity model with scrub triggers is wired.
  void patrol_scrub(SimTime now);

  /// True when `plane` can afford to retire one block right now: a spare
  /// can backfill it, or the plane has both the occupancy slack to lose
  /// capacity permanently and enough free-list headroom to finish the
  /// current GC burst (retirement, unlike erase, returns no free block).
  /// The single gate for every retirement path — grown-bad GC victims,
  /// injected erase faults, aging refreshes, parity-rebuild reclaims, and
  /// patrol scrubs all funnel through maybe_retire, which consults this.
  bool can_retire_block(std::uint32_t plane) const;

  /// How close the fullest plane is to garbage collection, as an integer
  /// level in [0, headroom]: 0 while every plane keeps at least `headroom`
  /// free blocks above the GC threshold, `headroom` once any plane is at
  /// (or below) the threshold itself. The overload layer maps this level
  /// to a deterministic host-write stretch (OverloadOptions::throttle_delay).
  std::uint64_t gc_pressure_level(std::uint32_t headroom) const;

  SimTime channel_busy(std::uint32_t ch) const {
    return channels_[ch].busy_time();
  }
  SimTime chip_busy(std::uint32_t chip) const {
    return chips_[chip].busy_time();
  }

  /// Deep invariant audit: L2P↔P2L roundtrip for every mapping, total
  /// valid-page sums against the mapping table, resource timeline
  /// monotonicity, and the flash array's own audit. O(mapped pages +
  /// physical pages).
  void audit(AuditReport& report) const;

  /// Wires the run's telemetry. The trace pointer is only kept when flash
  /// events are enabled, so a disabled run pays one null check per
  /// would-be event. Either argument may be null.
  void set_telemetry(TraceBuffer* trace, Profiler* profiler);

  /// Wires the run's fault injector (null = fault-free operation, the
  /// default) and reserves the plan's spare-block pool. Call before any
  /// traffic; the injector must outlive this Ftl.
  void set_fault_injector(FaultInjector* injector);

  /// Registers the device gauges (flash.* — host ops, GC, WAF, free
  /// blocks, mapped pages) for periodic snapshots. The registry must not
  /// outlive this Ftl.
  void register_metrics(MetricsRegistry& registry) const;

  /// Checkpoint: the L2P table and a version table (the versions of the
  /// mapped pages, same LPNs in the same ascending order), pre-existing
  /// ranges, allocation cursor, patrol-scrub cursor, metrics,
  /// resource-timeline clocks, and the flash array. deserialize()
  /// restores into a freshly constructed Ftl of the same configuration
  /// (telemetry/fault wiring is re-established by the caller, not stored)
  /// and refuses tables that disagree with each other, with the device
  /// geometry, or with the pages they map.
  void serialize(SnapshotWriter& w) const;
  void deserialize(SnapshotReader& r);
  /// An upper bound on the bytes serialize() writes, from the entry
  /// counts of its tables and FlashArray::snapshot_bytes.
  std::size_t snapshot_bytes() const;

 private:
  /// Next plane in channel-major round-robin (consecutive pages land on
  /// consecutive channels, maximizing batch parallelism).
  std::uint32_t next_plane_rr();
  /// Round-robin plane for a host write. Under fault injection, planes
  /// that cannot accept more data (shrunk by retirement) are skipped.
  std::uint32_t pick_write_plane();
  /// Channel a logical block is pinned to for colocated flushes.
  std::uint32_t colocate_channel(Lpn lpn) const;
  SimTime program_to_plane(std::uint32_t plane, Lpn lpn,
                           std::uint64_t version, SimTime issue,
                           OpAttribution* attr = nullptr);
  /// Full flash-read timing (chip sense, optional injected re-read, the
  /// integrity recovery cascade, bus transfer) plus the kPageRead event.
  /// `block` is the physical block read (wear accounting + aging ramps);
  /// FlashArray::kNoBlock for pre-existing data, which has no physical
  /// page to age or to lose. `ppn` is the physical page (integrity
  /// bookkeeping; ignored for pre-existing data). `lost` (may be null)
  /// is set when the read ended uncorrectable.
  SimTime flash_read(std::uint32_t plane, std::uint32_t block, Ppn ppn,
                     Lpn lpn, SimTime issue, OpAttribution* attr = nullptr,
                     bool* lost = nullptr);
  /// Runs the recovery cascade for one host sense that may carry raw bit
  /// errors (integrity enabled, real block): one RNG draw resolves the
  /// tier; retry steps and parity-rebuild peer reads are charged on the
  /// chip timeline from `cell_done` on. Uncorrectable reads drop the
  /// mapping and set `*lost`. Returns when the (possibly recovered) data
  /// is ready for the bus transfer.
  SimTime integrity_recover(std::uint32_t plane, std::uint32_t block,
                            Ppn ppn, Lpn lpn,
                            const FlashArray::BlockWear& wear,
                            SimTime data_age, SimTime cell_done,
                            OpAttribution* attr, bool* lost);
  /// Charges the stripe's parity-page program and sets its presence bit
  /// when programming `fresh` just completed a parity stripe (no-op with
  /// parity off). Every program path — host, GC copyback, refresh
  /// relocation — calls this so parity coverage is a pure function of the
  /// write pointer.
  SimTime maybe_close_stripe(std::uint32_t plane, Ppn fresh, SimTime t);
  /// Refreshes a block (read-disturb migration, retention scrub or patrol
  /// scrub): closes it if it is the active block, relocates it, counts the
  /// refresh by `kind` and emits `kind` with lpn = block, arg = pages
  /// moved. Skipped (deferred to a later read) when the plane has no free
  /// block to receive the data.
  void reclaim_block(std::uint32_t plane, std::uint32_t block, SimTime t,
                     EventKind kind);
  /// The one relocation routine of GC and every refresh: copies `block`'s
  /// valid pages, versions included, within the plane (copyback, on the
  /// chip timeline from `t` on), then erases or retires it. `gc` counts
  /// the copies as GC moves with one kGcMove each. Returns the pages moved.
  std::uint64_t relocate_block(std::uint32_t plane, std::uint32_t block,
                               SimTime& t, bool gc);
  /// Emits kWearThreshold when `block`'s P/E count just crossed the
  /// plan's rated cycles.
  void note_erase_wear(std::uint32_t plane, std::uint32_t block, SimTime t);
  /// Runs greedy GC on the plane until it is above the free threshold.
  void maybe_collect(std::uint32_t plane, SimTime t);
  /// Emits one event on `plane`'s chip and channel (no-op unless flash
  /// events are on).
  void emit(EventKind kind, std::uint32_t plane, SimTime at, SimTime dur,
            Lpn lpn, std::uint64_t arg) {
    if (trace_ == nullptr) return;
    trace_->emit({at, dur, lpn, arg, kind,
                  static_cast<std::uint16_t>(amap_.chip_global(plane)),
                  static_cast<std::uint16_t>(amap_.channel_of_plane(plane))});
  }
  /// Retires `block` instead of erasing it when the injector demands it
  /// (grown-bad mark or injected erase fault) and capacity allows.
  /// Advances `t` by any failed-erase attempt it charged on the chip.
  bool maybe_retire(std::uint32_t plane, std::uint32_t block, SimTime& t);

  SsdConfig cfg_;
  FlashArray array_;  // validates cfg_, so it is built before amap_
  AddressMap amap_;
  Divisor total_planes_;  // the static plane of a pre-existing page
  std::vector<ResourceTimeline> channels_;
  std::vector<ResourceTimeline> chips_;
  bool in_preexisting(Lpn lpn) const;

  // PPNs fit 32 bits: SsdConfig::validate caps the page count at
  // 2^32 - 1, so no PPN equals the sentinel.
  static constexpr std::uint32_t kUnmapped = 0xffffffffu;
  LpnTable<std::uint32_t, kUnmapped> l2p_;
  std::vector<std::pair<Lpn, Lpn>> preexisting_;  // sorted, disjoint
  std::uint64_t rr_counter_ = 0;
  bool degraded_mode_ = false;  // end-of-life read-mostly mode (aging)
  // Patrol-scrub cursor (integrity): next block to examine. Serialized,
  // so a resumed run continues the walk exactly where it stopped.
  std::uint32_t scrub_plane_ = 0;
  std::uint32_t scrub_block_ = 0;
  FlashMetrics metrics_;
  TraceBuffer* trace_ = nullptr;  // non-null only when flash events are on
  Profiler* profiler_ = nullptr;
  FaultInjector* fault_ = nullptr;  // non-null only when faults are planned
};

}  // namespace reqblock
