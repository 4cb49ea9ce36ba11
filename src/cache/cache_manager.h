// CacheManager: the DRAM data-cache layer between host requests and the FTL.
//
// Implements the main routine of the paper's Algorithm 1 generically over
// any WriteBufferPolicy:
//   * write page hit   -> update in place, policy->on_hit
//   * write page miss  -> evict (synchronously, batch-flushed via the FTL)
//                         until a slot is free, then admit, policy->on_insert
//   * read page hit    -> served from DRAM
//   * read page miss   -> flash read (optionally admitted when cache_reads)
//
// It also owns the instrumentation behind the paper's figures: hit/insert
// distributions by inserting-request size (Fig. 2), large-request reuse
// (Fig. 3), eviction batch sizes (Fig. 10), flush counts (Fig. 11) and the
// policy metadata footprint (Fig. 12).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/write_buffer.h"
#include "fault/fault.h"
#include "ssd/ftl.h"
#include "telemetry/attribution.h"
#include "telemetry/metrics_registry.h"
#include "telemetry/profiler.h"
#include "telemetry/trace_buffer.h"
#include "trace/io_request.h"
#include "util/audit.h"
#include "util/fields.h"
#include "util/histogram.h"
#include "util/lpn_table.h"
#include "util/slot_map.h"
#include "util/stats.h"
#include "util/types.h"

namespace reqblock {

/// Policy metadata size is sampled every this many page lookups (Fig. 12).
inline constexpr std::uint32_t kMetadataSampleInterval = 1024;
/// The per-request-size instrumentation arrays track requests up to this
/// many pages; larger ones share bucket 0.
inline constexpr std::uint32_t kMaxTrackedRequestPages = 256;

struct CacheOptions {
  std::uint64_t capacity_pages = 4096;  // 16 MB of 4 KB pages
  /// Admit read-miss data as clean pages (CFLRU extension; off in the
  /// paper's write-buffer setting).
  bool cache_reads = false;
  /// Watermark background flusher: when resident dirty pages reach
  /// bg_flush_high_pages at the start of a serve, victim batches are
  /// pre-drained (same select_victim/batch-flush path as synchronous
  /// eviction) until dirty occupancy is at or below bg_flush_low_pages, so
  /// a following burst admits into already-freed slots instead of stalling
  /// on its own flushes. 0 disables (the paper's reactive-only behavior).
  /// Derived from OverloadOptions watermark fractions by the session.
  std::uint64_t bg_flush_high_pages = 0;
  std::uint64_t bg_flush_low_pages = 0;
};

struct CacheMetrics {
  std::uint64_t page_lookups = 0;
  std::uint64_t page_hits = 0;
  std::uint64_t read_hits = 0;
  std::uint64_t write_hits = 0;
  std::uint64_t inserts = 0;
  std::uint64_t read_misses = 0;   // pages read from flash
  std::uint64_t bypass_pages = 0;  // write pages sent straight to flash
  std::uint64_t evictions = 0;
  std::uint64_t evicted_pages = 0;
  std::uint64_t flushed_pages = 0;   // dirty pages programmed on eviction
  std::uint64_t padding_pages = 0;   // BPLRU padding reads+writes
  /// Watermark-driven background eviction batches (a subset of evictions)
  /// and the dirty pages they flushed (a subset of flushed_pages).
  std::uint64_t bg_flush_batches = 0;
  std::uint64_t bg_flush_pages = 0;

  /// Pages per eviction operation (Fig. 10).
  CountHistogram eviction_batch;
  /// Sampled policy metadata bytes (Fig. 12).
  RunningStat metadata_bytes;

  /// Fig. 2 instrumentation, indexed by the size (pages) of the write
  /// request that inserted the page; index 0 aggregates oversized requests.
  std::vector<std::uint64_t> inserts_by_req_size;
  std::vector<std::uint64_t> hits_by_req_size;
  /// Fig. 3 instrumentation: per inserting-request size, how many admitted
  /// pages were re-accessed at least once before leaving the cache.
  std::vector<std::uint64_t> pages_retired_by_req_size;
  std::vector<std::uint64_t> pages_reused_by_req_size;

  double hit_ratio() const {
    return page_lookups == 0 ? 0.0
                             : static_cast<double>(page_hits) /
                                   static_cast<double>(page_lookups);
  }

  void serialize(SnapshotWriter& w) const;
  void deserialize(SnapshotReader& r);
  /// The bytes serialize() writes.
  std::size_t snapshot_bytes() const;
};

/// CacheMetrics' fields in snapshot order (src/util/fields.h).
inline constexpr auto kCacheMetricsFields = std::tuple{
    Field{REQB_KNOB_FIELD(page_lookups)},
    Field{REQB_KNOB_FIELD(page_hits)},
    Field{REQB_KNOB_FIELD(read_hits)},
    Field{REQB_KNOB_FIELD(write_hits)},
    Field{REQB_KNOB_FIELD(inserts)},
    Field{REQB_KNOB_FIELD(read_misses)},
    Field{REQB_KNOB_FIELD(bypass_pages)},
    Field{REQB_KNOB_FIELD(evictions)},
    Field{REQB_KNOB_FIELD(evicted_pages)},
    Field{REQB_KNOB_FIELD(flushed_pages)},
    Field{REQB_KNOB_FIELD(padding_pages)},
    Field{REQB_KNOB_FIELD(bg_flush_batches)},
    Field{REQB_KNOB_FIELD(bg_flush_pages)},
    Field{REQB_KNOB_FIELD(eviction_batch)},
    Field{REQB_KNOB_FIELD(metadata_bytes)},
    Field{REQB_KNOB_FIELD(inserts_by_req_size)},
    Field{REQB_KNOB_FIELD(hits_by_req_size)},
    Field{REQB_KNOB_FIELD(pages_retired_by_req_size)},
    Field{REQB_KNOB_FIELD(pages_reused_by_req_size)},
};

class CacheManager {
 public:
  CacheManager(const CacheOptions& options,
               std::unique_ptr<WriteBufferPolicy> policy, Ftl& ftl);

  /// Serves one host request starting at req.arrival; returns completion
  /// time. Must be called in nondecreasing arrival order. When `bd` is
  /// non-null, the critical-path components of the service interval
  /// [req.arrival, completion] are *added* into it (cache_lookup,
  /// evict_stall, ftl_read, ftl_program, gc, fault_retry), summing exactly
  /// to the interval length; timing is identical either way. `data_lost`
  /// (may be null) is set when any page read came back uncorrectable —
  /// the session decides whether the host sees a shed or an error.
  SimTime serve(const IoRequest& req, RequestBreakdown* bd = nullptr,
                bool* data_lost = nullptr);

  /// Injected power loss at `at`: drops the whole volatile buffer (clean
  /// and dirty pages alike), counts the dirty pages as lost into `fault`'s
  /// metrics, rolls the write oracle back to what flash actually holds for
  /// them (post-recovery reads then model the data loss consistently), and
  /// returns when the device is back up — `at` plus the fixed downtime plus
  /// the per-lost-page recovery replay.
  SimTime power_loss(SimTime at, FaultInjector& fault);

  /// Flushes instrumentation for pages still resident (call once at end of
  /// a run so Fig. 3 reuse stats cover the whole population).
  void finalize();

  const CacheMetrics& metrics() const { return metrics_; }
  const WriteBufferPolicy& policy() const { return *policy_; }
  WriteBufferPolicy& policy() { return *policy_; }
  std::uint64_t cached_pages() const { return pages_.size(); }
  std::uint64_t capacity_pages() const { return options_.capacity_pages; }
  /// Resident pages whose only up-to-date copy is in DRAM (the watermark
  /// flusher's control variable; maintained incrementally).
  std::uint64_t dirty_pages() const { return dirty_pages_; }

  /// Last written version per LPN (the consistency oracle).
  std::uint64_t expected_version(Lpn lpn) const;

  /// Clears the counters (cache contents stay). Used for warmup phases.
  void reset_metrics();

  /// Wires the run's telemetry into this layer and the policy. The trace
  /// pointer is only kept when cache events are enabled, so a disabled run
  /// pays one null check per would-be event. Either argument may be null.
  void set_telemetry(TraceBuffer* trace, Profiler* profiler);

  /// Registers the cache gauges (cache.* — hits, inserts, evictions,
  /// residency, hit ratio) plus the policy's own gauges for periodic
  /// snapshots. The registry must not outlive this manager.
  void register_metrics(MetricsRegistry& registry) const;

  /// Deep invariant audit of the cache layer at the given depth:
  ///   kLight — counter cross-checks (policy pages == resident pages,
  ///            occupancy ≥ residency, residency ≤ capacity, metric sums);
  ///   kFull  — additionally every resident entry against the write oracle,
  ///            exact policy↔manager page-set equality, and the policy's
  ///            own structural audit.
  /// serve() runs this automatically at the active audit level after every
  /// request (the mutation batch of this layer).
  void audit(AuditReport& report,
             AuditLevel depth = AuditLevel::kFull) const;

  /// Checkpoint: page table and write oracle (each in ascending LPN
  /// order), metrics, and the policy's own replacement state.
  /// deserialize() restores into a freshly constructed manager wired to
  /// the same policy type and FTL configuration.
  void serialize(SnapshotWriter& w) const;
  void deserialize(SnapshotReader& r);
  /// An upper bound on the bytes serialize() writes, from the entry
  /// counts of its tables: exact but for the policy's section, which is
  /// bounded per resident page (WriteBufferPolicy::serialize).
  std::size_t snapshot_bytes() const;

 private:
  struct PageEntry {
    std::uint64_t version = 0;
    std::uint32_t insert_req_pages = 0;  // size of the inserting request
    bool dirty = false;
    bool reused = false;  // hit at least once since insertion
  };

  SimTime serve_write(const IoRequest& req, RequestBreakdown* bd);
  SimTime serve_read(const IoRequest& req, RequestBreakdown* bd,
                     bool* data_lost);
  /// Evicts one victim batch and flushes its dirty pages; returns the time
  /// the flush completes (== when the space is usable). Returns `now`
  /// unchanged and sets `evicted=false` when the policy had no victim.
  /// `span` (optional) receives the GC/fault share of [now, completion]:
  /// the critical padding read's fault plus the flush batch's critical
  /// page attribution, both provably inside the interval.
  SimTime evict_once(SimTime now, bool& evicted,
                     OpAttribution* span = nullptr);
  /// Watermark drain at the start of a serve: while dirty occupancy is at
  /// or above the high watermark, evict victim batches until it is at or
  /// below the low watermark (or the policy withholds everything). The
  /// flush latency lands on the device timelines but the current request
  /// does not wait for it — that is the whole point.
  void maybe_background_flush(SimTime now);
  /// The slot of a resident page, or kNoSlot. A miss reads one presence
  /// byte; only a resident page probes the slot map.
  Slot find_resident(Lpn lpn) const {
    return present_.contains(lpn) ? pages_.find(lpn) : kNoSlot;
  }
  /// Admits `lpn` into the resident set; returns its value-initialized
  /// entry (valid until the next admission).
  PageEntry& admit(Lpn lpn);
  /// Takes a victim page out of the resident set (evicted or dropped by a
  /// power loss): checks that the cache holds it, keeps the dirty count
  /// and retires it into the Fig. 3 reuse counters. Returns its entry.
  PageEntry release(Lpn lpn);
  void retire_entry(const PageEntry& entry);
  /// Emits one manager-lane event (no-op unless cache events are on).
  void emit(EventKind kind, SimTime at, SimTime dur, Lpn lpn,
            std::uint64_t arg);
  void sample_metadata();
  std::uint32_t size_bucket(std::uint32_t pages) const;

  CacheOptions options_;
  std::unique_ptr<WriteBufferPolicy> policy_;
  Ftl& ftl_;
  // The resident set: its memory follows the cache capacity, not the LPN
  // range, and its slab order is history-dependent.
  SlotMap<PageEntry> pages_;
  // The presence map: 1 for every LPN in pages_, so a miss is decided by
  // one byte that consecutive LPNs share, and serialize walks it for LPN
  // order. Its memory (1 KB per 1024-LPN range) follows the LPN ranges the
  // cache has held.
  LpnTable<std::uint8_t, 0> present_;
  // The write oracle: last written version per LPN, independent of the
  // FTL's page versions. Absent reads as version 0; an entry rolled back
  // to 0 (power loss, uncorrectable read) stays present.
  static constexpr std::uint64_t kNoVersion = ~std::uint64_t{0};
  LpnTable<std::uint64_t, kNoVersion> last_version_;
  std::uint64_t dirty_pages_ = 0;  // resident entries with dirty == true
  // evict_once's batch for the FTL, reused so that an eviction allocates
  // nothing once it has held the largest batch.
  std::vector<FlushPage> flush_;
  CacheMetrics metrics_;
  std::uint64_t lookup_since_sample_ = 0;
  TraceBuffer* trace_ = nullptr;  // non-null only when cache events are on
  Profiler* profiler_ = nullptr;
};

}  // namespace reqblock
