// Structured trace events.
//
// One TraceEvent records one thing that happened inside a simulated run —
// a cache lookup outcome, a Req-block structural move, a flash operation —
// stamped with simulated time. Events are plain 48-byte PODs so the ring
// buffer can hold millions without allocation churn; everything that is
// not a number (names, categories, track labels) is derived from the kind
// at export time, not stored per event.
//
// Field meaning by kind (see exporters.cc for the export mapping):
//   cache events   track = list track (0 manager, 1 IRL, 2 SRL, 3 DRL)
//   flash events   track = global chip index, channel = channel index
//   arg            kCacheHit/kCacheMiss: 1 for writes, 0 for reads
//                  kCacheEvict: victim pages, kCacheFlush: dirty pages
//                  kReqBlock*: pages in the affected block/batch
//                  kGcEnd: pages moved, kBlockErase: block index
//                  kPowerLoss: dirty pages lost
//                  kQueueEnqueue: queue slots in use after admission
//                  (dur = queue wait), kQueueTimeout: attempt number — one
//                  event per failed deadline check (dur = overshoot)
//                  kBgFlush: dirty pages flushed by the background batch
//                  kThrottle: arg unused (dur = injected delay)
//                  kProgramRetry: attempt number, kEraseFault/kBlockRetire:
//                  block index
//                  kAttrSpan: track = AttrComponent index, arg = measured
//                  request index, dur = component's share of the latency
//                  kReadDisturbMigrate/kRetentionScrub: pages relocated
//                  (lpn = block index), kWearThreshold: block index,
//                  kDegradedModeEnter/Exit: triggering plane index
//                  kEccCorrect: page's corrected-error count after this
//                  episode, kReadRetryStep: retry step number (dur = that
//                  step's re-sense time), kParityRebuild: peer pages read
//                  (= stripe size - 1), kUncorrectable: page's error count
//                  at loss, kPatrolScrub: pages relocated (lpn = block)
#pragma once

#include <cstdint>

#include "util/types.h"

namespace reqblock {

enum class EventKind : std::uint8_t {
  // Cache-manager events.
  kCacheHit = 0,
  kCacheMiss,
  kCacheInsert,
  kCacheEvict,
  kCacheFlush,
  kCacheBypass,
  // Req-block structural events (paper §3: Figs. 5-6).
  kReqBlockSplit,
  kReqBlockPromote,
  kReqBlockMerge,
  kReqBlockBatchEvict,
  // Injected power loss: the volatile write buffer is dropped.
  kPowerLoss,
  // Overload protection (host queue, background flush, GC throttle).
  kQueueEnqueue,
  kQueueTimeout,
  kBgFlush,
  kThrottle,
  // Flash-device events.
  kPageRead,
  kPageProgram,
  kBlockErase,
  kGcStart,
  kGcEnd,
  kGcMove,
  // Injected device faults (fault subsystem).
  kProgramRetry,
  kReadRetry,
  kEraseFault,
  kBlockRetire,
  // Latency attribution: one span per nonzero component of a served
  // request's breakdown, tiling [host arrival, completion].
  kAttrSpan,
  // Device aging (>= kPageRead, so they categorize as flash events).
  kReadDisturbMigrate,  // block refreshed after crossing the read limit
  kRetentionScrub,      // block relocated after its data aged out
  kWearThreshold,       // a block's P/E count crossed the rated cycles
  kDegradedModeEnter,   // device entered end-of-life read-mostly mode
  kDegradedModeExit,    // device recovered enough headroom to exit
  // Data integrity (>= kPageRead, so they categorize as flash events).
  kEccCorrect,          // raw bit errors fixed by the fast ECC decode
  kReadRetryStep,       // one escalated re-sense attempt
  kParityRebuild,       // page reconstructed from its parity stripe
  kUncorrectable,       // recovery exhausted; the page's data is lost
  kPatrolScrub,         // scrubber refreshed a block nearing the ECC limit
};

/// The last EventKind: a snapshot byte past it names no kind.
inline constexpr EventKind kLastEventKind = EventKind::kPatrolScrub;

enum class EventCategory : std::uint8_t { kCache = 1, kFlash = 2 };

constexpr EventCategory category_of(EventKind k) {
  // kAttrSpan describes the host-visible request, so it gates and samples
  // with the cache category despite sitting after the flash kinds.
  if (k == EventKind::kAttrSpan) return EventCategory::kCache;
  return k >= EventKind::kPageRead ? EventCategory::kFlash
                                   : EventCategory::kCache;
}

constexpr const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::kCacheHit: return "cache_hit";
    case EventKind::kCacheMiss: return "cache_miss";
    case EventKind::kCacheInsert: return "cache_insert";
    case EventKind::kCacheEvict: return "cache_evict";
    case EventKind::kCacheFlush: return "cache_flush";
    case EventKind::kCacheBypass: return "cache_bypass";
    case EventKind::kReqBlockSplit: return "reqblock_split";
    case EventKind::kReqBlockPromote: return "reqblock_promote";
    case EventKind::kReqBlockMerge: return "reqblock_merge";
    case EventKind::kReqBlockBatchEvict: return "reqblock_batch_evict";
    case EventKind::kPowerLoss: return "power_loss";
    case EventKind::kQueueEnqueue: return "queue_enqueue";
    case EventKind::kQueueTimeout: return "queue_timeout";
    case EventKind::kBgFlush: return "bg_flush";
    case EventKind::kThrottle: return "throttle";
    case EventKind::kPageRead: return "page_read";
    case EventKind::kPageProgram: return "page_program";
    case EventKind::kBlockErase: return "block_erase";
    case EventKind::kGcStart: return "gc_start";
    case EventKind::kGcEnd: return "gc_end";
    case EventKind::kGcMove: return "gc_move";
    case EventKind::kProgramRetry: return "program_retry";
    case EventKind::kReadRetry: return "read_retry";
    case EventKind::kEraseFault: return "erase_fault";
    case EventKind::kBlockRetire: return "block_retire";
    case EventKind::kAttrSpan: return "attr_span";
    case EventKind::kReadDisturbMigrate: return "read_disturb_migrate";
    case EventKind::kRetentionScrub: return "retention_scrub";
    case EventKind::kWearThreshold: return "wear_threshold";
    case EventKind::kDegradedModeEnter: return "degraded_mode_enter";
    case EventKind::kDegradedModeExit: return "degraded_mode_exit";
    case EventKind::kEccCorrect: return "ecc_correct";
    case EventKind::kReadRetryStep: return "read_retry_step";
    case EventKind::kParityRebuild: return "parity_rebuild";
    case EventKind::kUncorrectable: return "uncorrectable";
    case EventKind::kPatrolScrub: return "patrol_scrub";
  }
  return "?";
}

/// Cache-event track ids (Chrome export: one lane per list). kTrackHost
/// carries the host-side admission events (queue enqueue/timeout,
/// throttle) so they get their own lane instead of piling onto the
/// manager's.
enum CacheTrack : std::uint16_t {
  kTrackManager = 0,
  kTrackIrl = 1,
  kTrackSrl = 2,
  kTrackDrl = 3,
  kTrackHost = 4,
};

struct TraceEvent {
  SimTime at = 0;          // simulated start time, ns
  SimTime dur = 0;         // simulated duration, ns (0 = instant)
  Lpn lpn = 0;             // first logical page involved (0 if n/a)
  std::uint64_t arg = 0;   // kind-specific payload, see header comment
  EventKind kind = EventKind::kCacheHit;
  std::uint16_t track = 0;    // cache: CacheTrack; flash: global chip index
  /// Flash events: channel index. Host-queue events (kQueueEnqueue,
  /// kQueueTimeout, kThrottle): emitting tenant id (0 when single-tenant).
  std::uint16_t channel = 0;
};

}  // namespace reqblock
