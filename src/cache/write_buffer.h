// Write-buffer policy interface.
//
// The DRAM data cache inside the SSD is primarily a *write buffer*: write
// data is admitted page by page, reads probe it, and when it fills the
// policy picks a victim batch to flush to flash (paper §3.4). A policy
// owns only replacement bookkeeping; page data state (dirty bits, versions)
// lives in the CacheManager, which also drives flush timing via the FTL.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <string>

#include "telemetry/metrics_registry.h"
#include "telemetry/trace_buffer.h"
#include "trace/io_request.h"
#include "util/audit.h"
#include "util/types.h"

namespace reqblock {

class SnapshotReader;
class SnapshotWriter;

/// What the policy wants evicted. All pages must currently be cached.
///
/// The two page lists are views of buffers the policy owns and refills on
/// every select_victim(), so a steady-state eviction allocates nothing.
/// A view is valid until the next call on the policy: the caller consumes
/// the batch (or copies it) before it calls the policy again.
struct VictimBatch {
  /// In flush order.
  std::span<const Lpn> pages;
  /// Flush the whole batch to a single plane derived from the first page's
  /// logical block (BPLRU whole-block semantics); otherwise the batch is
  /// striped round-robin across channels.
  bool colocate = false;
  /// Pages the policy wants read from flash and written back together with
  /// the batch (BPLRU page padding). The manager drops entries that were
  /// never written to the device.
  std::span<const Lpn> padding_reads;

  bool empty() const { return pages.empty(); }
};

class WriteBufferPolicy {
 public:
  virtual ~WriteBufferPolicy() = default;

  virtual std::string name() const = 0;

  /// Called once before a request's pages are processed. Policies that
  /// track per-request state (Req-block's insertion/split targets) hook
  /// this; the default is a no-op.
  virtual void begin_request(const IoRequest& req) { (void)req; }

  /// `lpn` is cached and was just accessed by `req`.
  virtual void on_hit(Lpn lpn, const IoRequest& req, bool is_write) = 0;

  /// `lpn` was just admitted (the manager guarantees free space).
  virtual void on_insert(Lpn lpn, const IoRequest& req, bool is_write) = 0;

  /// Chooses pages to evict and stops tracking them. Returning an empty
  /// batch means "nothing is evictable right now" (e.g. everything belongs
  /// to the in-flight request); the manager then bypasses the cache for
  /// the pending page. The batch views the policy's own buffers (see
  /// VictimBatch), valid until the next call on the policy.
  virtual VictimBatch select_victim() = 0;

  /// The volatile buffer is about to be dropped (injected power loss).
  /// Policies that withhold victims for the in-flight request must release
  /// those guards so the manager can drain every page via select_victim.
  virtual void on_power_loss() {}

  /// Pages the policy currently tracks. Cross-checked against the
  /// manager's page table by the test suite.
  virtual std::size_t pages() const = 0;

  /// Buffer space occupied, in pages, at the policy's allocation
  /// granularity. Page-granularity schemes return pages(); BPLRU manages
  /// the RAM in whole block units (Kim & Ahn §3), so sparsely filled
  /// blocks waste buffer space — the "lower cache utilization" the paper
  /// blames for BPLRU's ts_0 regression. The manager evicts while this
  /// meets/exceeds capacity.
  virtual std::size_t occupied_pages() const { return pages(); }

  /// Replacement-metadata footprint, using the paper's Fig. 12 node-size
  /// model (LRU 12 B/page node, block schemes 24 B/block node, Req-block
  /// 32 B/request-block node).
  virtual std::size_t metadata_bytes() const = 0;

  /// Deep structural self-check: appends every violated invariant (list ↔
  /// index cross-consistency, counter sums, membership rules) to `report`.
  /// O(tracked pages); called between operations, never mid-mutation.
  virtual void audit(AuditReport& report) const { (void)report; }

  /// Calls `fn` once per tracked page, in unspecified order. Returns false
  /// when the policy cannot enumerate (the audit layer then skips the
  /// manager↔policy page-set comparison). Every built-in policy supports
  /// it.
  virtual bool enumerate_pages(const std::function<void(Lpn)>& fn) const {
    (void)fn;
    return false;
  }

  /// Checkpoint: writes the full replacement state (list orders, counters,
  /// in-flight guards) so that deserialize() on a *freshly constructed*
  /// policy with the same configuration continues bit-identically.
  /// Deterministic: equal logical state always produces equal bytes.
  /// A policy holding N pages writes at most kSnapshotHeaderBytes +
  /// N * kSnapshotBytesPerPage bytes; CacheManager makes room for the
  /// payload by that bound.
  virtual void serialize(SnapshotWriter& w) const = 0;
  /// The largest per-page record is a Req-block block of one page: five
  /// counters, the page count and the LPN.
  static constexpr std::size_t kSnapshotBytesPerPage = 7 * 8;
  /// The tag, the counters and the list lengths.
  static constexpr std::size_t kSnapshotHeaderBytes = 128;

  /// Restores state written by serialize(). Must only be called on a fresh
  /// instance; throws SnapshotError on malformed input.
  virtual void deserialize(SnapshotReader& r) = 0;

  /// Hands the policy the run's event sink for structural events
  /// (Req-block split/promote/merge/batch-evict). The buffer outlives the
  /// policy; null or cache-gated-off means "emit nothing". Default: the
  /// policy has no structural events.
  virtual void set_trace(TraceBuffer* trace) { (void)trace; }

  /// Registers replacement-state gauges under "policy." (and, for list
  /// schemes, "list.") for periodic snapshots. The registry must not
  /// outlive the policy.
  virtual void register_metrics(MetricsRegistry& registry) const {
    registry.register_gauge("policy.pages",
                            [this] { return static_cast<double>(pages()); });
    registry.register_gauge("policy.occupied_pages", [this] {
      return static_cast<double>(occupied_pages());
    });
    registry.register_gauge("policy.metadata_bytes", [this] {
      return static_cast<double>(metadata_bytes());
    });
  }
};

}  // namespace reqblock
