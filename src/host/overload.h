// Overload protection for the host side of the simulator.
//
// Three cooperating mechanisms, each individually optional and all off by
// default (a default-constructed OverloadOptions leaves every run
// bit-identical to a build without this subsystem):
//
//   * a bounded host admission queue with per-request deadlines — a
//     request that arrives while `queue_depth` commands are in flight
//     waits for the earliest completion; if that wait exceeds the
//     deadline it is shed outright or retried after a fixed backoff,
//     depending on the timeout action, and recorded either way;
//   * watermark-driven background flushing — the CacheManager drains
//     victim batches when dirty occupancy crosses a high watermark (the
//     thresholds are derived here and carried as page counts in
//     CacheOptions);
//   * GC-pressure-aware write throttling — host writes are stretched by a
//     deterministic delay proportional to how close the fullest plane is
//     to the garbage-collection threshold.
//
// Determinism contract: no RNG anywhere. Admission decisions are a pure
// function of the option set and the completion times recorded so far,
// throttle delays use integer arithmetic only, and the queue serializes
// its in-flight slots in sorted order so equal logical state produces
// equal snapshot bytes.
#pragma once

#include <cstdint>
#include <vector>

#include "telemetry/trace_buffer.h"
#include "util/fields.h"
#include "util/knobs.h"
#include "util/types.h"

namespace reqblock {

class SnapshotReader;
class SnapshotWriter;

/// What happens to a queued request whose wait would exceed the deadline.
enum class TimeoutAction : std::uint8_t {
  kShed = 0,   // drop immediately, count as a timeout + shed
  kRetry = 1,  // back off and re-attempt, up to max_retries, then shed
};

struct OverloadOptions {
  // --- Bounded admission queue ---------------------------------------
  /// Maximum host commands in flight; an arrival beyond this waits for a
  /// completion. 0 = unbounded (admission control off).
  std::uint32_t queue_depth = 0;
  /// Longest a request may wait for admission, per attempt. 0 = forever.
  SimTime deadline_ns = 0;
  TimeoutAction timeout_action = TimeoutAction::kShed;
  /// Backoff rounds granted before a retried request is shed.
  std::uint32_t max_retries = 3;
  /// Fixed delay before a timed-out request re-attempts admission.
  SimTime retry_backoff_ns = 500 * kMicrosecond;

  // --- Watermark background flush ------------------------------------
  /// Dirty-page fractions of cache capacity: when dirty occupancy reaches
  /// `bg_flush_high` the cache drains victim batches until it is at or
  /// below `bg_flush_low`. bg_flush_high == 0 disables.
  double bg_flush_high = 0.0;
  double bg_flush_low = 0.0;

  // --- GC-pressure throttle -------------------------------------------
  /// Stretch host writes when free blocks approach the GC threshold.
  bool throttle = false;
  /// Free blocks above the GC threshold at which throttling begins; the
  /// delay ramps linearly from 0 (at threshold + headroom) to the maximum
  /// (at the threshold itself).
  std::uint32_t throttle_headroom_blocks = 8;
  SimTime throttle_max_delay_ns = 2 * kMillisecond;

  bool queue_enabled() const { return queue_depth > 0; }
  bool bg_flush_enabled() const { return bg_flush_high > 0.0; }
  /// True when any mechanism can alter a run.
  bool enabled() const {
    return queue_enabled() || bg_flush_enabled() || throttle;
  }

  /// Throws std::invalid_argument on inconsistent settings (watermarks
  /// out of [0, 1] or inverted, zero retry backoff with kRetry, zero
  /// throttle headroom).
  void validate() const;

  /// Reads the flags of kOverloadKnobs; --queue-retries also picks the
  /// timeout action (0 switches back to shed semantics). Flags the parser
  /// does not carry keep their current value.
  void apply_cli(const ArgParser& args);

  /// Watermarks as page counts for a concrete cache capacity.
  std::uint64_t high_pages(std::uint64_t capacity_pages) const;
  std::uint64_t low_pages(std::uint64_t capacity_pages) const;

  /// Deterministic write stretch for a GC pressure level in
  /// [0, throttle_headroom_blocks] (see Ftl::gc_pressure_level); integer
  /// arithmetic only, so every platform computes the identical delay.
  SimTime throttle_delay(std::uint64_t pressure_level) const;
};

/// Every OverloadOptions knob, in fingerprint order (src/util/knobs.h).
inline constexpr auto kOverloadKnobs = std::tuple{
    Knob{"queue-depth", REQB_KNOB_FIELD(queue_depth), kInteger},
    Knob{"deadline-us", REQB_KNOB_FIELD(deadline_ns), kUsNumber, kNonNegative},
    Knob{nullptr, REQB_KNOB_FIELD(timeout_action)},
    Knob{"queue-retries", REQB_KNOB_FIELD(max_retries), kInteger},
    Knob{"queue-backoff-us", REQB_KNOB_FIELD(retry_backoff_ns), kUsNumber},
    Knob{"bg-flush-high", REQB_KNOB_FIELD(bg_flush_high), kNumber, kFraction},
    Knob{"bg-flush-low", REQB_KNOB_FIELD(bg_flush_low), kNumber, kFraction},
    Knob{"throttle", REQB_KNOB_FIELD(throttle), kSwitch},
    Knob{nullptr, REQB_KNOB_FIELD(throttle_headroom_blocks)},
    Knob{nullptr, REQB_KNOB_FIELD(throttle_max_delay_ns)},
};

/// Everything the overload layer counted. Reconciled 1:1 against the
/// queue_enqueue/queue_timeout/throttle TraceEvents and the report/CSV
/// columns by the test suite. Identity: timeouts == retries + sheds.
struct OverloadMetrics {
  bool enabled = false;
  std::uint64_t admitted = 0;      // requests that entered service
  std::uint64_t queued_waits = 0;  // admissions that waited > 0 ns
  std::uint64_t timeouts = 0;      // deadline checks that failed
  std::uint64_t sheds = 0;         // requests dropped without service
  std::uint64_t retries = 0;       // backoff rounds granted
  std::uint64_t throttle_events = 0;
  SimTime throttle_delay_total = 0;
  SimTime queue_wait_total = 0;  // summed admission waits

  void serialize(SnapshotWriter& w) const;
  void deserialize(SnapshotReader& r);
};

/// OverloadMetrics' fields in snapshot order (src/util/fields.h).
inline constexpr auto kOverloadMetricsFields = std::tuple{
    Field{REQB_KNOB_FIELD(enabled)},
    Field{REQB_KNOB_FIELD(admitted)},
    Field{REQB_KNOB_FIELD(queued_waits)},
    Field{REQB_KNOB_FIELD(timeouts)},
    Field{REQB_KNOB_FIELD(sheds)},
    Field{REQB_KNOB_FIELD(retries)},
    Field{REQB_KNOB_FIELD(throttle_events)},
    Field{REQB_KNOB_FIELD(throttle_delay_total)},
    Field{REQB_KNOB_FIELD(queue_wait_total)},
};

/// Bounded host command queue, modeled as the completion times of the
/// admitted, still-in-flight requests (a min-heap capped at queue_depth).
/// The simulator is open-loop: arrivals come from the trace regardless of
/// backlog, so a full queue converts backlog into admission waits — and,
/// past the deadline, into recorded timeouts instead of unbounded stalls.
class HostAdmissionQueue {
 public:
  explicit HostAdmissionQueue(const OverloadOptions& options);

  struct Admission {
    bool admitted = true;
    /// When service may start (>= arrival). For a shed request, the time
    /// of the final failed attempt.
    SimTime admit_at = 0;
    SimTime wait = 0;  // admit_at - arrival; 0 when shed
  };

  /// Decides admission for a request arriving at `arrival` (non-decreasing
  /// across calls). With queue_depth == 0 this is a counted no-op that
  /// admits instantly.
  Admission admit(SimTime arrival);

  /// Records the completion time of the request just admitted and served.
  /// Call exactly once per admitted request.
  void complete(SimTime done);

  /// Power loss at `at`: in-flight commands that would have completed
  /// after `at` were cut short and re-complete when the device is back up
  /// at `resume_at`.
  void on_power_loss(SimTime at, SimTime resume_at);

  std::size_t in_flight() const { return slots_.size(); }

  const OverloadMetrics& metrics() const { return metrics_; }
  /// GC-throttle accounting (and its TraceEvent) lives with the queue so
  /// every overload counter resets, serializes, and reconciles in one
  /// place.
  void note_throttle(SimTime at, SimTime delay);
  /// Clears the counters (in-flight slots stay). Used for warmup phases.
  void reset_metrics();

  /// Keeps the trace pointer only when cache-category events are enabled
  /// (overload events ride the cache lane), mirroring CacheManager.
  void set_trace(TraceBuffer* trace);

  /// Tenant id stamped into this queue's events (TraceEvent::channel).
  /// Defaults to 0, so single-tenant runs emit the historical bytes.
  void set_tenant(std::uint16_t tenant) { tenant_ = tenant; }

  /// Checkpoint: metrics plus the in-flight completion times in sorted
  /// order (equal multiset => equal bytes, and the min-heap pop order
  /// depends only on values, so a restored queue behaves identically).
  void serialize(SnapshotWriter& w) const;
  void deserialize(SnapshotReader& r);

 private:
  SimTime pop_earliest();

  OverloadOptions options_;
  std::vector<SimTime> slots_;  // min-heap of in-flight completion times
  OverloadMetrics metrics_;
  TraceBuffer* trace_ = nullptr;  // non-null only when cache events are on
  std::uint16_t tenant_ = 0;      // stamped into emitted events' channel
};

}  // namespace reqblock
