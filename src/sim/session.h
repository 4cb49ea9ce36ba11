// Stepwise, checkpointable simulation of one run.
//
// SimulationSession is Simulator::run unrolled into an object: construct
// it around a trace (or one trace per tenant), call step() once per
// request, then finish() to close the run and collect the RunResult. The
// stepped form exists so a long run can be checkpointed between any two
// requests — serialize() captures every piece of state the next step
// depends on (cache + policy, FTL + flash array, fault-injector RNG
// stream, per-tenant trace cursors and pre-pulled heads, admission
// queues, arbiter state, partial result accumulators, telemetry
// buffers), and a session deserialized from that snapshot continues the
// run bit-for-bit as if it had never stopped.
//
// Multi-queue front end: with N > 1 tenants each trace source feeds its
// own submission queue bound to a disjoint slice of the logical address
// space, and an Arbiter (see host/arbiter.h) picks which queue's head
// request is served next. Eligibility is driven by a monotone
// arbitration clock: a head whose arrival is at or before the latest
// completion frontier is "ready" (it had arrived while the device was
// busy); when no head is ready the clock jumps to the earliest arrival.
// Ties break deterministically — the ready list is ordered by tenant id
// and every arbiter resolves cyclic ties toward the lowest tenant next
// in order — so equal configurations replay byte-identical runs at any
// thread count. A single-tenant session degenerates to serving the trace
// in order, bit-identical to the historical single-stream loop.
//
// What is deliberately NOT checkpointed:
//   * wall-clock accounting — RunResult::wall_seconds of a resumed run
//     covers only the resumed segment (wall time is not simulated state
//     and never feeds a results CSV);
//   * the self-profiler — same reason, same consumer.
//
// Identity: a snapshot embeds config_fingerprint(options) and the
// trace's identity_hash() (for multi-tenant runs, a fingerprint over
// every tenant stream's identity). Restoring against a session built
// from different options or different traces throws SnapshotError
// instead of silently producing a franken-run.
#pragma once

#include <cstdint>
#include <chrono>
#include <memory>
#include <vector>

#include "host/arbiter.h"
#include "sim/simulator.h"

namespace reqblock {

class SnapshotReader;
class SnapshotWriter;

/// Stable hash over every option field that affects a run's results:
/// device geometry and timing, cache and policy configuration, warmup and
/// request caps, the fault plan, the telemetry options, and — only when
/// more than one tenant is configured — the multi-queue front end (count,
/// arbiter, per-tenant specs). Single-tenant fingerprints are unchanged
/// from earlier builds, so stored single-stream results stay loadable.
/// Two SimOptions with equal fingerprints drive byte-identical runs of
/// the same trace(s).
std::uint64_t config_fingerprint(const SimOptions& options);

class SimulationSession {
 public:
  /// Builds the full stack (device, cache, fault wiring, telemetry) and
  /// resets the trace to its first request. Checks the options as
  /// Simulator does (prepare_sim_options, REQBLOCK_TRACE override
  /// included). Requires options.tenants.count == 1 (the classic
  /// single-stream front end).
  SimulationSession(SimOptions options, TraceSource& trace);

  /// Multi-queue front end: one trace source per tenant (the sources must
  /// outlive the session), each bound to its own submission queue and
  /// namespace slice. Requires options.tenants.count == traces.size().
  SimulationSession(SimOptions options,
                    const std::vector<TraceSource*>& traces);

  /// Serves the next request (warmup or measured). Returns false when the
  /// run is complete — every trace exhausted or max_requests reached —
  /// after which step() keeps returning false.
  bool step();

  bool done() const { return finished_; }
  /// Requests served so far, warmup + measured (the checkpoint cadence
  /// counter).
  std::uint64_t served() const { return served_; }
  /// Host-queue commands currently in flight across all tenants (0 when
  /// admission control is off). Lets callers checkpoint "mid-burst with a
  /// non-empty queue".
  std::size_t queue_in_flight() const;
  /// Per-tenant in-flight command counts, in tenant-id order.
  std::vector<std::size_t> tenant_queue_depths() const;

  /// Finalizes the run (drains telemetry, runs the device audit, computes
  /// utilization) and returns the result. Call exactly once, after step()
  /// returned false.
  RunResult finish();

  /// The effective options (after env overrides) this session runs with.
  const SimOptions& options() const { return options_; }
  /// config_fingerprint(options()) — embedded in checkpoints.
  std::uint64_t config_hash() const { return config_hash_; }
  /// The trace's content identity — embedded in checkpoints. Multi-tenant
  /// sessions fingerprint every tenant stream's identity in order.
  std::uint64_t trace_hash() const { return trace_hash_; }

  /// Checkpoint every piece of state the next step() depends on. The
  /// target of deserialize() must be a freshly constructed session over
  /// the same options and trace(s); identity is the caller's contract
  /// here (checkpoint files carry the fingerprints — see
  /// sim/checkpoint.h).
  void serialize(SnapshotWriter& w) const;
  void deserialize(SnapshotReader& r);
  /// An upper bound on the bytes serialize() writes from the cache
  /// section on (cache, FTL, fault injector, event ring), the sections
  /// whose tables grow with the run; serialize() reserves it before
  /// writing them.
  std::size_t layer_snapshot_bytes() const;

 private:
  /// One submission queue: its trace source, namespace slice, admission
  /// queue, the pre-pulled head request, and per-tenant accounting.
  struct Tenant {
    TraceSource* trace = nullptr;
    Lpn lpn_base = 0;
    /// Pages in this tenant's namespace slice; 0 = identity mapping (the
    /// single-tenant front end owns the whole device).
    Lpn lpn_span = 0;
    std::unique_ptr<HostAdmissionQueue> queue;
    IoRequest head;
    bool head_valid = false;
    bool exhausted = false;
    TenantResult acct;
  };

  /// What one trip through throttle -> admission -> cache service produced.
  /// On a shed, `done` is the attempt time (nothing was served) and `wait`
  /// is meaningless.
  struct ServeOutcome {
    bool shed = false;
    SimTime done = 0;          // completion (or final attempt time on shed)
    SimTime host_arrival = 0;  // arrival before recovery/throttle/queueing
    SimTime wait = 0;          // admission-queue wait
    SimTime service_start = 0;  // when the cache (or shed check) saw it
    /// Component split of [host_arrival, done]; filled (and exact-sum
    /// audited at kFull) only when telemetry.attribution is on.
    RequestBreakdown bd;
  };

  static constexpr std::size_t kNoTenant = static_cast<std::size_t>(-1);

  void init(const std::vector<TraceSource*>& traces);
  /// Pulls missing heads, advances the arbitration clock, and asks the
  /// arbiter to choose among the ready heads. Returns kNoTenant when all
  /// traces are exhausted.
  std::size_t select_tenant();
  /// Folds the request into the tenant's namespace slice (no-op when
  /// lpn_span == 0).
  void apply_namespace(const Tenant& t, IoRequest& req) const;
  void end_warmup();
  /// Shared overload-aware serve path for warmup and measured requests:
  /// power-loss recovery clamp, GC-pressure throttle, bounded-queue
  /// admission, then CacheManager::serve for admitted requests.
  ServeOutcome serve_request(IoRequest& req, Tenant& t);
  void serve_measured(IoRequest& req, Tenant& t);
  /// The close-out of every served request, warmup or measured, that
  /// completed at `done`: counts it in served_, injects a scheduled power
  /// loss (a measured request raises sim_end to the recovery's end), and
  /// runs a patrol-scrub pass (integrity subsystem) when served_ hits the
  /// plan's interval.
  void close_request(SimTime done, bool measured);
  void take_snapshot();

  SimOptions options_;
  std::uint64_t config_hash_ = 0;
  std::uint64_t trace_hash_ = 0;

  std::unique_ptr<Ftl> ftl_;
  std::unique_ptr<CacheManager> cache_;
  std::unique_ptr<FaultInjector> fault_;
  std::unique_ptr<Telemetry> telemetry_;
  ReqBlockPolicy* req_block_ = nullptr;  // occupancy probe target, or null

  std::vector<Tenant> tenants_;
  std::unique_ptr<Arbiter> arbiter_;
  /// Monotone arbitration clock: the latest completion frontier (or, when
  /// idle, the earliest pending arrival). Heads arrived at or before it
  /// compete for service.
  SimTime arb_now_ = 0;
  std::vector<ReadyHead> ready_;  // scratch for select_tenant()

  RunResult result_;
  std::uint64_t served_ = 0;  // warmup + measured, drives the loss schedule
  SimTime resume_at_ = 0;     // device unavailable before this time
  SimTime next_snap_ns_ = 0;
  bool warmup_done_ = false;
  bool finished_ = false;
  bool finalized_ = false;
  SimTime last_warmup_arrival_ = 0;
  SimTime warmup_end_ = 0;
  std::vector<SimTime> warmup_channel_busy_;
  std::vector<SimTime> warmup_chip_busy_;

  // REQB_LINT_ALLOW(no-wallclock): wall-clock span reported as
  // wall_seconds only; deliberately outside the serialized state.
  std::chrono::steady_clock::time_point wall_start_;
};

}  // namespace reqblock
