// Trace-driven simulation of the full stack: trace -> DRAM cache -> FTL.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cache/cache_manager.h"
#include "cache/policy_factory.h"
#include "fault/fault.h"
#include "host/overload.h"
#include "host/tenant.h"
#include "core/req_block.h"
#include "ssd/config.h"
#include "ssd/ftl.h"
#include "telemetry/telemetry.h"
#include "trace/io_request.h"
#include "util/fields.h"
#include "util/histogram.h"
#include "util/types.h"

namespace reqblock {

struct SimOptions {
  SsdConfig ssd = SsdConfig::experiment_default();
  CacheOptions cache;
  PolicyConfig policy;
  /// Log Req-block list occupancy every N requests (paper Fig. 13 uses
  /// 10,000); 0 disables the probe.
  std::uint64_t occupancy_log_interval = 0;
  /// Stop after this many requests (0 = whole trace).
  std::uint64_t max_requests = 0;
  /// Serve this many requests before statistics collection starts (cache
  /// and device state carry over; counters and histograms reset). The
  /// warmup requests do not count toward max_requests.
  std::uint64_t warmup_requests = 0;
  /// Deterministic fault injection for this run. With the default plan
  /// (everything off) the injector is never wired and the run is
  /// bit-identical to a fault-free build.
  FaultPlan fault;
  /// Overload protection: bounded host admission queue with deadlines,
  /// watermark background flushing, and GC-pressure write throttling. All
  /// off by default, leaving runs bit-identical to earlier builds.
  OverloadOptions overload;
  /// Multi-queue host front end: tenant count, arbitration discipline,
  /// per-tenant workload specs. The default single tenant leaves runs
  /// bit-identical to earlier builds.
  TenantOptions tenants;
  /// Event tracing, metric snapshots, and self-profiling for this run.
  TelemetryOptions telemetry;
  /// Let REQBLOCK_TRACE override telemetry.trace.level at Simulator
  /// construction (benches and examples respond to the environment with
  /// zero code; tests that assert specific gating turn this off).
  bool telemetry_env_override = true;
};

/// Everything a single (trace, policy, cache size) run produces.
struct RunResult {
  std::string trace_name;
  std::string policy_name;
  std::uint64_t cache_capacity_pages = 0;

  std::uint64_t requests = 0;
  std::uint64_t read_requests = 0;
  std::uint64_t write_requests = 0;

  /// Per-request response time (completion - arrival), ns. Shed requests
  /// never complete, so with an admission deadline configured
  /// response.count() can be below `requests` by exactly overload.sheds.
  LogHistogram response;
  LogHistogram read_response;
  LogHistogram write_response;
  /// Admission wait per admitted request (empty unless the bounded host
  /// queue is enabled), ns. SLO view: p50/p95/p99/p999 of queueing alone.
  LogHistogram queue_wait;

  CacheMetrics cache;
  FlashMetrics flash;
  /// Injected-fault accounting (fault.enabled == false on fault-free runs).
  FaultMetrics fault;
  /// Overload accounting: admissions, timeouts/sheds/retries, throttle
  /// events (enabled == false when the whole subsystem is off).
  OverloadMetrics overload;
  /// Empty on success; run_cases fills it with the case's failure message
  /// instead of tearing the whole experiment down.
  std::string error;
  bool ok() const { return error.empty(); }

  /// Fig. 13 series: one sample per occupancy_log_interval requests.
  std::vector<ListOccupancy> occupancy_series;

  /// Drained events, metric snapshots, and the wall-clock self-profile
  /// (all empty unless SimOptions::telemetry asked for them).
  TelemetryResult telemetry;

  /// Per-request latency attribution (enabled == false, everything empty,
  /// unless telemetry.attribution was on).
  AttributionResult attribution;

  /// Per-tenant slices of this run, in tenant-id order. Empty on
  /// single-tenant runs (the global fields above are the only view).
  std::vector<TenantResult> tenants;

  SimTime sim_end = 0;
  double wall_seconds = 0.0;
  /// Requests served before measurement started.
  std::uint64_t warmup_requests = 0;
  /// Mean busy fraction of the channel buses over the measured window.
  double channel_utilization = 0.0;
  /// Mean busy fraction of the chips over the measured window.
  double chip_utilization = 0.0;

  double hit_ratio() const { return cache.hit_ratio(); }
  double mean_response_ms() const {
    return response.mean() / static_cast<double>(kMillisecond);
  }
  /// Flash programs caused by cache flushes + bypasses (paper Fig. 11's
  /// "write count to flash memory").
  std::uint64_t flash_write_count() const { return flash.host_page_writes; }
};

/// RunResult's request counts and latency histograms, in the order both
/// the session snapshot and the stored result write them
/// (src/util/fields.h).
inline constexpr auto kRunRequestFields = std::tuple{
    Field{REQB_KNOB_FIELD(requests)},
    Field{REQB_KNOB_FIELD(read_requests)},
    Field{REQB_KNOB_FIELD(write_requests)},
    Field{REQB_KNOB_FIELD(response)},
    Field{REQB_KNOB_FIELD(read_response)},
    Field{REQB_KNOB_FIELD(write_response)},
    Field{REQB_KNOB_FIELD(queue_wait)},
};

/// Folds the REQBLOCK_TRACE override into `options` (once, when
/// telemetry_env_override is set) and checks every option block, throwing
/// on the first invalid one. Simulator's constructor and SimulationSession
/// both call it, so a bad option fails either one at construction.
void prepare_sim_options(SimOptions& options);

/// Reads REQBLOCK_AUDIT and REQBLOCK_TRACE, throwing std::invalid_argument
/// naming the variable when either holds a value that names no level.
/// The examples and reproduce call it beside ArgParser::reject_unread,
/// before any work, so a bad value fails the run once instead of once per
/// case.
void check_env_levels();

class Simulator {
 public:
  explicit Simulator(SimOptions options);

  /// Replays the trace once through a freshly constructed device + cache.
  /// Multi-tenant options derive one stream per tenant from the trace's
  /// synthetic profile (see build_session in sim/checkpoint.h).
  RunResult run(TraceSource& trace);

 private:
  SimOptions options_;
};

/// Convenience: options for one paper-style run.
SimOptions make_sim_options(const std::string& policy_name,
                            std::uint64_t cache_mb,
                            std::uint32_t delta = 5);

/// make_sim_options' cache size and Req-block delta as the examples read
/// them from --cache-mb and --delta; each example sets its own defaults.
struct CacheChoice {
  std::uint64_t cache_mb = 32;
  std::uint32_t delta = 5;
};

/// --cache-mb refuses 0 and any size whose byte count overflows 64 bits.
inline constexpr Knob kCacheMbKnob{"cache-mb", REQB_KNOB_FIELD(cache_mb),
                                   Syntax{"MB"},
                                   Range{1.0, 0x1p44, false, true,
                                         "in [1, 2^44)"}};
/// --delta refuses 0 and, by the field's width, anything above 2^32 - 1.
inline constexpr auto kCacheChoiceKnobs =
    std::tuple{kCacheMbKnob, Knob{"delta", REQB_KNOB_FIELD(delta),
                                  Syntax{"D"}, kAtLeastOne}};

/// Cache capacity in pages for a size in MB (4 KB pages).
std::uint64_t cache_pages_for_mb(std::uint64_t mb);

}  // namespace reqblock
