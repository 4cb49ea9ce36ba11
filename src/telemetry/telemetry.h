// Per-run telemetry bundle: event trace + metrics registry + profiler.
//
// One Telemetry instance belongs to one simulated run (runs parallelize
// at the experiment level, one bundle each; nothing here is shared or
// thread-safe). The simulator wires the three pillars into the stack:
//   * TraceBuffer    — structured events from CacheManager / policy / Ftl;
//   * MetricsRegistry— named gauges, snapshotted every N requests or
//                      M sim-ns into a MetricsSeries;
//   * Profiler       — wall-clock scoped timers around the hot loop.
//
// Runtime gates:
//   REQBLOCK_TRACE=off|cache|flash|all   event categories (default off)
//   the flags of kTelemetryKnobs         per-binary CLI (apply_cli)
#pragma once

#include <cstdint>
#include <string_view>

#include "telemetry/metrics_registry.h"
#include "telemetry/profiler.h"
#include "telemetry/trace_buffer.h"
#include "util/knobs.h"
#include "util/types.h"

namespace reqblock {

struct TelemetryOptions {
  TraceConfig trace;
  /// Snapshot the metrics registry every N measured requests (0 = off).
  std::uint64_t snapshot_every_requests = 0;
  /// ... and/or every M sim-ns of completion-time progress (0 = off).
  SimTime snapshot_every_ns = 0;
  /// Collect the wall-clock self-profile.
  bool profile = false;
  /// Per-request latency attribution: component histograms, the response
  /// bucket x component matrix behind tail root-cause reports, and (when
  /// the trace is on) kAttrSpan events for Chrome-trace span lanes. Off by
  /// default; runs without it are bit-identical to earlier builds.
  bool attribution = false;

  bool snapshots_enabled() const {
    return snapshot_every_requests > 0 || snapshot_every_ns > 0;
  }

  /// Overrides the trace level from REQBLOCK_TRACE when the variable is
  /// set (explicitly configured binaries call this last — or not at all).
  void apply_env() { trace.level = trace_level_from_env(trace.level); }

  /// Reads the flags of kTelemetryKnobs. Flags the parser does not carry
  /// keep their current value. `prefix` namespaces every flag (binaries
  /// whose own flags collide pass e.g. "telemetry-" and expose
  /// --telemetry-trace, --telemetry-profile, ...); --attribution is always
  /// honored unprefixed as well, since no binary overloads it.
  void apply_cli(const ArgParser& args, std::string_view prefix = "");
};

/// Every TelemetryOptions knob, in fingerprint order (src/util/knobs.h).
inline constexpr auto kTelemetryKnobs = std::tuple{
    Knob{"trace", REQB_KNOB_FIELD(trace.level),
         Choice<TraceLevel>{"off|cache|flash|all", trace_level_from_name}},
    Knob{"trace-buffer", REQB_KNOB_FIELD(trace.capacity), kInteger,
         kAtLeastOne},
    Knob{"trace-sample", REQB_KNOB_FIELD(trace.sample_period), kInteger},
    Knob{"snapshot-every", REQB_KNOB_FIELD(snapshot_every_requests), kInteger},
    Knob{"snapshot-every-ms", REQB_KNOB_FIELD(snapshot_every_ns), kMsNumber},
    Knob{"profile", REQB_KNOB_FIELD(profile), kSwitch},
    Knob{"attribution", REQB_KNOB_FIELD(attribution), kSwitch,
         kAnyValue, /*bare=*/true},
};

class Telemetry {
 public:
  explicit Telemetry(TelemetryOptions options)
      : options_(options),
        trace_(options.trace),
        profiler_(options.profile) {}

  const TelemetryOptions& options() const { return options_; }
  TraceBuffer& trace() { return trace_; }
  const TraceBuffer& trace() const { return trace_; }
  MetricsRegistry& registry() { return registry_; }
  const MetricsRegistry& registry() const { return registry_; }
  Profiler& profiler() { return profiler_; }
  const Profiler& profiler() const { return profiler_; }

 private:
  TelemetryOptions options_;
  TraceBuffer trace_;
  MetricsRegistry registry_;
  Profiler profiler_;
};

/// What a finished run hands back (drained, value-typed, thread-safe to
/// move across the experiment runner).
struct TelemetryResult {
  std::vector<TraceEvent> events;
  std::uint64_t events_emitted = 0;
  std::uint64_t events_dropped = 0;
  std::uint64_t events_sampled_out = 0;
  MetricsSeries snapshots;
  ProfileReport profile;

  bool empty() const {
    return events.empty() && snapshots.empty() && profile.empty();
  }
};

}  // namespace reqblock
