// trace_viz: run a small workload with full telemetry and export a
// ready-to-open Chrome trace plus a metric-snapshot CSV.
//
//   ./examples/trace_viz [--requests N] [--cache-mb MB] [--policy NAME]
//                        [--out-dir DIR] [telemetry, fault and overload
//                        flags, see --help]
//
// Open the .trace.json in chrome://tracing or https://ui.perfetto.dev:
// pid 1 is the cache (one lane per Req-block list plus a host lane for
// admission events), pid 2 the flash chips, pid 3 the channel buses, and
// pid 4 the per-request latency attribution (one lane per component; a
// served request's spans tile arrival..completion across the lanes). The
// .snapshots.csv holds one row per snapshot interval with every
// registered metric as a column — plot the list.* columns over `request`
// to reproduce the paper's Fig. 13 occupancy plot.
#include <array>
#include <iostream>

#include "sim/experiment.h"
#include "sim/report.h"
#include "sim/simulator.h"
#include "trace/synthetic.h"
#include "util/args.h"
#include "util/knobs.h"
#include "util/strings.h"
#include "util/table.h"

using namespace reqblock;

namespace {

/// Where an event kind renders in the exported Chrome trace. Keep in sync
/// with exporters.cc — every kind names a lane; nothing falls through to
/// an "unknown" bucket.
const char* lane_of(EventKind k) {
  switch (k) {
    case EventKind::kAttrSpan:
      return "attribution/<component> (pid 4)";
    case EventKind::kQueueEnqueue:
    case EventKind::kQueueTimeout:
    case EventKind::kThrottle:
      return "cache/host (pid 1)";
    case EventKind::kReqBlockSplit:
    case EventKind::kReqBlockPromote:
    case EventKind::kReqBlockMerge:
    case EventKind::kReqBlockBatchEvict:
      return "cache/IRL|SRL|DRL (pid 1)";
    case EventKind::kPageRead:
    case EventKind::kPageProgram:
      return "flash chip + channel (pids 2, 3)";
    default:
      break;
  }
  return category_of(k) == EventCategory::kCache ? "cache/manager (pid 1)"
                                                 : "flash chip (pid 2)";
}

}  // namespace

int main(int argc, char** argv) try {
  const ArgParser args(argc, argv);
  if (args.has("help")) {
    std::cout << "usage: " << args.program()
              << " [--requests N] [--policy NAME] [--out-dir DIR]\n";
    write_knob_help(std::cout, "cache", std::tuple{kCacheMbKnob});
    write_knob_help(std::cout, "telemetry", kTelemetryKnobs);
    write_knob_help(std::cout, "fault injection", kFaultKnobs);
    write_knob_help(std::cout, "device aging", kAgingKnobs);
    write_knob_help(std::cout, "data integrity", kIntegrityKnobs);
    write_knob_help(std::cout, "overload", kOverloadKnobs);
    return 0;
  }

  WorkloadProfile profile;
  profile.name = "trace_viz";
  profile.total_requests = args.get_u64_strict("requests", 50000);
  profile.seed = 7;
  profile.write_ratio = 0.7;
  profile.hot_extents = 2048;
  profile.large_write_fraction = 0.15;
  profile.large_write_min_pages = 16;
  profile.large_write_max_pages = 48;
  profile.hot_zipf_theta = 1.1;
  SyntheticTraceSource trace(profile);

  CacheChoice cache{.cache_mb = 16};
  apply_knobs(std::tuple{kCacheMbKnob}, cache, args);
  SimOptions options =
      make_sim_options(args.get_or("policy", "reqblock"), cache.cache_mb);

  // Telemetry on by default here — that is the point of this example.
  // Flags (and REQBLOCK_TRACE) can still narrow or widen it.
  options.telemetry.trace.level = TraceLevel::kAll;
  options.telemetry.snapshot_every_requests = 1000;
  options.telemetry.profile = true;
  options.telemetry.apply_cli(args);
  // Fault injection and overload protection off by default; their flags
  // let the export show retry/timeout/throttle lanes on demand.
  options.fault.apply_cli(args);
  options.overload.apply_cli(args);
  const std::string out_dir = args.get_or("out-dir", "trace_viz_out");
  args.reject_unread();
  check_env_levels();

  Simulator sim(options);
  const RunResult result = sim.run(trace);
  const RunArtifacts artifacts = export_run_artifacts(result, out_dir);

  std::cout << "Run: " << result.requests << " requests, "
            << result.policy_name << " policy, hit ratio "
            << format_double(result.hit_ratio() * 100, 2) << "%\n"
            << "Events: " << result.telemetry.events.size() << " collected ("
            << result.telemetry.events_emitted << " emitted, "
            << result.telemetry.events_dropped << " overwritten, "
            << result.telemetry.events_sampled_out << " sampled out)\n\n";
  if (!artifacts.chrome_trace.empty()) {
    std::cout << "Chrome trace : " << artifacts.chrome_trace
              << "  (open in chrome://tracing or ui.perfetto.dev)\n"
              << "Event JSONL  : " << artifacts.events_jsonl << "\n";
  }
  if (!artifacts.snapshots_csv.empty()) {
    std::cout << "Snapshot CSV : " << artifacts.snapshots_csv << "  ("
              << result.telemetry.snapshots.rows.size() << " rows x "
              << result.telemetry.snapshots.columns.size()
              << " metrics)\n";
  }
  std::cout << "\n";

  // Per-kind legend: how many events of each kind the export holds and
  // the Perfetto lane they render on (fault, overload, aging and integrity
  // kinds included).
  if (!result.telemetry.events.empty()) {
    constexpr std::size_t kKinds =
        static_cast<std::size_t>(kLastEventKind) + 1;
    std::array<std::uint64_t, kKinds> counts{};
    for (const TraceEvent& e : result.telemetry.events) {
      ++counts[static_cast<std::size_t>(e.kind)];
    }
    TextTable legend({"event kind", "count", "lane"});
    for (std::size_t k = 0; k < kKinds; ++k) {
      if (counts[k] == 0) continue;
      const auto kind = static_cast<EventKind>(k);
      legend.add_row({to_string(kind), std::to_string(counts[k]),
                      lane_of(kind)});
    }
    legend.print(std::cout);
    std::cout << "\n";
  }

  write_tail_attribution(std::cout, {result});
  write_snapshot_summary(std::cout, result);
  std::cout << "\n";
  write_self_profile(std::cout, result);
  return 0;
} catch (const std::exception& e) {
  std::cerr << "trace_viz: " << e.what() << "\n";
  return 1;
}
