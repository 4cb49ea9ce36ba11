// Trace replay: run any cache policy against an MSR-format trace file or
// one of the built-in synthetic profiles.
//
//   ./examples/trace_replay --profile proj_0 --policy reqblock
//        --cache-mb 32 [--requests N] [--delta D] [--occupancy]
//   ./examples/trace_replay --trace /path/to/msr.csv --policy lru
//
// The MSR path accepts the Microsoft Research Cambridge CSV format, so the
// paper's original traces can be replayed unchanged when available.
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>

#include "cache/policy_factory.h"
#include "sim/checkpoint.h"
#include "sim/report.h"
#include "trace/profiles.h"
#include "trace/trace_file.h"
#include "trace/trace_stats.h"
#include "trace/vector_source.h"
#include "util/args.h"
#include "util/atomic_file.h"
#include "util/knobs.h"
#include "util/strings.h"

using namespace reqblock;

namespace {

using TraceOpener = std::function<std::unique_ptr<TraceSource>()>;

/// Reads the trace flags and returns what opens the trace, so that a bad
/// flag fails the run before a trace file is parsed.
TraceOpener trace_opener(const ArgParser& args) {
  if (const auto path = args.get("trace")) {
    MsrParseOptions opts;
    opts.max_requests = args.get_u64_strict("requests", 0);
    return [path = *path, opts]() -> std::unique_ptr<TraceSource> {
      auto requests = parse_msr_file(path, opts);
      std::cout << "Loaded " << requests.size() << " requests from " << path
                << "\n";
      return std::make_unique<VectorTraceSource>(std::move(requests), path);
    };
  }
  if (const auto path = args.get("spc")) {
    SpcParseOptions opts;
    opts.max_requests = args.get_u64_strict("requests", 0);
    return [path = *path, opts]() -> std::unique_ptr<TraceSource> {
      auto requests = parse_spc_file(path, opts);
      std::cout << "Loaded " << requests.size() << " SPC requests from "
                << path << "\n";
      return std::make_unique<VectorTraceSource>(std::move(requests), path);
    };
  }
  const std::string name = args.get_or("profile", "usr_0");
  auto profile =
      profiles::by_name(name).capped(args.get_u64_strict("requests", 300000));
  // Burst-arrival modulation and workload drift (synthetic profiles only).
  apply_knobs(kWorkloadShapeKnobs, profile, args);
  return [profile]() -> std::unique_ptr<TraceSource> {
    return std::make_unique<SyntheticTraceSource>(profile);
  };
}

}  // namespace

int main(int argc, char** argv) try {
  const ArgParser args(argc, argv);
  if (args.has("help")) {
    std::cout << "usage: " << args.program()
              << " [--profile NAME | --trace MSR_FILE | --spc SPC_FILE]"
                 " [--policy NAME] [--requests N] [--warmup N]"
                 " [--occupancy] [--stats-only]"
                 " [--csv FILE] [--tenant-csv FILE] [--attribution-csv FILE]\n"
                 "checkpointing: [--checkpoint-dir DIR]"
                 " [--checkpoint-every-n REQS] [--resume-from FILE]\n"
                 "profiles: hm_1 lun_1 usr_0 src1_2 ts_0 proj_0\n"
                 "policies: lru fifo lfu cflru fab bplru vbbms reqblock\n";
    write_knob_help(std::cout, "cache", kCacheChoiceKnobs);
    write_knob_help(std::cout, "fault injection", kFaultKnobs);
    write_knob_help(std::cout, "device aging", kAgingKnobs);
    write_knob_help(std::cout, "data integrity", kIntegrityKnobs);
    write_knob_help(std::cout, "overload", kOverloadKnobs);
    write_knob_help(std::cout, "tenants (synthetic only)", kTenantKnobs);
    write_knob_help(std::cout, "per-tenant lists (synthetic only)",
                    kTenantSpecKnobs, "", ",..");
    write_knob_help(std::cout, "telemetry", kTelemetryKnobs, "telemetry-");
    write_knob_help(std::cout, "workload shape (synthetic only)",
                    kWorkloadShapeKnobs);
    return 0;
  }

  const TraceOpener open_trace = trace_opener(args);

  CacheChoice cache;
  apply_knobs(kCacheChoiceKnobs, cache, args);
  const std::string policy = args.get_or("policy", "reqblock");
  check_policy_names({policy}, "policy");
  SimOptions options = make_sim_options(policy, cache.cache_mb, cache.delta);
  options.warmup_requests = args.get_u64_strict("warmup", 0);
  // The driver's own switches, read strictly: a value after one is refused.
  struct {
    bool occupancy = false;
    bool stats_only = false;
  } switches;
  apply_knobs(
      std::tuple{Knob{"occupancy", REQB_KNOB_FIELD(occupancy), kSwitch},
                 Knob{"stats-only", REQB_KNOB_FIELD(stats_only), kSwitch}},
      switches, args);
  if (switches.occupancy) options.occupancy_log_interval = 10000;
  options.fault.apply_cli(args);
  options.overload.apply_cli(args);
  // Telemetry flags ride behind a "telemetry-" namespace: trace_replay's
  // own --trace and --profile already mean "MSR file" and "workload name".
  options.telemetry.apply_cli(args, "telemetry-");
  options.tenants.apply_cli(args);

  CheckpointOptions ckpt;
  ckpt.apply_cli(args);
  std::string resume_from = args.get_or("resume-from", "");
  const auto results_csv = args.get("csv");
  const auto tenant_csv = args.get("tenant-csv");
  const auto attribution_csv = args.get("attribution-csv");
  args.reject_unread();
  check_env_levels();
  const std::unique_ptr<TraceSource> trace = open_trace();

  if (switches.stats_only) {
    const auto stats = TraceStatsCollector::collect(*trace);
    TextTable t({"trace", "requests", "write-ratio", "mean-write",
                 "frequent-R", "frequent-(Wr)"});
    t.add_row({trace->name(), std::to_string(stats.requests),
               format_double(stats.write_ratio() * 100, 1) + "%",
               format_double(stats.mean_write_kb(), 1) + "KB",
               format_double(stats.frequent_ratio * 100, 1) + "%",
               format_double(stats.frequent_write_ratio * 100, 1) + "%"});
    t.print(std::cout);
    return 0;
  }

  if (resume_from.empty() && !ckpt.dir.empty()) {
    // Restarted with the same --checkpoint-dir: pick up where we died.
    resume_from = find_latest_checkpoint(ckpt.dir, "run");
    if (!resume_from.empty()) {
      std::cout << "Resuming from " << resume_from << "\n";
    }
  }
  const RunResult result =
      run_with_checkpoints(options, *trace, ckpt, resume_from);

  results_table({result}).print(std::cout);
  // Fixed reliability section order: fault, aging, integrity.
  write_reliability_summary(std::cout, result);
  write_overload_summary(std::cout, result);
  write_tenant_summary(std::cout, result);
  if (tenant_csv) {
    std::ostringstream csv;
    write_tenant_csv(csv, {result});
    write_file_atomic(*tenant_csv, csv.str());
    std::cout << "\nWrote per-tenant CSV to " << *tenant_csv << "\n";
  }
  write_tail_attribution(std::cout, {result});
  if (attribution_csv) {
    std::ostringstream csv;
    write_tail_attribution_csv(csv, {result});
    write_file_atomic(*attribution_csv, csv.str());
    std::cout << "\nWrote tail attribution to " << *attribution_csv << "\n";
  }
  if (results_csv) {
    // Temp file + atomic rename: a crash mid-write never leaves a
    // truncated CSV where a complete one is expected.
    std::ostringstream csv;
    write_results_csv(csv, {result});
    write_file_atomic(*results_csv, csv.str());
    std::cout << "\nWrote CSV row to " << *results_csv << "\n";
  }
  if (!result.occupancy_series.empty()) {
    std::cout << "\nList occupancy every 10k requests (IRL/SRL/DRL pages):\n";
    for (std::size_t i = 0; i < result.occupancy_series.size(); ++i) {
      const auto& o = result.occupancy_series[i];
      std::cout << "  @" << (i + 1) * 10000 << ": " << o.irl_pages << " / "
                << o.srl_pages << " / " << o.drl_pages << "\n";
    }
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "trace_replay: " << e.what() << "\n";
  return 1;
}
