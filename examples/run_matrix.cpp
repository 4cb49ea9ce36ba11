// Experiment matrix: every policy against one synthetic profile, side by
// side, with optional crash-consistent checkpointing.
//
//   ./examples/run_matrix --profile usr_0 --requests 50000 --cache-mb 32
//   ./examples/run_matrix --policies lru,bplru,vbbms,reqblock --attribution
//   ./examples/run_matrix --checkpoint-dir /tmp/ckpt --checkpoint-every-n 10000
//
// When LRU is in the matrix, a second table gives every policy's hit
// ratio, response time and flash writes relative to it (the paper's
// baseline). --attribution decomposes every policy's request latency into
// its critical-path components and appends a per-policy tail root-cause
// report (slowest decile and percentile); --attribution-csv FILE also
// writes it as CSV.
//
// The cases run in parallel through run_cases, checkpointed or not. With
// --checkpoint-dir a manifest records which cases finished and each case
// in flight checkpoints itself; killing the process and rerunning the same
// command resumes where it died and produces byte-identical results (and
// CSV) to an uninterrupted run.
#include <algorithm>
#include <iostream>
#include <sstream>

#include "cache/policy_factory.h"
#include "sim/experiment.h"
#include "sim/report.h"
#include "trace/profiles.h"
#include "util/args.h"
#include "util/atomic_file.h"
#include "util/knobs.h"
#include "util/stats.h"
#include "util/strings.h"

using namespace reqblock;

int main(int argc, char** argv) try {
  const ArgParser args(argc, argv);
  if (args.has("help")) {
    std::cout << "usage: " << args.program()
              << " [--profile NAME] [--requests N] [--policies a,b,c]"
                 " [--csv FILE] [--tenant-csv FILE] [--attribution]"
                 " [--attribution-csv FILE]\n"
                 "checkpointing: [--checkpoint-dir DIR]"
                 " [--checkpoint-every-n REQS]\n"
                 "profiles: hm_1 lun_1 usr_0 src1_2 ts_0 proj_0\n"
                 "policies: lru fifo lfu cflru fab bplru vbbms reqblock\n";
    write_knob_help(std::cout, "cache", kCacheChoiceKnobs);
    write_knob_help(std::cout, "fault injection", kFaultKnobs);
    write_knob_help(std::cout, "device aging", kAgingKnobs);
    write_knob_help(std::cout, "data integrity", kIntegrityKnobs);
    write_knob_help(std::cout, "overload", kOverloadKnobs);
    write_knob_help(std::cout, "tenants", kTenantKnobs);
    write_knob_help(std::cout, "per-tenant lists", kTenantSpecKnobs, "",
                    ",..");
    write_knob_help(std::cout, "workload shape", kWorkloadShapeKnobs);
    return 0;
  }

  const std::string profile_name = args.get_or("profile", "usr_0");
  auto profile = profiles::by_name(profile_name)
                     .capped(args.get_u64_strict("requests", 50000));
  apply_knobs(kWorkloadShapeKnobs, profile, args);

  std::vector<std::string> policies;
  if (const auto list = args.get("policies")) {
    for (const auto piece : split(*list, ',')) {
      policies.emplace_back(trim(piece));
    }
    check_policy_names(policies, "policies");
  } else {
    policies = known_policy_names();
  }

  // The option blocks do not depend on the policy: apply them once.
  CacheChoice cache;
  apply_knobs(kCacheChoiceKnobs, cache, args);
  SimOptions base = make_sim_options("", cache.cache_mb, cache.delta);
  base.fault.apply_cli(args);
  base.overload.apply_cli(args);
  base.tenants.apply_cli(args);
  // A one-row table reads the switch strictly, as trace_replay does: a
  // value after it is refused. run_matrix takes no other telemetry flag.
  apply_knobs(std::tuple{Knob{"attribution", REQB_KNOB_FIELD(attribution),
                              kSwitch}},
              base.telemetry, args);
  std::vector<ExperimentCase> cases;
  for (const auto& policy : policies) {
    ExperimentCase c;
    c.profile = profile;
    c.options = base;
    c.options.policy.name = policy;
    c.label = policy;
    cases.push_back(std::move(c));
  }

  CheckpointOptions ckpt;
  ckpt.apply_cli(args);
  const auto results_csv = args.get("csv");
  const auto tenant_csv = args.get("tenant-csv");
  const auto attribution_csv = args.get("attribution-csv");
  args.reject_unread();
  check_env_levels();

  const std::vector<RunResult> results = run_cases(cases, 0, ckpt);

  results_table(results).print(std::cout);
  const auto lru = std::find_if(results.begin(), results.end(),
                                [](const RunResult& r) {
                                  return r.policy_name == "LRU";
                                });
  if (lru != results.end()) {
    std::cout << "\nRelative to LRU:\n";
    TextTable t({"policy", "hit-ratio", "response-time", "flash-writes"});
    const auto change = [](double value, double baseline) {
      return format_double(percent_change(value, baseline), 1) + "%";
    };
    for (const auto& r : results) {
      t.add_row({r.policy_name, change(r.hit_ratio(), lru->hit_ratio()),
                 change(r.response.mean(), lru->response.mean()),
                 change(static_cast<double>(r.flash_write_count()),
                        static_cast<double>(lru->flash_write_count()))});
    }
    t.print(std::cout);
  }
  // Reliability tables render per result in one fixed order (fault,
  // aging, integrity) so the report's shape does not depend on which
  // subsystems were enabled across the matrix.
  for (const auto& r : results) write_reliability_summary(std::cout, r);
  for (const auto& r : results) write_overload_summary(std::cout, r);
  for (const auto& r : results) write_tenant_summary(std::cout, r);
  if (base.telemetry.attribution) {
    std::cout << "\n";
    write_tail_attribution(std::cout, results);
  }
  if (attribution_csv) {
    std::ostringstream csv;
    write_tail_attribution_csv(csv, results);
    write_file_atomic(*attribution_csv, csv.str());
    std::cout << "\nWrote tail attribution to " << *attribution_csv << "\n";
  }

  if (tenant_csv) {
    std::ostringstream csv;
    write_tenant_csv(csv, results);
    write_file_atomic(*tenant_csv, csv.str());
    std::cout << "\nWrote per-tenant CSV to " << *tenant_csv << "\n";
  }
  if (results_csv) {
    std::ostringstream csv;
    write_results_csv(csv, results);
    write_file_atomic(*results_csv, csv.str());
    std::cout << "\nWrote " << results.size() << " CSV rows to "
              << *results_csv << "\n";
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "run_matrix: " << e.what() << "\n";
  return 1;
}
