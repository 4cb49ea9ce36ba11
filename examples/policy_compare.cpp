// Policy shoot-out: run every cache management scheme on the same
// workload and cache size, in parallel, and print a comparison table —
// a one-command version of the paper's Figs. 8/9 for a single trace.
//
//   ./examples/policy_compare [--profile src1_2] [--cache-mb 32]
//                             [--requests N] [--all-policies]
//                             [--attribution] [--attribution-csv FILE]
//
// --attribution decomposes every policy's request latency into its
// critical-path components and appends a per-policy tail root-cause
// report (slowest decile and percentile).
#include <iostream>
#include <sstream>

#include "sim/experiment.h"
#include "sim/report.h"
#include "trace/profiles.h"
#include "util/args.h"
#include "util/atomic_file.h"
#include "util/strings.h"
#include "util/stats.h"

using namespace reqblock;

int main(int argc, char** argv) try {
  const ArgParser args(argc, argv);
  const std::string profile_name = args.get_or("profile", "src1_2");
  const std::uint64_t cache_mb = args.get_u64_strict("cache-mb", 32);
  const auto profile = profiles::by_name(profile_name)
                           .capped(args.get_u64_strict("requests", 300000));

  const auto policies =
      args.has("all-policies") ? known_policy_names() : paper_policy_names();

  std::vector<ExperimentCase> cases;
  for (const auto& policy : policies) {
    ExperimentCase c;
    c.profile = profile;
    c.options = make_sim_options(policy, cache_mb);
    c.options.telemetry.attribution = args.has("attribution");
    c.label = policy;
    cases.push_back(std::move(c));
  }

  std::cout << "Comparing " << cases.size() << " policies on "
            << profile_name << " (" << profile.total_requests
            << " requests, " << cache_mb << "MB cache)...\n\n";
  const auto results = run_cases(cases);

  results_table(results).print(std::cout);

  // Normalized comparison against LRU, the paper's baseline.
  const RunResult* lru = nullptr;
  for (const auto& r : results) {
    if (r.policy_name == "LRU") lru = &r;
  }
  if (lru != nullptr) {
    std::cout << "\nRelative to LRU:\n";
    TextTable t({"policy", "hit-ratio", "response-time", "flash-writes"});
    for (const auto& r : results) {
      t.add_row({r.policy_name,
                 format_double(
                     percent_change(r.hit_ratio(), lru->hit_ratio()), 1) +
                     "%",
                 format_double(percent_change(r.response.mean(),
                                              lru->response.mean()), 1) +
                     "%",
                 format_double(percent_change(
                     static_cast<double>(r.flash_write_count()),
                     static_cast<double>(lru->flash_write_count())), 1) +
                     "%"});
    }
    t.print(std::cout);
  }
  if (args.has("attribution")) {
    std::cout << "\n";
    write_tail_attribution(std::cout, results);
    if (const auto csv_path = args.get("attribution-csv")) {
      std::ostringstream csv;
      write_tail_attribution_csv(csv, results);
      write_file_atomic(*csv_path, csv.str());
      std::cout << "Wrote tail attribution to " << *csv_path << "\n";
    }
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "policy_compare: " << e.what() << "\n";
  return 1;
}
