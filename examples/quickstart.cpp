// Quickstart: simulate an SSD with the Req-block DRAM write buffer on a
// small synthetic workload and print the headline metrics.
//
//   ./examples/quickstart [--requests N] [--cache-mb MB] [--delta D]
#include <iostream>

#include "sim/report.h"
#include "sim/simulator.h"
#include "trace/synthetic.h"
#include "util/args.h"
#include "util/knobs.h"
#include "util/strings.h"

using namespace reqblock;

int main(int argc, char** argv) try {
  const ArgParser args(argc, argv);
  if (args.has("help")) {
    std::cout << "usage: " << args.program() << " [--requests N]\n";
    write_knob_help(std::cout, "cache", kCacheChoiceKnobs);
    return 0;
  }
  const std::uint64_t requests = args.get_u64_strict("requests", 200000);
  CacheChoice cache{.cache_mb = 16};
  apply_knobs(kCacheChoiceKnobs, cache, args);
  args.reject_unread();
  check_env_levels();

  // 1. Describe the workload: a hot set of small write requests (high
  //    reuse) plus cold sequential streams of large writes — the exact
  //    structure the paper's Observations 1-2 identify in real traces.
  WorkloadProfile profile;
  profile.name = "quickstart";
  profile.total_requests = requests;
  profile.seed = 42;
  profile.write_ratio = 0.7;
  profile.hot_extents = 4096;
  profile.large_write_fraction = 0.15;
  profile.large_write_min_pages = 16;
  profile.large_write_max_pages = 48;
  profile.hot_zipf_theta = 1.1;
  SyntheticTraceSource trace(profile);

  // 2. Configure the device (Table 1 geometry) and the cache policy.
  SimOptions options =
      make_sim_options("reqblock", cache.cache_mb, cache.delta);
  options.occupancy_log_interval = 10000;

  std::cout << "SSD configuration:\n";
  print_config(std::cout, options.ssd);

  // 3. Run and report.
  Simulator sim(options);
  const RunResult result = sim.run(trace);

  std::cout << "\nRun summary (" << result.requests << " requests, "
            << result.policy_name << " policy):\n";
  results_table({result}).print(std::cout);

  std::cout << "\nCache behaviour:\n"
            << "  page hits        " << result.cache.page_hits << " / "
            << result.cache.page_lookups << " lookups ("
            << format_double(result.hit_ratio() * 100, 2) << "%)\n"
            << "  evictions        " << result.cache.evictions
            << " (mean batch " << format_double(
                   result.cache.eviction_batch.mean(), 2) << " pages)\n"
            << "  flash writes     " << result.flash.host_page_writes << "\n"
            << "  flash reads      " << result.flash.host_page_reads << "\n"
            << "  GC runs          " << result.flash.gc_runs << " ("
            << result.flash.gc_page_moves << " moves)\n";

  if (!result.occupancy_series.empty()) {
    const auto& last = result.occupancy_series.back();
    std::cout << "\nReq-block list occupancy at end of run (pages):\n"
              << "  IRL " << last.irl_pages << "  SRL " << last.srl_pages
              << "  DRL " << last.drl_pages << "\n";
  }
  std::cout << "\nSimulated " << result.requests << " requests covering "
            << format_double(static_cast<double>(result.sim_end) / kSecond, 1)
            << "s of device time in "
            << format_double(result.wall_seconds, 2) << "s of wall time.\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "quickstart: " << e.what() << "\n";
  return 1;
}
