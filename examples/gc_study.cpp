// Garbage-collection study: drive a deliberately small device several
// full overwrites deep and watch GC activity, write amplification and
// wear interact with the cache policy.
//
// Batch-evicting policies retire whole request/virtual blocks at once;
// because those pages tend to die together, GC victims carry fewer valid
// pages and write amplification drops — a second-order benefit of
// request-granularity management beyond the paper's headline metrics.
//
//   ./examples/gc_study [--device-mb 512] [--requests 300000]
//                       [--policy reqblock] [--footprint-pct 60]
#include <iostream>

#include "sim/report.h"
#include "sim/simulator.h"
#include "trace/synthetic.h"
#include "util/args.h"
#include "util/strings.h"

using namespace reqblock;

int main(int argc, char** argv) try {
  const ArgParser args(argc, argv);
  const std::uint64_t device_mb = args.get_u64_strict("device-mb", 512);
  const std::uint64_t requests = args.get_u64_strict("requests", 300000);
  const std::uint64_t footprint_pct =
      args.get_u64_strict("footprint-pct", 60);

  SsdConfig ssd = SsdConfig::paper_default();
  ssd.capacity_bytes = device_mb << 20;
  ssd.validate();

  // Size the workload to the device: the hot extents plus one write
  // stream cover footprint-pct of physical capacity, so sustained writes
  // force steady-state garbage collection.
  const std::uint64_t device_pages = ssd.total_pages();
  WorkloadProfile profile;
  profile.name = "gc-study";
  profile.total_requests = requests;
  profile.seed = 99;
  profile.write_ratio = 0.85;
  profile.hot_extents = device_pages * footprint_pct / 100 / 2 / 64;
  profile.hot_slot_pages = 8;
  profile.hot_slot_stride = 64;
  profile.large_write_fraction = 0.25;
  profile.large_write_min_pages = 16;
  profile.large_write_max_pages = 48;
  profile.stream_count = 2;
  profile.cold_stream_pages = device_pages * footprint_pct / 100 / 4;
  profile.mean_interarrival_ns = 1500 * kMicrosecond;

  std::vector<std::string> policies;
  if (const auto p = args.get("policy")) {
    policies.push_back(*p);
  } else {
    policies = {"lru", "bplru", "vbbms", "reqblock"};
  }

  std::cout << "Device " << device_mb << "MB (" << device_pages
            << " pages), workload footprint ~" << footprint_pct
            << "% of capacity, " << requests << " requests\n\n";

  TextTable t({"policy", "hit%", "mean ms", "flash writes", "GC runs",
               "GC moves", "WAF", "erases", "wear max/mean"});
  for (const auto& policy : policies) {
    SimOptions options;
    options.ssd = ssd;
    options.policy.name = policy;
    options.policy.capacity_pages = cache_pages_for_mb(16);
    options.policy.pages_per_block = ssd.pages_per_block;
    options.cache.capacity_pages = options.policy.capacity_pages;

    // The wear view needs the device after the run, so drive the stack
    // directly instead of through Simulator.
    Ftl ftl(options.ssd);
    CacheManager cache(options.cache, make_policy(options.policy), ftl);
    SyntheticTraceSource trace(profile);
    IoRequest r;
    LogHistogram response;
    while (trace.next(r)) {
      response.record(cache.serve(r) - r.arrival);
    }
    cache.finalize();

    const auto& fm = ftl.metrics();
    const auto wear = ftl.array().wear_stats();
    t.add_row({cache.policy().name(),
               format_double(cache.metrics().hit_ratio() * 100, 2),
               format_double(response.mean() / kMillisecond, 3),
               std::to_string(fm.host_page_writes),
               std::to_string(fm.gc_runs), std::to_string(fm.gc_page_moves),
               format_double(fm.waf(), 3), std::to_string(fm.erases),
               std::to_string(wear.max_erases) + "/" +
                   format_double(wear.mean_erases, 2)});
  }
  t.print(std::cout);
  std::cout << "\nWAF = (host programs + GC moves) / host programs.\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "gc_study: " << e.what() << "\n";
  return 1;
}
