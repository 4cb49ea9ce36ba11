// Delta tuning: sweep Req-block's small-request threshold (the paper's
// sensitivity study, Fig. 7) on any workload and report hit ratio and
// response time normalized to delta = 1.
//
//   ./examples/delta_tuning [--profile ts_0] [--cache-mb 32]
//                           [--requests N] [--max-delta 9]
#include <iostream>

#include "sim/experiment.h"
#include "sim/report.h"
#include "trace/profiles.h"
#include "util/args.h"
#include "util/strings.h"

using namespace reqblock;

int main(int argc, char** argv) try {
  const ArgParser args(argc, argv);
  const std::string profile_name = args.get_or("profile", "ts_0");
  const auto profile = profiles::by_name(profile_name)
                           .capped(args.get_u64_strict("requests", 250000));
  const std::uint64_t cache_mb = args.get_u64_strict("cache-mb", 32);
  const auto max_delta =
      static_cast<std::uint32_t>(args.get_u64_strict("max-delta", 9));

  std::vector<ExperimentCase> cases;
  for (std::uint32_t delta = 1; delta <= max_delta; ++delta) {
    ExperimentCase c;
    c.profile = profile;
    c.options = make_sim_options("reqblock", cache_mb, delta);
    c.label = "delta=" + std::to_string(delta);
    cases.push_back(std::move(c));
  }
  const auto results = run_cases(cases);

  const double base_hit = results.front().hit_ratio();
  const double base_resp = results.front().response.mean();
  TextTable t({"delta", "hit-ratio", "norm-hit", "mean-response",
               "norm-response"});
  std::uint32_t best_delta = 1;
  double best_hit = 0.0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    const auto delta = static_cast<std::uint32_t>(i + 1);
    if (r.hit_ratio() > best_hit) {
      best_hit = r.hit_ratio();
      best_delta = delta;
    }
    t.add_row({std::to_string(delta),
               format_double(r.hit_ratio() * 100, 2) + "%",
               format_double(r.hit_ratio() / base_hit, 3),
               format_double(r.mean_response_ms(), 3) + "ms",
               format_double(r.response.mean() / base_resp, 3)});
  }
  std::cout << "Delta sensitivity on " << profile_name << " (" << cache_mb
            << "MB cache):\n";
  t.print(std::cout);
  std::cout << "\nBest hit ratio at delta = " << best_delta
            << " (the paper selects 5 as its default).\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "delta_tuning: " << e.what() << "\n";
  return 1;
}
