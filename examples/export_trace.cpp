// Export a synthetic profile as an MSR-Cambridge-format CSV, so the same
// workloads can be replayed in other simulators (SSDsim, MQSim, ...) or
// inspected with standard trace tooling.
//
//   ./examples/export_trace --profile ts_0 --requests 100000
//        --out /tmp/ts_0.csv
//   ./examples/export_trace --profile src1_2 --stdout | head
#include <iostream>
#include <sstream>

#include "sim/simulator.h"
#include "trace/profiles.h"
#include "trace/trace_file.h"
#include "trace/trace_stats.h"
#include "util/args.h"
#include "util/atomic_file.h"
#include "util/knobs.h"
#include "util/strings.h"

using namespace reqblock;

int main(int argc, char** argv) try {
  const ArgParser args(argc, argv);
  if (args.has("help")) {
    std::cout << "usage: " << args.program()
              << " [--profile NAME] [--requests N] [--out FILE | --stdout]\n"
                 "profiles: hm_1 lun_1 usr_0 src1_2 ts_0 proj_0\n";
    return 0;
  }
  const std::string name = args.get_or("profile", "usr_0");
  const std::uint64_t cap = args.get_u64_strict("requests", 100000);

  // Read strictly: a value after the switch is refused.
  struct {
    bool to_stdout = false;
  } switches;
  apply_knobs(std::tuple{Knob{"stdout", REQB_KNOB_FIELD(to_stdout), kSwitch}},
              switches, args);
  // --out is not read with --stdout, so the pair is refused below.
  const std::string path =
      switches.to_stdout ? "" : args.get_or("out", "/tmp/" + name + ".csv");
  args.reject_unread();
  check_env_levels();

  SyntheticTraceSource src(profiles::by_name(name).capped(cap));
  const auto requests = src.collect();

  if (switches.to_stdout) {
    write_msr_stream(std::cout, requests, 4096, name);
    return 0;
  }

  // Atomic write: readers never observe a half-exported trace.
  std::ostringstream out;
  write_msr_stream(out, requests, 4096, name);
  try {
    write_file_atomic(path, out.str());
  } catch (const std::exception& e) {
    std::cerr << "cannot write " << path << ": " << e.what() << "\n";
    return 1;
  }

  // Round-trip sanity + summary for the user.
  const auto stats = [&] {
    SyntheticTraceSource again(profiles::by_name(name).capped(cap));
    return TraceStatsCollector::collect(again);
  }();
  std::cout << "Wrote " << requests.size() << " requests to " << path
            << "\n  write ratio " << format_double(stats.write_ratio() * 100, 1)
            << "%, mean write " << format_double(stats.mean_write_kb(), 1)
            << "KB, span "
            << format_double(static_cast<double>(stats.duration) / kSecond, 1)
            << "s\nReplay it with: ./examples/trace_replay --trace " << path
            << " --policy reqblock\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "export_trace: " << e.what() << "\n";
  return 1;
}
