// Overload study: p99 latency vs arrival rate under a bursty open-loop
// workload, with and without the watermark background flusher.
//
// Each curve point multiplies the profile's arrival rate (divides the mean
// interarrival gap) and replays the same bursty trace through reqblock,
// LRU and BPLRU twice — synchronous-only eviction vs background flushing
// at 0.75/0.50 dirty watermarks. The claim under test: pre-draining victim
// batches in the idle gaps absorbs the next spike, so the p99 *write*
// latency drops measurably for reqblock once the device saturates.
//
// Machine-readable output: BENCH_overload.json (written atomically to the
// working directory), one record per (policy, bg, rate) cell.
#include <sstream>

#include "bench_common.h"
#include "util/atomic_file.h"

namespace reqblock::benchx {
namespace {

constexpr const char* kTrace = "usr_0";
const std::vector<double>& rate_multipliers() {
  static const std::vector<double> r = {1.0, 2.0, 4.0, 8.0};
  return r;
}

std::string cell_name(const std::string& policy, bool bg, double rate) {
  return "overload/" + policy + (bg ? "/bg" : "/sync") + "/x" +
         format_double(rate, 0);
}

ExperimentCase overload_case(const std::string& policy, bool bg, double rate,
                             std::uint64_t cap) {
  ExperimentCase c = make_case(kTrace, policy, 8, cap);
  // Spike/idle cycle: a fifth of each period arrives 10x faster, the rest
  // at the base rate — the shape the watermark flusher is built for.
  c.profile.burst_arrival_len = 500;
  c.profile.burst_arrival_period = 2500;
  c.profile.burst_arrival_factor = 10.0;
  c.profile.mean_interarrival_ns = static_cast<SimTime>(
      static_cast<double>(c.profile.mean_interarrival_ns) / rate);
  if (bg) {
    c.options.overload.bg_flush_high = 0.75;
    c.options.overload.bg_flush_low = 0.50;
  }
  return c;
}

std::vector<ExperimentCase> cells(std::uint64_t cap) {
  std::vector<ExperimentCase> out;
  for (const auto& policy : {"reqblock", "lru", "bplru"}) {
    for (const bool bg : {false, true}) {
      for (const double rate : rate_multipliers()) {
        add_cell(out, cell_name(policy, bg, rate),
                 overload_case(policy, bg, rate, cap));
      }
    }
  }
  return out;
}

void report(const Cells& cells) {
  TextTable t({"Policy", "Mode", "Rate", "p99 (ms)", "p99 write (ms)",
               "bg batches", "bg pages"});
  std::ostringstream json;
  json << "{\n  \"trace\": \"" << kTrace << "\",\n  \"curve\": [\n";
  bool first = true;
  int reqblock_bg_wins = 0;
  int reqblock_points = 0;
  for (const auto& policy : {"reqblock", "lru", "bplru"}) {
    for (const bool bg : {false, true}) {
      for (const double rate : rate_multipliers()) {
        const RunResult& r = cells[cell_name(policy, bg, rate)];
        t.add_row({policy, bg ? "bg-flush" : "sync",
                   "x" + format_double(rate, 0),
                   format_double(static_cast<double>(r.response.p99()) /
                                     kMillisecond, 2),
                   format_double(static_cast<double>(r.write_response.p99()) /
                                     kMillisecond, 2),
                   std::to_string(r.cache.bg_flush_batches),
                   std::to_string(r.cache.bg_flush_pages)});
        if (!first) json << ",\n";
        first = false;
        json << "    {\"policy\": \"" << policy << "\", \"bg_flush\": "
             << (bg ? "true" : "false") << ", \"rate_x\": "
             << format_double(rate, 0)
             << ", \"p99_ns\": " << r.response.p99()
             << ", \"p99_write_ns\": " << r.write_response.p99()
             << ", \"mean_ns\": " << static_cast<std::int64_t>(
                    r.response.mean())
             << ", \"bg_flush_batches\": " << r.cache.bg_flush_batches
             << ", \"bg_flush_pages\": " << r.cache.bg_flush_pages << "}";
        if (bg && std::string(policy) == "reqblock") {
          ++reqblock_points;
          if (r.write_response.p99() <
              cells[cell_name(policy, false, rate)].write_response.p99()) {
            ++reqblock_bg_wins;
          }
        }
      }
    }
  }
  json << "\n  ]\n}\n";
  t.print(std::cout);
  write_file_atomic("BENCH_overload.json", json.str());
  std::cout << "Wrote BENCH_overload.json\n";
  expect_line("bg flush lowers reqblock p99 write latency",
              "watermark pre-drain absorbs the spike",
              std::to_string(reqblock_bg_wins) + "/" +
                  std::to_string(reqblock_points) + " rate points");
}

}  // namespace

const Artifact kOverload = {"overload",
                            "Overload: p99 vs arrival rate, bg flush on/off",
                            60000, cells, report};

}  // namespace reqblock::benchx
