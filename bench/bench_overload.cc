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
// Machine-readable output: one LedgerWriter record per (policy, bg, rate)
// cell, appended to BENCH_overload.json in the working directory, with
// p99_write_ns, bg_flush_batches and bg_flush_pages as its study fields.
#include "bench_common.h"

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
  LedgerWriter ledger("BENCH_overload.json");
  int reqblock_bg_wins = 0;
  int reqblock_points = 0;
  for (const auto& policy : {"reqblock", "lru", "bplru"}) {
    for (const bool bg : {false, true}) {
      for (const double rate : rate_multipliers()) {
        const std::string name = cell_name(policy, bg, rate);
        const RunResult& r = cells[name];
        t.add_row({policy, bg ? "bg-flush" : "sync",
                   "x" + format_double(rate, 0),
                   format_double(static_cast<double>(r.response.p99()) /
                                     kMillisecond, 2),
                   format_double(static_cast<double>(r.write_response.p99()) /
                                     kMillisecond, 2),
                   std::to_string(r.cache.bg_flush_batches),
                   std::to_string(r.cache.bg_flush_pages)});
        ledger.add(
            name, cells.case_of(name), r,
            {{"p99_write_ns", std::to_string(r.write_response.p99())},
             {"bg_flush_batches", std::to_string(r.cache.bg_flush_batches)},
             {"bg_flush_pages", std::to_string(r.cache.bg_flush_pages)}});
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
  t.print(std::cout);
  ledger.append();
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
