// Attribution perf ledger: replay the standard bursty usr_0/proj_0
// workloads with per-request latency attribution on and append one
// fingerprinted record per cell to BENCH_attribution.json.
//
// Each cell drives a spike/idle arrival cycle (the bench_overload shape)
// at 4x the base rate through a bounded host queue with GC throttling, so
// every attribution component — queue wait, throttle, eviction stall,
// FTL service, GC — carries real time. The ledger record captures the
// config and trace fingerprints, throughput, latency percentiles, and the
// per-component share of total latency; tools/perf_diff compares two
// ledgers (or two records of one) and flags regressions beyond a noise
// band.
//
// Ledger format (append-only, written by bench_common's LedgerWriter):
// {"records": [ <record>, ... ]}. Every field of a record is
// deterministic except wall_unix_s, which sits on its own line so
// `grep -v wall_unix_s` yields byte-identical files for same-seed runs
// (CI proves exactly that).
#include "bench_common.h"

namespace reqblock::benchx {
namespace {

const std::vector<std::string>& bench_traces() {
  static const std::vector<std::string> t = {"usr_0", "proj_0"};
  return t;
}

const std::vector<std::string>& bench_policies() {
  static const std::vector<std::string> p = {"reqblock", "lru", "bplru"};
  return p;
}

std::string cell_name(const std::string& trace, const std::string& policy) {
  return "attribution/" + trace + "/" + policy;
}

ExperimentCase attribution_case(const std::string& trace,
                                const std::string& policy,
                                std::uint64_t cap) {
  ExperimentCase c = make_case(trace, policy, 8, cap);
  // The bench_overload spike/idle cycle at 4x the base arrival rate:
  // bursts saturate the device, so queueing and eviction stalls show up.
  c.profile.burst_arrival_len = 500;
  c.profile.burst_arrival_period = 2500;
  c.profile.burst_arrival_factor = 10.0;
  c.profile.mean_interarrival_ns = static_cast<SimTime>(
      static_cast<double>(c.profile.mean_interarrival_ns) / 4.0);
  // Bounded queue + GC throttle (no deadline: nothing is shed, so the
  // ledger's request count equals the response histogram's).
  c.options.overload.queue_depth = 64;
  c.options.overload.throttle = true;
  c.options.telemetry.attribution = true;
  return c;
}

std::vector<ExperimentCase> cells(std::uint64_t cap) {
  std::vector<ExperimentCase> out;
  for (const auto& trace : bench_traces()) {
    for (const auto& policy : bench_policies()) {
      add_cell(out, cell_name(trace, policy),
               attribution_case(trace, policy, cap));
    }
  }
  return out;
}

void report(const Cells& cells) {
  TextTable t({"Trace", "Policy", "p50 (ms)", "p99 (ms)", "p999 (ms)",
               "top component", "share"});
  LedgerWriter ledger("BENCH_attribution.json");
  for (const auto& trace : bench_traces()) {
    for (const auto& policy : bench_policies()) {
      const RunResult& r = cells[cell_name(trace, policy)];
      const AttributionResult& a = r.attribution;
      std::size_t top = 0;
      for (std::size_t i = 1; i < kAttrComponents; ++i) {
        if (a.component_ns[i] > a.component_ns[top]) top = i;
      }
      const double top_share =
          a.total_ns == 0 ? 0.0
                          : static_cast<double>(a.component_ns[top]) /
                                static_cast<double>(a.total_ns);
      t.add_row({trace, policy,
                 format_double(static_cast<double>(r.response.p50()) /
                                   kMillisecond, 2),
                 format_double(static_cast<double>(r.response.p99()) /
                                   kMillisecond, 2),
                 format_double(static_cast<double>(r.response.p999()) /
                                   kMillisecond, 2),
                 to_string(static_cast<AttrComponent>(top)),
                 format_double(top_share * 100.0, 1) + "%"});
      ledger.add(trace + "/" + policy,
                 cells.case_of(cell_name(trace, policy)), r);
    }
  }
  t.print(std::cout);
  ledger.append();
  expect_line("attribution exactness",
              "sum(components) == end-to-end latency per request",
              "audited under REQBLOCK_AUDIT=full; see tests");
}

}  // namespace

const Artifact kAttribution = {"attribution",
                               "Attribution: per-component latency ledger",
                               60000, cells, report};

}  // namespace reqblock::benchx
