// Shared infrastructure for the per-figure benchmark binaries.
//
// Each binary registers one google-benchmark per experiment cell (a
// (trace, policy, cache size, ...) simulation, Iterations(1) — the runs
// are deterministic, so repetition buys nothing), collects the RunResults
// in a process-global store, and prints a paper-style table plus a
// paper-vs-measured comparison after google-benchmark finishes.
//
// Runtime is controlled by REQBLOCK_BENCH_REQUESTS (requests per trace,
// 0 = full-length traces) and standard --benchmark_filter flags.
//
// The attribution, integrity and soak binaries also append fingerprinted
// records to a JSON perf ledger through LedgerWriter.
#pragma once

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/experiment.h"
#include "sim/report.h"
#include "sim/session.h"
#include "sim/simulator.h"
#include "trace/profiles.h"
#include "util/atomic_file.h"
#include "util/strings.h"
#include "util/table.h"

namespace reqblock::benchx {

/// Results of every case executed so far, keyed by registration name.
class RunStore {
 public:
  static RunStore& instance() {
    static RunStore store;
    return store;
  }

  void add(const std::string& name, RunResult result) {
    order_.push_back(name);
    results_.emplace(name, std::move(result));
  }

  const RunResult* find(const std::string& name) const {
    const auto it = results_.find(name);
    return it == results_.end() ? nullptr : &it->second;
  }

  /// All results in registration order.
  std::vector<const RunResult*> all() const {
    std::vector<const RunResult*> out;
    out.reserve(order_.size());
    for (const auto& name : order_) out.push_back(&results_.at(name));
    return out;
  }

 private:
  std::map<std::string, RunResult> results_;
  std::vector<std::string> order_;
};

/// Registers a single-simulation benchmark. Counters exported: hit ratio,
/// mean/p99 response, flash writes, pages/eviction.
inline void register_case(const std::string& name, ExperimentCase c) {
  benchmark::RegisterBenchmark(
      name.c_str(),
      [name, c](benchmark::State& state) {
        RunResult result;
        for (auto _ : state) {
          SyntheticTraceSource trace(c.profile);
          Simulator sim(c.options);
          result = sim.run(trace);
        }
        state.counters["hit_pct"] = result.hit_ratio() * 100.0;
        state.counters["mean_ms"] = result.mean_response_ms();
        state.counters["p99_ms"] =
            static_cast<double>(result.response.p99()) / kMillisecond;
        state.counters["flash_writes"] =
            static_cast<double>(result.flash_write_count());
        state.counters["pages_per_evict"] =
            result.cache.eviction_batch.mean();
        RunStore::instance().add(name, std::move(result));
      })
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
}

/// Builds a standard experiment cell.
inline ExperimentCase make_case(const std::string& trace_name,
                                const std::string& policy,
                                std::uint64_t cache_mb, std::uint64_t cap,
                                std::uint32_t delta = 5) {
  ExperimentCase c;
  c.profile = profiles::by_name(trace_name).capped(cap);
  c.options = make_sim_options(policy, cache_mb, delta);
  c.label = trace_name + "/" + policy;
  return c;
}

/// Paper policy display order.
inline const std::vector<std::string>& paper_policies() {
  static const std::vector<std::string> p = {"lru", "bplru", "vbbms",
                                             "reqblock"};
  return p;
}

inline const std::vector<std::string>& paper_traces() {
  static const std::vector<std::string> t = {"hm_1", "lun_1", "usr_0",
                                             "src1_2", "ts_0", "proj_0"};
  return t;
}

/// Runs google-benchmark, then the binary-specific report.
inline int bench_main(int argc, char** argv,
                      const std::function<void()>& report,
                      const std::string& title) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  std::cout << "=== " << title << " ===\n";
  std::cout << "Device: Table 1 geometry on a "
            << format_bytes(static_cast<double>(
                   SsdConfig::experiment_default().capacity_bytes))
            << " device (see DESIGN.md).\n"
            << "Requests per trace via REQBLOCK_BENCH_REQUESTS (0 = full "
               "traces).\n\n";
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::cout << "\n";
  report();
  return 0;
}

/// Convenience: mean over a set of per-trace ratios.
inline double mean_of(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Prints one paper-vs-measured line.
inline void expect_line(const std::string& what, const std::string& paper,
                        const std::string& measured) {
  std::cout << "  " << what << ": paper " << paper << " | measured "
            << measured << "\n";
}

/// One bench-specific ledger field: its JSON name and formatted value.
using LedgerField = std::pair<std::string, std::string>;

/// An append-only perf ledger, {"records": [ <record>, ... ]}, that
/// tools/perf_diff reads. Every field of a record is deterministic except
/// wall_unix_s, which sits on its own line so `grep -v wall_unix_s`
/// yields byte-identical ledgers for same-seed runs.
class LedgerWriter {
 public:
  explicit LedgerWriter(std::string path) : path_(std::move(path)) {}

  /// Adds one record, a field per line: the case name, the config and
  /// trace fingerprints, wall_unix_s, throughput and latency percentiles
  /// (the fields perf_diff compares), then `extra` in order, then each
  /// attribution component's share of total latency.
  void add(const std::string& name, const ExperimentCase& c,
           const RunResult& r, const std::vector<LedgerField>& extra = {}) {
    // REQB_LINT_ALLOW(no-wallclock): the ledger timestamp records *when*
    // the benchmark ran, for humans reading the cross-run history. It is
    // stamped after the deterministic run finished, lives on its own
    // line, and perf_diff never compares it.
    const std::int64_t wall_unix_s =
        std::chrono::duration_cast<std::chrono::seconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();
    const double sim_seconds = static_cast<double>(r.sim_end) / 1e9;
    const double throughput =
        sim_seconds == 0.0 ? 0.0
                           : static_cast<double>(r.requests) / sim_seconds;
    std::ostringstream os;
    os << "{\n"
       << "\"case\": \"" << name << "\",\n"
       << "\"config_fingerprint\": " << config_fingerprint(c.options)
       << ",\n"
       << "\"trace_fingerprint\": "
       << SyntheticTraceSource(c.profile).identity_hash() << ",\n"
       << "\"wall_unix_s\": " << wall_unix_s << ",\n"
       << "\"requests\": " << r.requests << ",\n"
       << "\"throughput_rps\": " << format_double(throughput, 3) << ",\n"
       << "\"p50_ns\": " << r.response.p50() << ",\n"
       << "\"p99_ns\": " << r.response.p99() << ",\n"
       << "\"p999_ns\": " << r.response.p999() << ",\n"
       << "\"mean_ns\": " << static_cast<std::int64_t>(r.response.mean())
       << ",\n";
    for (const auto& [field, value] : extra) {
      os << "\"" << field << "\": " << value << ",\n";
    }
    os << "\"component_share\": {";
    const AttributionResult& a = r.attribution;
    for (std::size_t i = 0; i < kAttrComponents; ++i) {
      const double share =
          a.total_ns == 0 ? 0.0
                          : static_cast<double>(a.component_ns[i]) /
                                static_cast<double>(a.total_ns);
      // Truncate, don't round: the exact shares sum to 1, and rounding
      // each of the 8 components up can push the printed sum past
      // perf_diff's sum-at-most-1 validation.
      const double floored = std::floor(share * 1e6) / 1e6;
      os << (i == 0 ? "" : ", ") << "\""
         << to_string(static_cast<AttrComponent>(i))
         << "\": " << format_double(floored, 6);
    }
    os << "}\n}";
    if (count_ > 0) records_ += ",\n";
    records_ += os.str();
    ++count_;
  }

  /// Appends the added records to the ledger file, creating it when
  /// missing, and says so on stdout. A file that does not look like a
  /// ledger is replaced rather than corrupted further. Writes nothing
  /// when no record was added.
  void append() const {
    if (count_ == 0) return;
    const std::string head = "{\"records\": [\n";
    const std::string tail = "\n]}\n";
    std::string body;
    std::ifstream in(path_);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      const std::string existing = buf.str();
      if (existing.size() > head.size() + tail.size() &&
          existing.compare(0, head.size(), head) == 0 &&
          existing.compare(existing.size() - tail.size(), tail.size(),
                           tail) == 0) {
        body = existing.substr(head.size(),
                               existing.size() - head.size() - tail.size());
      }
    }
    if (!body.empty()) body += ",\n";
    body += records_;
    write_file_atomic(path_, head + body + tail);
    std::cout << "Appended " << count_ << " records to " << path_ << "\n";
  }

 private:
  std::string path_;
  std::string records_;  // comma-joined record texts
  std::uint64_t count_ = 0;
};

}  // namespace reqblock::benchx
