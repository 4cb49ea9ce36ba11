// Shared infrastructure for the `reproduce` binary (bench/reproduce.cc).
//
// Each paper table, figure and ablation, and each ledger study, is one
// Artifact: a row of reproduce's table holding the artifact's title, its
// default request cap, the experiment cells it needs (each a (trace,
// policy, cache size, ...) simulation, labelled for its report) and the
// report that prints a paper-style table plus a paper-vs-measured
// comparison. The runs are deterministic, so reproduce simulates each
// distinct cell once, however many selected artifacts list it, and hands
// every report its finished cells.
//
// REQBLOCK_BENCH_REQUESTS overrides every artifact's request cap (requests
// per trace, 0 = full-length traces).
//
// The attribution, integrity and soak artifacts also append fingerprinted
// records to a JSON perf ledger through LedgerWriter.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
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

/// The finished cells of one artifact, found by the label they were
/// listed under.
struct Cells {
  /// The request cap the artifact's cells were built with.
  std::uint64_t cap = 0;
  /// Label -> index into `cases` and `results`.
  std::map<std::string, std::size_t> slots;
  const std::vector<ExperimentCase>* cases = nullptr;
  const std::vector<RunResult>* results = nullptr;

  const RunResult& operator[](const std::string& label) const {
    return (*results)[slots.at(label)];
  }
  const ExperimentCase& case_of(const std::string& label) const {
    return (*cases)[slots.at(label)];
  }
};

/// One row of reproduce's table.
struct Artifact {
  /// The command-line name, e.g. "fig8".
  const char* name;
  /// Printed as the report's "=== title ===" header.
  const char* title;
  /// Requests per trace unless REQBLOCK_BENCH_REQUESTS is set.
  std::uint64_t default_cap;
  /// The cells the report reads, each under a label unique within the
  /// artifact; nullptr when the artifact simulates nothing.
  std::vector<ExperimentCase> (*cells)(std::uint64_t cap);
  void (*report)(const Cells& cells);
  /// Tests the artifact's ✔ claims in EXPERIMENTS.md (direction, not
  /// magnitude) and returns one message per failed claim; nullptr when
  /// the artifact checks none.
  std::vector<std::string> (*check)(const Cells& cells) = nullptr;
};

/// Every artifact, each defined in its own bench_*.cc source.
extern const Artifact kTable2, kFig2, kFig3, kFig7, kFig8, kFig9, kFig10,
    kFig11, kFig12, kFig13, kAblationFreq, kAblationMerge, kAblationFlush,
    kAttribution, kIntegrity, kSoak, kMultitenant, kOverload, kGc;

/// Appends `c` to `cells` under `label`.
inline void add_cell(std::vector<ExperimentCase>& cells, std::string label,
                     ExperimentCase c) {
  c.label = std::move(label);
  cells.push_back(std::move(c));
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

/// Cache sizes of the Fig. 8/9/11/12 grid.
inline constexpr std::uint64_t kGridCacheMbs[] = {16, 32, 64};

/// Label of one grid cell.
inline std::string grid_cell(const std::string& trace,
                             const std::string& policy, std::uint64_t mb) {
  return trace + "/" + policy + "/" + std::to_string(mb) + "MB";
}

/// The grid Figs. 8, 9, 11 and 12 share: every paper trace at every grid
/// cache size under every paper policy (72 cells).
inline std::vector<ExperimentCase> grid_cells(std::uint64_t cap) {
  std::vector<ExperimentCase> cells;
  for (const auto& trace : paper_traces()) {
    for (const std::uint64_t mb : kGridCacheMbs) {
      for (const auto& policy : paper_policies()) {
        add_cell(cells, grid_cell(trace, policy, mb),
                 make_case(trace, policy, mb, cap));
      }
    }
  }
  return cells;
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
