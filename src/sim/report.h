// Formatting of run results into paper-style report tables.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "util/table.h"

namespace reqblock {

/// Prints the device configuration block (Table 1 style).
void print_config(std::ostream& os, const SsdConfig& cfg);

/// One row per run: trace, policy, cache, hit%, response, flash writes...
TextTable results_table(const std::vector<RunResult>& results);

/// Summary row cells for a single result (shared by table builders).
std::vector<std::string> result_row(const RunResult& r);

/// Metadata overhead as a percentage of the data-cache capacity (Fig. 12).
double metadata_percent(const RunResult& r);

/// Machine-readable export: one CSV row per run, with a header line. The
/// columns are kResultColumns in src/sim/report.cc: 19 base columns, then
/// the fault, overload, aging and data-integrity groups, each written only
/// when some run enabled the subsystem (fault, overload) or its counters
/// fired (aging, integrity). Exports without them keep the historical
/// layout byte for byte.
void write_results_csv(std::ostream& os,
                       const std::vector<RunResult>& results);

/// All reliability tables of one run — fault injection, device aging,
/// data integrity — in that fixed order. Drivers print this per result
/// so reports render the same section order no matter which reliability
/// subsystems were enabled; each table still elides itself when its
/// subsystem never fired.
void write_reliability_summary(std::ostream& os, const RunResult& r);

/// Overload-protection summary of one run: admission/SLO accounting
/// (queue-wait percentiles, timeouts, sheds, retries), background-flush
/// volume, and throttle totals. Prints nothing when the whole subsystem
/// was off.
void write_overload_summary(std::ostream& os, const RunResult& r);

/// Wall-clock self-profile of one run: where the simulator itself spent
/// its time (cache serve, flush, FTL dispatch, GC, snapshots). Prints
/// nothing when the run was not profiled.
void write_self_profile(std::ostream& os, const RunResult& r);

/// Compact summary of the metric snapshot series: per-column first, last,
/// min, and max over the run. Prints nothing when no snapshots were taken.
void write_snapshot_summary(std::ostream& os, const RunResult& r);

/// Per-tenant slice of one multi-tenant run: request counts, admission /
/// shed totals, queue-wait and response percentiles. Prints nothing for
/// single-tenant runs (RunResult::tenants empty).
void write_tenant_summary(std::ostream& os, const RunResult& r);

/// Machine-readable per-tenant export: one CSV row per (run, tenant). The
/// columns are kTenantColumns in src/sim/report.cc (integer-ns
/// percentiles), then one attr_<component>_ns total per latency component.
/// Rows appear only for multi-tenant runs, so single-tenant exports are
/// empty beyond the header.
void write_tenant_csv(std::ostream& os,
                      const std::vector<RunResult>& results);

/// Tail root-cause report: for each run with latency attribution enabled,
/// splits the slowest decile (p90+) and slowest percentile (p99+) of
/// requests into their component time, ranked by contribution. Answers
/// "where did my p99 go?" per trace/policy. Prints nothing when no run
/// carried attribution.
void write_tail_attribution(std::ostream& os,
                            const std::vector<RunResult>& results);

/// Machine-readable tail attribution: one CSV row per (run, slice,
/// component) with integer-ns totals and the component's share of the
/// slice. Byte-stable across runs of the same build; rows appear only for
/// runs with attribution enabled, so attribution-free exports are empty
/// beyond the header.
void write_tail_attribution_csv(std::ostream& os,
                                const std::vector<RunResult>& results);

}  // namespace reqblock
