#include "sim/report.h"

#include <algorithm>
#include <array>
#include <iterator>
#include <ostream>
#include <utility>

#include "util/strings.h"

namespace reqblock {

void print_config(std::ostream& os, const SsdConfig& cfg) {
  TextTable t({"Parameter", "Value", "Parameter", "Value"});
  t.add_row({"Capacity", format_bytes(static_cast<double>(cfg.capacity_bytes)),
             "Read latency",
             format_double(static_cast<double>(cfg.read_latency) /
                               kMillisecond, 3) + "ms"});
  t.add_row({"Channel Size", std::to_string(cfg.channels), "Write latency",
             format_double(static_cast<double>(cfg.program_latency) /
                               kMillisecond, 0) + "ms"});
  t.add_row({"Chip Size", std::to_string(cfg.chips_per_channel),
             "Erase latency",
             format_double(static_cast<double>(cfg.erase_latency) /
                               kMillisecond, 0) + "ms"});
  t.add_row({"Page per block", std::to_string(cfg.pages_per_block),
             "Transfer (Byte)",
             std::to_string(cfg.transfer_per_byte) + "ns"});
  t.add_row({"Page Size", format_bytes(cfg.page_size), "GC Threshold",
             format_double(cfg.gc_free_threshold * 100, 0) + "%"});
  t.print(os);
}

double metadata_percent(const RunResult& r) {
  const double cache_bytes =
      static_cast<double>(r.cache_capacity_pages) * 4096.0;
  return cache_bytes == 0.0
             ? 0.0
             : r.cache.metadata_bytes.mean() / cache_bytes * 100.0;
}

std::vector<std::string> result_row(const RunResult& r) {
  return {
      r.trace_name,
      r.policy_name,
      format_double(static_cast<double>(r.cache_capacity_pages) * 4.0 /
                        1024.0, 0) + "MB",
      format_double(r.hit_ratio() * 100.0, 2) + "%",
      format_double(r.mean_response_ms(), 3) + "ms",
      format_double(static_cast<double>(r.response.p99()) / kMillisecond, 2) +
          "ms",
      std::to_string(r.flash_write_count()),
      format_double(r.flash.waf(), 3),
      format_double(r.cache.eviction_batch.mean(), 2),
      format_double(metadata_percent(r), 3) + "%",
  };
}

namespace {

/// A results-CSV column group. The base group is always written, a gated
/// group when some run opens its gate (write_results_csv).
enum ColumnGroup { kBase, kFault, kOverload, kAging, kIntegrity };

/// One results-CSV column: its header name, its group and its cell.
struct ResultColumn {
  const char* name;
  ColumnGroup group;
  void (*cell)(std::ostream&, const RunResult&);
};

const IntegrityMetrics& in(const RunResult& r) { return r.fault.integrity; }

#define REQB_CELL(expr) \
  [](std::ostream& os, const RunResult& r) { os << (expr); }

/// The results CSV in column order, walked for the header and every row.
constexpr ResultColumn kResultColumns[] = {
    {"trace", kBase, REQB_CELL(r.trace_name)},
    {"policy", kBase, REQB_CELL(r.policy_name)},
    {"cache_pages", kBase, REQB_CELL(r.cache_capacity_pages)},
    {"requests", kBase, REQB_CELL(r.requests)},
    {"hit_ratio", kBase, REQB_CELL(format_double(r.hit_ratio(), 6))},
    {"mean_ns", kBase, REQB_CELL(std::int64_t(r.response.mean()))},
    {"p50_ns", kBase, REQB_CELL(r.response.p50())},
    {"p95_ns", kBase, REQB_CELL(r.response.p95())},
    {"p99_ns", kBase, REQB_CELL(r.response.p99())},
    {"p999_ns", kBase, REQB_CELL(r.response.p999())},
    {"flash_writes", kBase, REQB_CELL(r.flash.host_page_writes)},
    {"flash_reads", kBase, REQB_CELL(r.flash.host_page_reads)},
    {"gc_moves", kBase, REQB_CELL(r.flash.gc_page_moves)},
    {"erases", kBase, REQB_CELL(r.flash.erases)},
    {"waf", kBase, REQB_CELL(format_double(r.flash.waf(), 4))},
    {"pages_per_evict", kBase,
     REQB_CELL(format_double(r.cache.eviction_batch.mean(), 3))},
    {"metadata_pct", kBase, REQB_CELL(format_double(metadata_percent(r), 4))},
    {"channel_util", kBase, REQB_CELL(format_double(r.channel_utilization, 4))},
    {"chip_util", kBase, REQB_CELL(format_double(r.chip_utilization, 4))},
    {"program_faults", kFault, REQB_CELL(r.fault.program_faults)},
    {"read_faults", kFault, REQB_CELL(r.fault.read_faults)},
    {"erase_faults", kFault, REQB_CELL(r.fault.erase_faults)},
    {"bad_block_marks", kFault, REQB_CELL(r.fault.bad_block_marks)},
    {"blocks_retired", kFault, REQB_CELL(r.fault.blocks_retired)},
    {"retires_refused", kFault, REQB_CELL(r.fault.retires_refused)},
    {"degraded_planes", kFault, REQB_CELL(r.fault.degraded_planes)},
    {"power_loss_events", kFault, REQB_CELL(r.fault.power_loss_events)},
    {"lost_dirty_pages", kFault, REQB_CELL(r.fault.lost_dirty_pages)},
    {"recovery_ns", kFault, REQB_CELL(r.fault.recovery_time_total)},
    {"queue_p50_ns", kOverload, REQB_CELL(r.queue_wait.p50())},
    {"queue_p95_ns", kOverload, REQB_CELL(r.queue_wait.p95())},
    {"queue_p99_ns", kOverload, REQB_CELL(r.queue_wait.p99())},
    {"queue_p999_ns", kOverload, REQB_CELL(r.queue_wait.p999())},
    {"queue_wait_ns", kOverload, REQB_CELL(r.overload.queue_wait_total)},
    {"timeouts", kOverload, REQB_CELL(r.overload.timeouts)},
    {"sheds", kOverload, REQB_CELL(r.overload.sheds)},
    {"retries", kOverload, REQB_CELL(r.overload.retries)},
    {"throttle_events", kOverload, REQB_CELL(r.overload.throttle_events)},
    {"throttle_ns", kOverload, REQB_CELL(r.overload.throttle_delay_total)},
    {"bg_flush_batches", kOverload, REQB_CELL(r.cache.bg_flush_batches)},
    {"bg_flush_pages", kOverload, REQB_CELL(r.cache.bg_flush_pages)},
    {"disturb_migrations", kAging, REQB_CELL(r.fault.read_disturb_migrations)},
    {"disturb_pages_moved", kAging,
     REQB_CELL(r.fault.read_disturb_pages_moved)},
    {"retention_scrubs", kAging, REQB_CELL(r.fault.retention_scrubs)},
    {"retention_pages_moved", kAging, REQB_CELL(r.fault.retention_pages_moved)},
    {"wear_threshold_crossings", kAging,
     REQB_CELL(r.fault.wear_threshold_crossings)},
    {"degraded_enters", kAging, REQB_CELL(r.fault.degraded_mode_enters)},
    {"degraded_exits", kAging, REQB_CELL(r.fault.degraded_mode_exits)},
    {"degraded_write_sheds", kAging, REQB_CELL(r.fault.degraded_write_sheds)},
    {"ecc_attempts", kIntegrity, REQB_CELL(in(r).ecc_attempts)},
    {"ecc_corrected", kIntegrity, REQB_CELL(in(r).ecc_corrected)},
    {"retry_corrected", kIntegrity, REQB_CELL(in(r).retry_corrected)},
    {"retry_steps", kIntegrity, REQB_CELL(in(r).retry_steps_total)},
    {"parity_rebuilds", kIntegrity, REQB_CELL(in(r).parity_rebuilds)},
    {"parity_peer_reads", kIntegrity, REQB_CELL(in(r).parity_peer_reads)},
    {"uncorrectable", kIntegrity, REQB_CELL(in(r).uncorrectable)},
    {"host_reads_lost", kIntegrity, REQB_CELL(in(r).host_reads_lost)},
    {"patrol_scrubs", kIntegrity, REQB_CELL(in(r).patrol_scrubs)},
    {"patrol_pages_examined", kIntegrity,
     REQB_CELL(in(r).patrol_pages_examined)},
    {"patrol_pages_moved", kIntegrity, REQB_CELL(in(r).patrol_pages_moved)},
    {"integrity_recovery_ns", kIntegrity, REQB_CELL(in(r).recovery_time_total)},
};

#undef REQB_CELL

/// Writes `cell(column)` for each column, comma-separated.
template <typename Columns, typename Cell>
void write_cells(std::ostream& os, const Columns& columns, Cell&& cell) {
  const char* sep = "";
  for (const auto& c : columns) {
    os << std::exchange(sep, ",");
    cell(c);
  }
}

}  // namespace

void write_results_csv(std::ostream& os,
                       const std::vector<RunResult>& results) {
  const auto any = [&](bool (*gate)(const RunResult&)) {
    return std::any_of(results.begin(), results.end(), gate);
  };
  // Indexed by ColumnGroup. Aging and integrity look at the counters, not
  // the plan: a plan that never fired keeps the historical layout.
  const bool shown[] = {
      true,
      any([](const RunResult& r) { return r.fault.enabled; }),
      any([](const RunResult& r) { return r.overload.enabled; }),
      any([](const RunResult& r) { return r.fault.any_aging(); }),
      any([](const RunResult& r) { return r.fault.integrity.any(); }),
  };
  std::vector<ResultColumn> columns;
  std::copy_if(std::begin(kResultColumns), std::end(kResultColumns),
               std::back_inserter(columns),
               [&](const ResultColumn& c) { return shown[c.group]; });
  write_cells(os, columns, [&](const ResultColumn& c) { os << c.name; });
  os << '\n';
  for (const RunResult& r : results) {
    write_cells(os, columns, [&](const ResultColumn& c) { c.cell(os, r); });
    os << '\n';
  }
}

namespace {

void write_fault_summary(std::ostream& os, const RunResult& r) {
  if (!r.fault.enabled) return;
  os << "Fault injection (" << r.trace_name << " / " << r.policy_name
     << ")\n";
  TextTable t({"fault class", "count", "outcome", "count"});
  t.add_row({"program faults", std::to_string(r.fault.program_faults),
             "bad-block marks", std::to_string(r.fault.bad_block_marks)});
  t.add_row({"read faults", std::to_string(r.fault.read_faults),
             "blocks retired", std::to_string(r.fault.blocks_retired)});
  t.add_row({"erase faults", std::to_string(r.fault.erase_faults),
             "retires refused", std::to_string(r.fault.retires_refused)});
  t.add_row({"power losses", std::to_string(r.fault.power_loss_events),
             "degraded planes", std::to_string(r.fault.degraded_planes)});
  t.add_row({"lost dirty pages", std::to_string(r.fault.lost_dirty_pages),
             "recovery time",
             format_double(static_cast<double>(r.fault.recovery_time_total) /
                               kMillisecond, 2) + "ms"});
  t.print(os);
}

void write_aging_summary(std::ostream& os, const RunResult& r) {
  if (!r.fault.any_aging()) return;
  os << "Device aging (" << r.trace_name << " / " << r.policy_name << ")\n";
  TextTable t({"wear & refresh", "count", "end of life", "count"});
  t.add_row({"disturb migrations",
             std::to_string(r.fault.read_disturb_migrations),
             "degraded enters", std::to_string(r.fault.degraded_mode_enters)});
  t.add_row({"disturb pages moved",
             std::to_string(r.fault.read_disturb_pages_moved),
             "degraded exits", std::to_string(r.fault.degraded_mode_exits)});
  t.add_row({"retention scrubs", std::to_string(r.fault.retention_scrubs),
             "writes shed", std::to_string(r.fault.degraded_write_sheds)});
  t.add_row({"retention pages moved",
             std::to_string(r.fault.retention_pages_moved),
             "blocks retired", std::to_string(r.fault.blocks_retired)});
  t.add_row({"rated-wear crossings",
             std::to_string(r.fault.wear_threshold_crossings),
             "degraded planes", std::to_string(r.fault.degraded_planes)});
  t.print(os);
}

void write_integrity_summary(std::ostream& os, const RunResult& r) {
  const IntegrityMetrics& in = r.fault.integrity;
  if (!in.any()) return;
  os << "Data integrity (" << r.trace_name << " / " << r.policy_name
     << ")\n";
  TextTable t({"recovery tier", "count", "scrub & cost", "count"});
  t.add_row({"ecc attempts", std::to_string(in.ecc_attempts),
             "patrol scrubs", std::to_string(in.patrol_scrubs)});
  t.add_row({"ecc corrected", std::to_string(in.ecc_corrected),
             "pages examined", std::to_string(in.patrol_pages_examined)});
  t.add_row({"retry corrected", std::to_string(in.retry_corrected),
             "pages refreshed", std::to_string(in.patrol_pages_moved)});
  t.add_row({"retry steps", std::to_string(in.retry_steps_total),
             "parity peer reads", std::to_string(in.parity_peer_reads)});
  t.add_row({"parity rebuilds", std::to_string(in.parity_rebuilds),
             "host reads lost", std::to_string(in.host_reads_lost)});
  t.add_row({"uncorrectable", std::to_string(in.uncorrectable),
             "recovery time",
             format_double(static_cast<double>(in.recovery_time_total) /
                               kMillisecond, 2) + "ms"});
  t.print(os);
}

}  // namespace

void write_reliability_summary(std::ostream& os, const RunResult& r) {
  // One fixed section order — fault, aging, integrity — so a report's
  // shape depends only on which subsystems fired, never on which driver
  // (or driver code path) printed it.
  write_fault_summary(os, r);
  write_aging_summary(os, r);
  write_integrity_summary(os, r);
}

void write_overload_summary(std::ostream& os, const RunResult& r) {
  if (!r.overload.enabled) return;
  os << "Overload protection (" << r.trace_name << " / " << r.policy_name
     << ")\n";
  const auto ms = [](SimTime ns) {
    return format_double(static_cast<double>(ns) / kMillisecond, 3) + "ms";
  };
  TextTable t({"admission / SLO", "value", "relief", "value"});
  t.add_row({"admitted", std::to_string(r.overload.admitted),
             "bg-flush batches", std::to_string(r.cache.bg_flush_batches)});
  t.add_row({"queued (wait>0)", std::to_string(r.overload.queued_waits),
             "bg-flush pages", std::to_string(r.cache.bg_flush_pages)});
  t.add_row({"timeouts", std::to_string(r.overload.timeouts),
             "throttle events", std::to_string(r.overload.throttle_events)});
  t.add_row({"sheds", std::to_string(r.overload.sheds), "throttle total",
             ms(r.overload.throttle_delay_total)});
  t.add_row({"retries", std::to_string(r.overload.retries), "queue-wait total",
             ms(r.overload.queue_wait_total)});
  t.add_row({"queue-wait p50", ms(r.queue_wait.p50()), "queue-wait p99",
             ms(r.queue_wait.p99())});
  t.add_row({"queue-wait p95", ms(r.queue_wait.p95()), "queue-wait p999",
             ms(r.queue_wait.p999())});
  t.print(os);
}

void write_self_profile(std::ostream& os, const RunResult& r) {
  const auto& entries = r.telemetry.profile.entries;
  if (entries.empty()) return;
  double total_ns = 0.0;
  for (const auto& e : entries) {
    total_ns += static_cast<double>(e.total_ns);
  }
  os << "Self-profile (" << r.trace_name << " / " << r.policy_name << ")\n";
  TextTable t({"section", "calls", "total", "mean", "share"});
  for (const auto& e : entries) {
    const double ns = static_cast<double>(e.total_ns);
    t.add_row({e.section, std::to_string(e.calls),
               format_double(ns / 1e6, 2) + "ms",
               format_double(e.calls == 0
                                 ? 0.0
                                 : ns / static_cast<double>(e.calls), 0) +
                   "ns",
               format_double(total_ns == 0.0 ? 0.0 : ns / total_ns * 100.0,
                             1) +
                   "%"});
  }
  t.print(os);
  os << "(wall-clock diagnostics; excluded from result CSVs, checkpoints "
        "and config fingerprints)\n";
}

void write_snapshot_summary(std::ostream& os, const RunResult& r) {
  const MetricsSeries& s = r.telemetry.snapshots;
  if (s.empty()) return;
  os << "Metric snapshots (" << r.trace_name << " / " << r.policy_name
     << "): " << s.rows.size() << " samples, "
     << s.columns.size() << " metrics\n";
  TextTable t({"metric", "first", "last", "min", "max"});
  for (std::size_t c = 0; c < s.columns.size(); ++c) {
    double lo = s.rows.front().values[c];
    double hi = lo;
    for (const auto& row : s.rows) {
      lo = std::min(lo, row.values[c]);
      hi = std::max(hi, row.values[c]);
    }
    t.add_row({s.columns[c], format_double(s.rows.front().values[c], 4),
               format_double(s.rows.back().values[c], 4),
               format_double(lo, 4), format_double(hi, 4)});
  }
  t.print(os);
}

namespace {

/// The two tail slices the reports show: the slowest decile answers
/// "what shapes my p90+", the slowest percentile "where did my p99 go".
constexpr std::array<double, 2> kTailFractions = {0.10, 0.01};

std::string slice_label(double fraction) {
  return "slowest " + format_double(fraction * 100.0, 0) + "%";
}

}  // namespace

void write_tail_attribution(std::ostream& os,
                            const std::vector<RunResult>& results) {
  for (const auto& r : results) {
    const AttributionResult& a = r.attribution;
    if (!a.enabled || a.requests == 0) continue;
    os << "Tail attribution (" << r.trace_name << " / " << r.policy_name
       << ")\n";
    TextTable t({"slice", "requests", "floor", "component", "time", "share"});
    for (const double fraction : kTailFractions) {
      const TailSlice slice = tail_slice(a, fraction);
      const auto ranked = rank_components(slice);
      const double total = static_cast<double>(slice.total_ns);
      bool lead = true;
      for (const std::size_t c : ranked) {
        if (slice.component_ns[c] == 0) continue;
        const double ns = static_cast<double>(slice.component_ns[c]);
        t.add_row({lead ? slice_label(fraction) : "",
                   lead ? std::to_string(slice.requests) : "",
                   lead ? format_double(static_cast<double>(
                                            slice.threshold_ns) /
                                            kMillisecond, 2) + "ms"
                        : "",
                   to_string(static_cast<AttrComponent>(c)),
                   format_double(ns / kMillisecond, 2) + "ms",
                   format_double(total == 0.0 ? 0.0 : ns / total * 100.0, 1) +
                       "%"});
        lead = false;
      }
    }
    t.print(os);
  }
}

void write_tail_attribution_csv(std::ostream& os,
                                const std::vector<RunResult>& results) {
  // Fixed shape: every attribution-enabled run contributes exactly
  // 2 slices x 8 components, zeros included, ranked by contribution —
  // byte-stable across identical runs.
  os << "trace,policy,slice_pct,slice_requests,threshold_ns,slice_total_ns,"
        "component,component_ns,share\n";
  for (const auto& r : results) {
    const AttributionResult& a = r.attribution;
    if (!a.enabled || a.requests == 0) continue;
    for (const double fraction : kTailFractions) {
      const TailSlice slice = tail_slice(a, fraction);
      const auto ranked = rank_components(slice);
      for (const std::size_t c : ranked) {
        const double share =
            slice.total_ns == 0
                ? 0.0
                : static_cast<double>(slice.component_ns[c]) /
                      static_cast<double>(slice.total_ns);
        os << r.trace_name << ',' << r.policy_name << ','
           << format_double(fraction * 100.0, 0) << ','
           << slice.requests << ',' << slice.threshold_ns << ','
           << slice.total_ns << ','
           << to_string(static_cast<AttrComponent>(c)) << ','
           << slice.component_ns[c] << ',' << format_double(share, 6)
           << '\n';
      }
    }
  }
}

void write_tenant_summary(std::ostream& os, const RunResult& r) {
  if (r.tenants.empty()) return;
  os << "Tenants (" << r.trace_name << " / " << r.policy_name << ")\n";
  const auto ms = [](SimTime ns) {
    return format_double(static_cast<double>(ns) / kMillisecond, 3) + "ms";
  };
  TextTable t({"tenant", "requests", "admitted", "sheds", "q-wait p50",
               "q-wait p99", "resp mean", "resp p99"});
  for (const TenantResult& tn : r.tenants) {
    t.add_row({tn.name, std::to_string(tn.requests),
               std::to_string(tn.overload.admitted),
               std::to_string(tn.overload.sheds), ms(tn.queue_wait.p50()),
               ms(tn.queue_wait.p99()),
               format_double(tn.response.mean() / kMillisecond, 3) + "ms",
               ms(tn.response.p99())});
  }
  t.print(os);
}

namespace {

/// One tenant-CSV column: its header name and its cell.
struct TenantColumn {
  const char* name;
  void (*cell)(std::ostream&, const RunResult&, const TenantResult&);
};

#define REQB_CELL(expr)                                             \
  [](std::ostream& os, [[maybe_unused]] const RunResult& r,         \
     [[maybe_unused]] const TenantResult& tn) { os << (expr); }

/// The tenant CSV's columns before the attr_<component>_ns group, which
/// write_tenant_csv generates from kAttrComponents.
constexpr TenantColumn kTenantColumns[] = {
    {"trace", REQB_CELL(r.trace_name)},
    {"policy", REQB_CELL(r.policy_name)},
    {"tenant", REQB_CELL(tn.name)},
    {"requests", REQB_CELL(tn.requests)},
    {"read_requests", REQB_CELL(tn.read_requests)},
    {"write_requests", REQB_CELL(tn.write_requests)},
    {"admitted", REQB_CELL(tn.overload.admitted)},
    {"queued_waits", REQB_CELL(tn.overload.queued_waits)},
    {"timeouts", REQB_CELL(tn.overload.timeouts)},
    {"sheds", REQB_CELL(tn.overload.sheds)},
    {"retries", REQB_CELL(tn.overload.retries)},
    {"queue_wait_total_ns", REQB_CELL(tn.overload.queue_wait_total)},
    {"queue_p50_ns", REQB_CELL(tn.queue_wait.p50())},
    {"queue_p95_ns", REQB_CELL(tn.queue_wait.p95())},
    {"queue_p99_ns", REQB_CELL(tn.queue_wait.p99())},
    {"queue_p999_ns", REQB_CELL(tn.queue_wait.p999())},
    {"resp_mean_ns", REQB_CELL(format_double(tn.response.mean(), 1))},
    {"resp_p50_ns", REQB_CELL(tn.response.p50())},
    {"resp_p99_ns", REQB_CELL(tn.response.p99())},
    {"resp_p999_ns", REQB_CELL(tn.response.p999())},
    {"attr_requests", REQB_CELL(tn.attr_requests)},
};

#undef REQB_CELL

}  // namespace

void write_tenant_csv(std::ostream& os,
                      const std::vector<RunResult>& results) {
  write_cells(os, kTenantColumns, [&](const TenantColumn& c) { os << c.name; });
  for (std::size_t c = 0; c < kAttrComponents; ++c) {
    os << ",attr_" << to_string(static_cast<AttrComponent>(c)) << "_ns";
  }
  os << '\n';
  for (const RunResult& r : results) {
    for (const TenantResult& tn : r.tenants) {
      write_cells(os, kTenantColumns,
                  [&](const TenantColumn& c) { c.cell(os, r, tn); });
      for (const std::uint64_t comp : tn.attr_ns) os << ',' << comp;
      os << '\n';
    }
  }
}

TextTable results_table(const std::vector<RunResult>& results) {
  TextTable t({"trace", "policy", "cache", "hit", "mean", "p99",
               "flash-writes", "WAF", "pages/evict", "metadata"});
  for (const auto& r : results) t.add_row(result_row(r));
  return t;
}

}  // namespace reqblock
