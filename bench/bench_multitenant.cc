// Multi-tenant fairness study: a latency-sensitive tenant sharing the
// device with a noisy neighbor, under each arbitration discipline.
//
// Tenant 0 is the victim: the base usr_0 stream compressed to 3x its
// natural rate, so it needs more than half of the saturated device.
// Tenant 1 is the aggressor: the same profile at 4x with an 8x
// burst-arrival spike every cycle. Arbitration order decides whose
// requests book the shared channel timelines first, which is where
// cross-tenant latency coupling lives — the per-tenant admission queues
// keep each tenant's backlog its own problem. The claim under test:
// deficit round-robin with a 4:1 weight entitles the victim to 80% of
// device service, so its demand fits and its p99 stays bounded; plain
// round-robin caps it at 50%, below its demand, and the aggressor's
// bursts push its tail out.
//
// Per-arbiter Jain's fairness index over weighted per-tenant throughput
// (served requests / weight) quantifies how evenly service tracked
// entitlement.
//
// Machine-readable output: one LedgerWriter record per arbiter cell,
// appended to BENCH_multitenant.json in the working directory. Each record
// carries every tenant's requests, admissions, sheds, queue-wait p99 and
// response p99 and mean (t0_requests, ...) and the cell's jain_weighted.
#include "bench_common.h"

namespace reqblock::benchx {
namespace {

constexpr const char* kTrace = "usr_0";

const std::vector<ArbiterKind>& arbiters() {
  static const std::vector<ArbiterKind> a = {
      ArbiterKind::kRoundRobin, ArbiterKind::kWeighted,
      ArbiterKind::kDeficit};
  return a;
}

std::string cell_name(ArbiterKind kind) {
  return std::string("multitenant/") + to_string(kind);
}

ExperimentCase tenant_case(ArbiterKind kind, std::uint64_t cap) {
  ExperimentCase c = make_case(kTrace, "reqblock", 8, cap);
  c.options.tenants.count = 2;
  c.options.tenants.arbiter = kind;
  TenantSpec victim;
  victim.weight = 4;
  victim.rate = 3.0;
  TenantSpec aggressor;
  aggressor.weight = 1;
  aggressor.rate = 4.0;
  aggressor.burst_len = 500;
  aggressor.burst_period = 2500;
  aggressor.burst_factor = 8.0;
  c.options.tenants.specs = {victim, aggressor};
  // The bounded queue is where contention becomes measurable wait.
  c.options.overload.queue_depth = 64;
  c.options.overload.deadline_ns = 50 * kMillisecond;
  return c;
}

double jain_index(const std::vector<double>& x) {
  double sum = 0.0, sum_sq = 0.0;
  for (const double v : x) {
    sum += v;
    sum_sq += v * v;
  }
  if (sum_sq == 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(x.size()) * sum_sq);
}

std::vector<ExperimentCase> cells(std::uint64_t cap) {
  std::vector<ExperimentCase> out;
  for (const ArbiterKind kind : arbiters()) {
    add_cell(out, cell_name(kind), tenant_case(kind, cap));
  }
  return out;
}

void report(const Cells& cells) {
  TextTable t({"Arbiter", "Tenant", "Requests", "Admitted", "Sheds",
               "q-wait p99 (ms)", "resp p99 (ms)", "Jain"});
  LedgerWriter ledger("BENCH_multitenant.json");
  SimTime rr_victim_p99 = 0;
  SimTime drr_victim_p99 = 0;
  for (const ArbiterKind kind : arbiters()) {
    const RunResult& r = cells[cell_name(kind)];
    std::vector<double> weighted_share;
    const std::vector<std::uint32_t> weights = {4, 1};
    for (std::size_t i = 0; i < r.tenants.size(); ++i) {
      weighted_share.push_back(
          static_cast<double>(r.tenants[i].overload.admitted) /
          static_cast<double>(weights[i]));
    }
    const double jain = jain_index(weighted_share);
    std::vector<LedgerField> extra;
    for (std::size_t i = 0; i < r.tenants.size(); ++i) {
      const TenantResult& tn = r.tenants[i];
      t.add_row({to_string(kind), tn.name, std::to_string(tn.requests),
                 std::to_string(tn.overload.admitted),
                 std::to_string(tn.overload.sheds),
                 format_double(static_cast<double>(tn.queue_wait.p99()) /
                                   kMillisecond, 2),
                 format_double(static_cast<double>(tn.response.p99()) /
                                   kMillisecond, 2),
                 i == 0 ? format_double(jain, 4) : ""});
      const std::string& p = tn.name;
      extra.insert(
          extra.end(),
          {{p + "_requests", std::to_string(tn.requests)},
           {p + "_admitted", std::to_string(tn.overload.admitted)},
           {p + "_sheds", std::to_string(tn.overload.sheds)},
           {p + "_queue_wait_p99_ns", std::to_string(tn.queue_wait.p99())},
           {p + "_resp_p99_ns", std::to_string(tn.response.p99())},
           {p + "_resp_mean_ns",
            std::to_string(static_cast<std::int64_t>(tn.response.mean()))}});
    }
    extra.emplace_back("jain_weighted", format_double(jain, 6));
    ledger.add(cell_name(kind), cells.case_of(cell_name(kind)), r, extra);
    if (kind == ArbiterKind::kRoundRobin) {
      rr_victim_p99 = r.tenants[0].response.p99();
    }
    if (kind == ArbiterKind::kDeficit) {
      drr_victim_p99 = r.tenants[0].response.p99();
    }
  }
  t.print(std::cout);
  ledger.append();
  expect_line("DRR 4:1 bounds the victim tenant's p99 below round-robin",
              "weighted deficit service shields t0 from the x8 burst",
              "rr " +
                  format_double(static_cast<double>(rr_victim_p99) /
                                    kMillisecond, 2) +
                  "ms vs drr " +
                  format_double(static_cast<double>(drr_victim_p99) /
                                    kMillisecond, 2) +
                  "ms");
}

}  // namespace

const Artifact kMultitenant = {
    "multitenant", "Multi-tenant: victim p99 vs arbiter, noisy neighbor",
    60000, cells, report};

}  // namespace reqblock::benchx
