// Long-horizon soak: fresh-device vs end-of-life per-policy deltas on a
// GC-pressured device, appended as fingerprinted records to
// BENCH_soak.json.
//
// Each policy runs the same drifting workload twice. The *fresh* cell is
// a clean device; the *aged* cell opens near its rated P/E budget
// (AgingPlan::initial_pe_cycles) with wear-ramped program/erase faults,
// read-disturb migration, retention scrubbing, and the end-of-life
// read-mostly floors armed. Both cells rotate the hot set and cycle the
// arrival rate (drift/diurnal knobs), so the fresh-vs-aged delta
// isolates device aging under a workload that refuses to sit still.
//
// The footprint is shrunk onto a 2 GB device (same Table 1 geometry
// ratios) so a multi-million-request soak overwrites the free space
// several times: garbage collection, wear, and block retirement all
// accumulate within the run instead of needing billions of requests.
//
// Checkpointing: `reproduce soak --checkpoint-dir DIR
// --checkpoint-every-n N` makes run_cases checkpoint the cells, which run
// in parallel as without it (run_matrix does the same); a rerun after a
// kill loads the finished cells from the manifest, resumes each cell that
// was in flight from its newest checkpoint and produces byte-identical
// results.
//
// Ledger format matches BENCH_attribution.json (bench_common's
// LedgerWriter writes both, tools/perf_diff reads both): {"records":
// [...]}, every field deterministic except wall_unix_s on its own line.
// Soak records append aging columns (retired blocks, refresh traffic,
// shed writes) after the shared ones; perf_diff ignores fields it does
// not know.
#include <sstream>

#include "bench_common.h"

namespace reqblock::benchx {
namespace {

const std::vector<std::string>& soak_policies() { return paper_policies(); }

std::string cell_name(const std::string& policy, bool aged) {
  return "soak/" + policy + (aged ? "/aged" : "/fresh");
}

ExperimentCase soak_case(const std::string& policy, bool aged,
                         std::uint64_t cap) {
  ExperimentCase c = make_case("usr_0", policy, 8, cap);
  // Shrink the usr_0 footprint (~1.5 GB logical) onto a 2 GB device so
  // the soak overwrites the free space repeatedly: GC erases, and with
  // them wear, happen by the tens of thousands within a few million
  // requests.
  c.profile.hot_extents = 2000;
  c.profile.cold_stream_pages = 1ULL << 16;
  c.options.ssd.capacity_bytes = 2ULL << 30;
  // Workload drift in BOTH cells: rotate the hot set a prime step every
  // 50k requests and swing the arrival rate +/-40% per 120k-request
  // diurnal cycle. Identical traces keep the fresh-vs-aged comparison a
  // pure device-aging delta.
  c.profile.drift_period = 50000;
  c.profile.drift_step = 211;
  c.profile.diurnal_period = 120000;
  c.profile.diurnal_amplitude = 0.4;
  c.options.telemetry.attribution = true;
  if (aged) {
    FaultPlan& f = c.options.fault;
    f.seed = 0x50a7;
    f.program_fail_prob = 0.0005;
    f.read_fail_prob = 0.0002;
    f.erase_fail_prob = 0.001;
    AgingPlan& ag = f.aging;
    // Open at 90% of rated wear: the quadratic endurance ramp starts the
    // run at ~0.8x its maxima and keeps climbing as GC consumes cycles.
    ag.rated_pe_cycles = 3000;
    ag.initial_pe_cycles = 2700;
    ag.wear_program_fail_max = 0.01;
    ag.wear_erase_fail_max = 0.02;
    ag.read_disturb_limit = 128;
    ag.read_disturb_fail_max = 0.01;
    ag.retention_age_limit = 500000 * kMillisecond;  // 500 sim-seconds
    ag.retention_fail_max = 0.005;
    // End-of-life floors stay at their defaults (auto free-block floor,
    // no spare floor): the device degrades if retirement eats enough of
    // a plane, but is not forced read-mostly from the start.
  }
  return c;
}

std::vector<ExperimentCase> cells(std::uint64_t cap) {
  std::vector<ExperimentCase> out;
  for (const auto& policy : soak_policies()) {
    add_cell(out, cell_name(policy, false), soak_case(policy, false, cap));
    add_cell(out, cell_name(policy, true), soak_case(policy, true, cap));
  }
  return out;
}

double gc_share(const RunResult& r) {
  const AttributionResult& a = r.attribution;
  if (a.total_ns == 0) return 0.0;
  return static_cast<double>(
             a.component_ns[static_cast<std::size_t>(AttrComponent::kGc)]) /
         static_cast<double>(a.total_ns);
}

void report(const Cells& cells) {
  TextTable t({"Policy", "device", "hit", "p99 (ms)", "GC share", "erases",
               "retired", "migr", "scrubs", "sheds"});
  LedgerWriter ledger("BENCH_soak.json");
  std::vector<std::string> deltas;
  for (const auto& policy : soak_policies()) {
    const RunResult& fresh = cells[cell_name(policy, false)];
    const RunResult& aged = cells[cell_name(policy, true)];
    for (const bool is_aged : {false, true}) {
      const RunResult& r = is_aged ? aged : fresh;
      t.add_row({policy, is_aged ? "aged" : "fresh",
                 format_double(r.hit_ratio() * 100.0, 2) + "%",
                 format_double(static_cast<double>(r.response.p99()) /
                                   kMillisecond, 2),
                 format_double(gc_share(r) * 100.0, 1) + "%",
                 std::to_string(r.flash.erases),
                 std::to_string(r.fault.blocks_retired),
                 std::to_string(r.fault.read_disturb_migrations),
                 std::to_string(r.fault.retention_scrubs),
                 std::to_string(r.fault.degraded_write_sheds)});
      ledger.add(
          cell_name(policy, is_aged), cells.case_of(cell_name(policy, is_aged)),
          r,
          {{"hit_pct", format_double(r.hit_ratio() * 100.0, 3)},
           {"erases", std::to_string(r.flash.erases)},
           {"blocks_retired", std::to_string(r.fault.blocks_retired)},
           {"read_disturb_migrations",
            std::to_string(r.fault.read_disturb_migrations)},
           {"retention_scrubs", std::to_string(r.fault.retention_scrubs)},
           {"degraded_write_sheds",
            std::to_string(r.fault.degraded_write_sheds)}});
    }
    const double p99_fresh =
        static_cast<double>(fresh.response.p99()) / kMillisecond;
    const double p99_aged =
        static_cast<double>(aged.response.p99()) / kMillisecond;
    std::ostringstream d;
    d << policy << ": p99 " << format_double(p99_fresh, 2) << " -> "
      << format_double(p99_aged, 2) << " ms, hit "
      << format_double(fresh.hit_ratio() * 100.0, 2) << " -> "
      << format_double(aged.hit_ratio() * 100.0, 2) << "%, "
      << aged.fault.blocks_retired << " blocks retired";
    deltas.push_back(d.str());
  }
  t.print(std::cout);
  std::cout << "\nFresh -> aged deltas:\n";
  for (const auto& d : deltas) std::cout << "  " << d << "\n";
  ledger.append();
  expect_line("aging effect",
              "worn device retires blocks and lifts the tail",
              "see aged rows: retired > 0, p99(aged) >= p99(fresh)");
}

}  // namespace

const Artifact kSoak = {"soak",
                        "Soak: fresh vs aged device, drifting workload",
                        2000000, cells, report};

}  // namespace reqblock::benchx
