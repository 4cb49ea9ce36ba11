// Data-integrity sweep: fresh vs pre-aged device under the bit-error
// model, appended as fingerprinted records to BENCH_integrity.json.
//
// Each policy runs the same drifting workload twice with the full
// recovery hierarchy armed (ECC -> read retry -> plane-stripe parity,
// patrol scrub on). The *fresh* cell starts at zero wear, so the RBER
// sits at its base and recoveries are rare and cheap; the *aged* cell
// opens near its rated P/E budget, pushing the wear-boosted RBER up
// until retries, parity rebuilds, and scrub refreshes shape the tail.
// Identical traces and identical integrity knobs keep the fresh-vs-aged
// delta a pure recovery-mix effect.
//
// Ledger format matches BENCH_soak.json (bench_common's LedgerWriter
// writes both, tools/perf_diff reads both): {"records": [...]}, every
// field deterministic except wall_unix_s on its own line. Integrity
// records append the recovery-tier counters after the shared columns;
// perf_diff ignores fields it does not know.
#include <sstream>

#include "bench_common.h"

namespace reqblock::benchx {
namespace {

const std::vector<std::string>& integrity_policies() {
  return paper_policies();
}

std::string cell_name(const std::string& policy, bool aged) {
  return "integrity/" + policy + (aged ? "/aged" : "/fresh");
}

ExperimentCase integrity_case(const std::string& policy, bool aged,
                              std::uint64_t cap) {
  ExperimentCase c = make_case("usr_0", policy, 8, cap);
  // Same 2 GB shrink as bench_soak: GC overwrites the free space several
  // times within the run, so the aged cell keeps consuming P/E cycles on
  // top of its pre-aged opening wear.
  c.profile.hot_extents = 2000;
  c.profile.cold_stream_pages = 1ULL << 16;
  c.options.ssd.capacity_bytes = 2ULL << 30;
  c.profile.drift_period = 50000;
  c.profile.drift_step = 211;
  c.options.telemetry.attribution = true;
  FaultPlan& f = c.options.fault;
  f.seed = 0xecc5;
  // The bit-error model and recovery hierarchy are identical in both
  // cells; only the opening wear differs.
  IntegrityPlan& in = f.integrity;
  in.rber_base = 0.01;
  in.rber_pe_anchor = 3000;
  in.rber_pe_boost = 20.0;  // ~0.8x base extra at 90% of rated wear
  in.rber_read_anchor = 256;
  in.rber_read_boost = 2.0;
  in.ecc_escape = 0.10;
  in.read_retry_steps = 3;
  in.retry_relief = 0.25;
  in.stripe_pages = 8;
  in.scrub_every_requests = 20000;
  in.scrub_rber_threshold = 0.05;
  if (aged) {
    AgingPlan& ag = f.aging;
    // Open at 90% of rated wear (the integrity anchor tracks the rated
    // budget), with no injected fault classes: the delta is bit errors,
    // not program/erase failures.
    ag.rated_pe_cycles = 3000;
    ag.initial_pe_cycles = 2700;
  }
  return c;
}

std::vector<ExperimentCase> cells(std::uint64_t cap) {
  std::vector<ExperimentCase> out;
  for (const auto& policy : integrity_policies()) {
    for (const bool aged : {false, true}) {
      add_cell(out, cell_name(policy, aged), integrity_case(policy, aged, cap));
    }
  }
  return out;
}

void report(const Cells& cells) {
  TextTable t({"Policy", "device", "p99 (ms)", "ecc", "retry", "rebuilds",
               "uncorr", "scrubs", "recovery (ms)"});
  LedgerWriter ledger("BENCH_integrity.json");
  std::vector<std::string> deltas;
  for (const auto& policy : integrity_policies()) {
    const RunResult& fresh = cells[cell_name(policy, false)];
    const RunResult& aged = cells[cell_name(policy, true)];
    for (const bool is_aged : {false, true}) {
      const RunResult& r = is_aged ? aged : fresh;
      const IntegrityMetrics& in = r.fault.integrity;
      t.add_row({policy, is_aged ? "aged" : "fresh",
                 format_double(static_cast<double>(r.response.p99()) /
                                   kMillisecond, 2),
                 std::to_string(in.ecc_attempts),
                 std::to_string(in.retry_corrected),
                 std::to_string(in.parity_rebuilds),
                 std::to_string(in.uncorrectable),
                 std::to_string(in.patrol_scrubs),
                 format_double(static_cast<double>(in.recovery_time_total) /
                                   kMillisecond, 2)});
      ledger.add(cell_name(policy, is_aged),
                 cells.case_of(cell_name(policy, is_aged)), r,
                 {{"hit_pct", format_double(r.hit_ratio() * 100.0, 3)},
                  {"erases", std::to_string(r.flash.erases)},
                  {"ecc_attempts", std::to_string(in.ecc_attempts)},
                  {"retry_corrected", std::to_string(in.retry_corrected)},
                  {"parity_rebuilds", std::to_string(in.parity_rebuilds)},
                  {"uncorrectable", std::to_string(in.uncorrectable)},
                  {"patrol_scrubs", std::to_string(in.patrol_scrubs)},
                  {"integrity_recovery_ns",
                   std::to_string(in.recovery_time_total)}});
    }
    std::ostringstream d;
    d << policy << ": ecc " << fresh.fault.integrity.ecc_attempts << " -> "
      << aged.fault.integrity.ecc_attempts << ", rebuilds "
      << fresh.fault.integrity.parity_rebuilds << " -> "
      << aged.fault.integrity.parity_rebuilds << ", recovery "
      << format_double(
             static_cast<double>(fresh.fault.integrity.recovery_time_total) /
                 kMillisecond, 2)
      << " -> "
      << format_double(
             static_cast<double>(aged.fault.integrity.recovery_time_total) /
                 kMillisecond, 2)
      << " ms";
    deltas.push_back(d.str());
  }
  t.print(std::cout);
  std::cout << "\nFresh -> aged recovery-mix deltas:\n";
  for (const auto& d : deltas) std::cout << "  " << d << "\n";
  ledger.append();
  expect_line("recovery mix",
              "worn cells escalate: more retries, rebuilds, scrub refreshes",
              "see aged rows: ecc/rebuild counts above their fresh cells");
}

}  // namespace

const Artifact kIntegrity = {
    "integrity", "Integrity: fresh vs aged recovery mix, drifting workload",
    500000, cells, report};

}  // namespace reqblock::benchx
