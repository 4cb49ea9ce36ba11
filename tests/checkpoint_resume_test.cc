// Checkpoint/resume acceptance: a run interrupted at an arbitrary request
// and resumed from its checkpoint must produce a byte-identical results
// CSV to a run that was never interrupted — for every policy, with and
// without fault injection, under full structural audits. Plus the refusal
// paths (wrong config, wrong trace, corrupt file) and the resumable
// experiment matrix.
#include "sim/checkpoint.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cache/policy_factory.h"
#include "sim/report.h"
#include "test_util.h"
#include "trace/synthetic.h"
#include "util/audit.h"

namespace reqblock {
namespace {

namespace fs = std::filesystem;

struct FullAuditScope {
  AuditLevel previous = set_audit_level(AuditLevel::kFull);
  ~FullAuditScope() { set_audit_level(previous); }
};

/// Fresh per-test scratch directory.
std::string scratch_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/ckpt_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

WorkloadProfile small_profile(std::uint64_t requests = 1500,
                              std::uint64_t seed = 21) {
  WorkloadProfile p;
  p.name = "ckpt";
  p.total_requests = requests;
  p.seed = seed;
  p.hot_extents = 128;
  p.cold_stream_pages = 1 << 15;
  return p;
}

SimOptions small_options(const std::string& policy, bool faults) {
  SimOptions o;
  o.ssd = testing::tiny_ssd();
  o.policy.name = policy;
  o.policy.capacity_pages = 256;
  o.policy.pages_per_block = o.ssd.pages_per_block;
  o.cache.capacity_pages = 256;
  o.telemetry_env_override = false;
  if (faults) {
    o.fault.seed = 5;
    o.fault.program_fail_prob = 0.02;
    o.fault.read_fail_prob = 0.01;
    o.fault.power_loss_every_requests = 400;
  }
  return o;
}

std::string csv_of(const RunResult& r) {
  std::ostringstream os;
  write_results_csv(os, {r});
  return os.str();
}

RunResult run_uninterrupted(const SimOptions& o, const WorkloadProfile& p) {
  SyntheticTraceSource trace(p);
  SimulationSession session(o, trace);
  while (session.step()) {
  }
  return session.finish();
}

/// Runs to `split` requests, checkpoints, abandons the session (the
/// crash), then restores into a fresh session and finishes the run.
RunResult run_interrupted(const SimOptions& o, const WorkloadProfile& p,
                          std::uint64_t split, const std::string& dir) {
  {
    SyntheticTraceSource trace(p);
    SimulationSession session(o, trace);
    while (session.served() < split && session.step()) {
    }
    save_session_checkpoint(session, dir, "run", 2);
  }
  const std::string latest = find_latest_checkpoint(dir, "run");
  EXPECT_FALSE(latest.empty());
  SyntheticTraceSource trace(p);
  SimulationSession session(o, trace);
  restore_session_checkpoint(session, latest);
  while (session.step()) {
  }
  return session.finish();
}

TEST(CheckpointResumeTest, ByteIdenticalCsvForEveryPolicy) {
  FullAuditScope audit_scope;
  const auto profile = small_profile();
  for (const bool faults : {false, true}) {
    for (const std::string& policy : known_policy_names()) {
      SCOPED_TRACE(policy + (faults ? "+faults" : ""));
      const SimOptions o = small_options(policy, faults);
      const std::string dir =
          scratch_dir(policy + (faults ? "_f" : "_nf"));

      const RunResult whole = run_uninterrupted(o, profile);
      const RunResult resumed = run_interrupted(o, profile, 700, dir);
      EXPECT_EQ(csv_of(whole), csv_of(resumed));
    }
  }
}

TEST(CheckpointResumeTest, ResumeAcrossTheWarmupBoundary) {
  FullAuditScope audit_scope;
  const auto profile = small_profile();
  SimOptions o = small_options("reqblock", false);
  o.warmup_requests = 500;
  const RunResult whole = run_uninterrupted(o, profile);
  // One split inside warmup, one after it.
  for (const std::uint64_t split : {200ull, 900ull}) {
    const std::string dir = scratch_dir("warmup_" + std::to_string(split));
    const RunResult resumed = run_interrupted(o, profile, split, dir);
    EXPECT_EQ(csv_of(whole), csv_of(resumed)) << "split=" << split;
  }
}

TEST(CheckpointResumeTest, RunWithCheckpointsMatchesPlainRun) {
  const auto profile = small_profile();
  const SimOptions o = small_options("reqblock", true);
  const RunResult whole = run_uninterrupted(o, profile);

  const std::string dir = scratch_dir("periodic");
  CheckpointOptions ckpt;
  ckpt.dir = dir;
  ckpt.every_n_requests = 300;
  SyntheticTraceSource trace(profile);
  const RunResult checkpointed = run_with_checkpoints(o, trace, ckpt);
  EXPECT_EQ(csv_of(whole), csv_of(checkpointed));

  // Periodic checkpoints were written and pruned to keep_last.
  std::size_t ckpt_files = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    ckpt_files += e.path().filename().string().rfind("run.ckpt.", 0) == 0;
  }
  EXPECT_EQ(ckpt_files, ckpt.keep_last);

  // And the newest one resumes to the same bytes.
  SyntheticTraceSource trace2(profile);
  const RunResult resumed = run_with_checkpoints(
      o, trace2, ckpt, find_latest_checkpoint(dir, "run"));
  EXPECT_EQ(csv_of(whole), csv_of(resumed));
}

// The cases above run on tiny_ssd, where GC never starts. This one runs
// on micro_ssd at a footprint near the GC operating point and checkpoints
// after GC has erased blocks and copied pages, so the restored flash
// section carries stale and live GC candidates, for both victim policies.
TEST(CheckpointResumeTest, ResumeUnderGcForBothVictimPolicies) {
  FullAuditScope audit_scope;
  WorkloadProfile profile = small_profile(4000, 77);
  profile.write_ratio = 0.8;
  profile.hot_extents = 96;
  profile.cold_stream_pages = 320;  // 4 streams: 1,280 of the 2,048 pages
  profile.mean_interarrival_ns = 140 * kMicrosecond;
  constexpr std::uint64_t kSplit = 2000;
  for (const auto victim : {SsdConfig::GcVictimPolicy::kGreedy,
                            SsdConfig::GcVictimPolicy::kWearAware}) {
    const bool greedy = victim == SsdConfig::GcVictimPolicy::kGreedy;
    SCOPED_TRACE(greedy ? "greedy" : "wear-aware");
    SimOptions o = small_options("reqblock", false);
    o.ssd = testing::micro_ssd();
    o.ssd.gc_victim_policy = victim;
    o.policy.pages_per_block = o.ssd.pages_per_block;
    o.policy.capacity_pages = 128;
    o.cache.capacity_pages = 128;

    SimOptions capped = o;
    capped.max_requests = kSplit;
    const RunResult before_split = run_uninterrupted(capped, profile);
    EXPECT_GT(before_split.flash.erases, 0u);
    EXPECT_GT(before_split.flash.gc_page_moves, 0u);

    const RunResult whole = run_uninterrupted(o, profile);
    const RunResult resumed = run_interrupted(
        o, profile, kSplit, scratch_dir(greedy ? "gc_greedy" : "gc_wear"));
    EXPECT_EQ(csv_of(whole), csv_of(resumed));
  }
}

TEST(CheckpointResumeTest, RestoreRefusesMismatchedConfig) {
  const auto profile = small_profile();
  const std::string dir = scratch_dir("refuse_config");
  {
    SyntheticTraceSource trace(profile);
    SimulationSession session(small_options("reqblock", false), trace);
    while (session.served() < 300 && session.step()) {
    }
    save_session_checkpoint(session, dir, "run", 2);
  }
  const std::string path = find_latest_checkpoint(dir, "run");

  // Different policy configuration: refused.
  SimOptions other = small_options("reqblock", false);
  other.policy.reqblock.delta = 9;
  SyntheticTraceSource trace(profile);
  SimulationSession session(other, trace);
  EXPECT_THROW(restore_session_checkpoint(session, path), SnapshotError);

  // Different trace content: refused.
  SyntheticTraceSource other_trace(small_profile(1500, 77));
  SimulationSession session2(small_options("reqblock", false), other_trace);
  EXPECT_THROW(restore_session_checkpoint(session2, path), SnapshotError);

  // Corrupt file: refused.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    bytes = os.str();
  }
  bytes[bytes.size() / 2] ^= 0x40;
  const std::string corrupt = dir + "/corrupt.ckpt.1";
  {
    std::ofstream out(corrupt, std::ios::binary);
    out << bytes;
  }
  SyntheticTraceSource trace3(profile);
  SimulationSession session3(small_options("reqblock", false), trace3);
  EXPECT_THROW(restore_session_checkpoint(session3, corrupt), SnapshotError);
}

// --- Resumable experiment matrix -------------------------------------------

std::vector<ExperimentCase> small_matrix(
    const std::vector<std::string>& policies = {"lru", "bplru", "reqblock"}) {
  std::vector<ExperimentCase> cases;
  for (const std::string& policy : policies) {
    ExperimentCase c;
    c.profile = small_profile(1000);
    c.options = small_options(policy, false);
    c.label = policy;
    cases.push_back(std::move(c));
  }
  return cases;
}

std::string csv_of_all(const std::vector<RunResult>& rs) {
  std::ostringstream os;
  write_results_csv(os, rs);
  return os.str();
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Stores case `i` as finished: its result file, as the runner writes it.
void store_finished_case(const std::vector<ExperimentCase>& cases,
                         std::size_t i, const std::string& dir) {
  SyntheticTraceSource trace(cases[i].profile);
  SimulationSession session(cases[i].options, trace);
  while (session.step()) {
  }
  const RunResult r = session.finish();
  save_run_result(r, dir + "/case_" + std::to_string(i) + ".result",
                  session.config_hash(), session.trace_hash());
}

/// Checkpoints case `i` (under `options`) after `served` requests.
void checkpoint_case(const WorkloadProfile& profile, const SimOptions& options,
                     std::size_t i, std::uint64_t served,
                     const std::string& dir) {
  SyntheticTraceSource trace(profile);
  SimulationSession session(options, trace);
  while (session.served() < served && session.step()) {
  }
  save_session_checkpoint(session, dir, "case_" + std::to_string(i), 2);
}

/// Writes a manifest marking `done` finished. The manifest format is
/// stable and documented; writing it here is a regression test of that
/// format.
void write_manifest_marking(const std::vector<ExperimentCase>& cases,
                            const std::vector<std::size_t>& done,
                            const std::string& dir) {
  std::ofstream m(dir + "/manifest");
  m << "reqblock-matrix-manifest 1\n"
    << "matrix " << matrix_fingerprint(cases) << "\n"
    << "cases " << cases.size() << "\n";
  for (const std::size_t i : done) m << "done " << i << "\n";
}

TEST(MatrixResumeTest, FreshRunMatchesRunCasesAndRerunLoadsFromDisk) {
  const auto cases = small_matrix();
  const auto plain = run_cases(cases, 1);

  const std::string dir = scratch_dir("matrix");
  CheckpointOptions ckpt;
  ckpt.dir = dir;
  ckpt.every_n_requests = 250;
  const auto resumable = run_cases(cases, 3, ckpt);
  EXPECT_EQ(csv_of_all(plain), csv_of_all(resumable));

  // A rerun over the same directory loads stored results instead of
  // re-simulating: the result files must not be rewritten.
  const auto mtime_before = fs::last_write_time(dir + "/case_1.result");
  const auto again = run_cases(cases, 3, ckpt);
  EXPECT_EQ(csv_of_all(plain), csv_of_all(again));
  EXPECT_EQ(fs::last_write_time(dir + "/case_1.result"), mtime_before);
}

TEST(MatrixResumeTest, ResumesInFlightCaseMidTrace) {
  const auto cases = small_matrix();
  const auto plain = run_cases(cases, 1);

  // Construct the exact on-disk state of a matrix killed inside case 1:
  // case 0 finished (manifest + stored result), case 1 checkpointed
  // mid-trace, case 2 untouched.
  const std::string dir = scratch_dir("matrix_inflight");
  store_finished_case(cases, 0, dir);
  checkpoint_case(cases[1].profile, cases[1].options, 1, 400, dir);
  write_manifest_marking(cases, {0}, dir);

  CheckpointOptions ckpt;
  ckpt.dir = dir;
  ckpt.every_n_requests = 250;
  const auto resumed = run_cases(cases, 1, ckpt);
  EXPECT_EQ(csv_of_all(plain), csv_of_all(resumed));
}

// A matrix killed while several workers had cases in flight: case 0
// finished, cases 1 and 2 each checkpointed mid-trace at different points.
TEST(MatrixResumeTest, ResumesSeveralInFlightCasesInParallel) {
  const auto cases = small_matrix();
  const auto plain = run_cases(cases, 1);

  const std::string dir = scratch_dir("matrix_parallel_inflight");
  store_finished_case(cases, 0, dir);
  checkpoint_case(cases[1].profile, cases[1].options, 1, 400, dir);
  checkpoint_case(cases[2].profile, cases[2].options, 2, 650, dir);
  write_manifest_marking(cases, {0}, dir);

  CheckpointOptions ckpt;
  ckpt.dir = dir;
  ckpt.every_n_requests = 250;
  const auto resumed = run_cases(cases, 3, ckpt);
  EXPECT_EQ(csv_of_all(plain), csv_of_all(resumed));
  EXPECT_EQ(find_latest_checkpoint(dir, "case_1"), "");
  EXPECT_EQ(find_latest_checkpoint(dir, "case_2"), "");
  EXPECT_EQ(file_bytes(dir + "/manifest"),
            "reqblock-matrix-manifest 1\nmatrix " +
                std::to_string(matrix_fingerprint(cases)) +
                "\ncases 3\ndone 0\ndone 1\ndone 2\n");
}

TEST(MatrixResumeTest, ThreadCountLeavesResultsAndManifestUnchanged) {
  const auto cases =
      small_matrix({"lru", "fifo", "lfu", "bplru", "vbbms", "reqblock"});
  std::vector<std::string> csvs;
  std::vector<std::string> manifests;
  for (const unsigned threads : {1u, 4u}) {
    CheckpointOptions ckpt;
    ckpt.dir = scratch_dir("matrix_threads_" + std::to_string(threads));
    ckpt.every_n_requests = 200;
    csvs.push_back(csv_of_all(run_cases(cases, threads, ckpt)));
    manifests.push_back(file_bytes(ckpt.dir + "/manifest"));
  }
  EXPECT_EQ(csvs[0], csv_of_all(run_cases(cases, 1)));
  EXPECT_EQ(csvs[0], csvs[1]);
  EXPECT_EQ(manifests[0], manifests[1]);
}

// A case that throws (here: its checkpoint was taken under another
// config, so the restore refuses it) is neither stored nor marked done;
// the other cases finish and are stored, and the error names the case.
TEST(MatrixResumeTest, FailedCaseIsNeitherStoredNorMarkedDone) {
  const auto cases = small_matrix();
  const std::string dir = scratch_dir("matrix_failed_case");
  SimOptions other = cases[1].options;
  other.policy.reqblock.delta = 9;
  checkpoint_case(cases[1].profile, other, 1, 400, dir);

  CheckpointOptions ckpt;
  ckpt.dir = dir;
  ckpt.every_n_requests = 250;
  try {
    run_cases(cases, 3, ckpt);
    ADD_FAILURE() << "run_cases did not report the failed case";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("case 1 (bplru)"),
              std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(fs::exists(dir + "/case_0.result"));
  EXPECT_FALSE(fs::exists(dir + "/case_1.result"));
  EXPECT_TRUE(fs::exists(dir + "/case_2.result"));
  const std::string manifest = file_bytes(dir + "/manifest");
  EXPECT_NE(manifest.find("done 0\n"), std::string::npos);
  EXPECT_EQ(manifest.find("done 1\n"), std::string::npos);
  EXPECT_NE(manifest.find("done 2\n"), std::string::npos);
}

TEST(MatrixResumeTest, RefusesManifestOfDifferentMatrix) {
  const auto cases = small_matrix();
  const std::string dir = scratch_dir("matrix_refuse");
  CheckpointOptions ckpt;
  ckpt.dir = dir;
  run_cases(cases, 3, ckpt);

  auto other = cases;
  other[2].options.policy.reqblock.delta = 9;
  EXPECT_THROW(run_cases(other, 3, ckpt), SnapshotError);
}

// A process killed mid-save leaves `<stem>.ckpt.<seq>.tmp.<pid>.<n>`
// behind. A checkpoint save deletes its own stem's leftovers, and so does
// the case's cleanup once its result is stored; another stem's stay.
TEST(MatrixResumeTest, DeletesItsOwnTempFileLeftovers) {
  const auto cases = small_matrix();
  const auto plain = run_cases(cases, 1);

  const std::string dir = scratch_dir("matrix_leftovers");
  std::ofstream(dir + "/case_1.ckpt.100.tmp.1.0") << "partial";
  SyntheticTraceSource trace(cases[1].profile);
  SimulationSession session(cases[1].options, trace);
  while (session.served() < 250 && session.step()) {
  }
  save_session_checkpoint(session, dir, "case_1", 2);
  EXPECT_FALSE(fs::exists(dir + "/case_1.ckpt.100.tmp.1.0"));

  std::ofstream(dir + "/case_0.ckpt.2000.tmp.1.0") << "partial";
  std::ofstream(dir + "/other.ckpt.2000.tmp.1.0") << "partial";
  CheckpointOptions ckpt;
  ckpt.dir = dir;
  ckpt.every_n_requests = 250;
  EXPECT_EQ(csv_of_all(plain), csv_of_all(run_cases(cases, 3, ckpt)));
  std::vector<std::string> temps;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.find(".tmp.") != std::string::npos) temps.push_back(name);
  }
  EXPECT_EQ(temps, std::vector<std::string>{"other.ckpt.2000.tmp.1.0"});
}

TEST(MatrixResumeTest, StoredResultRoundTripsEveryField) {
  auto cases = small_matrix();
  cases[0].options.telemetry.trace.level = TraceLevel::kAll;
  cases[0].options.occupancy_log_interval = 100;
  SyntheticTraceSource trace(cases[0].profile);
  SimulationSession session(cases[0].options, trace);
  while (session.step()) {
  }
  const RunResult r = session.finish();

  const std::string path =
      scratch_dir("stored_result") + "/case_0.result";
  save_run_result(r, path, session.config_hash(), session.trace_hash());
  const RunResult loaded =
      load_run_result(path, session.config_hash(), session.trace_hash());

  EXPECT_EQ(csv_of(r), csv_of(loaded));
  EXPECT_EQ(loaded.telemetry.events.size(), r.telemetry.events.size());
  EXPECT_EQ(loaded.occupancy_series.size(), r.occupancy_series.size());

  EXPECT_THROW(load_run_result(path, session.config_hash() ^ 1,
                               session.trace_hash()),
               SnapshotError);
}

}  // namespace
}  // namespace reqblock
