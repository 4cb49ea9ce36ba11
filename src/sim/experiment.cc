#include "sim/experiment.h"

#include <atomic>
#include <cctype>
#include <filesystem>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "sim/checkpoint.h"
#include "telemetry/exporters.h"
#include "util/atomic_file.h"
#include "util/strings.h"

namespace reqblock {

namespace {

/// Replays the cases of one matrix for run_cases' workers, one case per
/// run() call, safe from several threads for distinct cases. With a
/// checkpoint directory it keeps the matrix's manifest (sim/checkpoint.h).
class MatrixReplay {
 public:
  /// With a checkpoint directory, creates it and reads the manifest;
  /// throws SnapshotError when it belongs to a different matrix.
  MatrixReplay(const std::vector<ExperimentCase>& cases,
               const CheckpointOptions& ckpt)
      : cases_(cases), ckpt_(ckpt) {
    if (ckpt_.dir.empty()) return;
    std::filesystem::create_directories(ckpt_.dir);
    matrix_hash_ = matrix_fingerprint(cases_);
    done_ = read_matrix_manifest(ckpt_.dir, matrix_hash_, cases_.size());
  }

  /// Replays case `i`. With a checkpoint directory, a case the manifest
  /// marks done loads from `case_<i>.result`; any other resumes from its
  /// newest `case_<i>` checkpoint or starts fresh, then stores its result,
  /// is marked done and has its checkpoints deleted, in that order.
  RunResult run(std::size_t i) {
    const ExperimentCase& c = cases_[i];
    SyntheticTraceSource trace(c.profile);
    CaseSession replay = build_session(c.options, trace);
    SimulationSession& session = *replay.session;
    if (ckpt_.dir.empty()) return run_session(session);

    const std::string stem = "case_" + std::to_string(i);
    const std::string result_path =
        (std::filesystem::path(ckpt_.dir) / (stem + ".result")).string();
    bool done = false;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      done = done_.contains(i);
    }
    if (done) {
      return load_run_result(result_path, session.config_hash(),
                             session.trace_hash());
    }
    const std::string latest = find_latest_checkpoint(ckpt_.dir, stem);
    if (!latest.empty()) restore_session_checkpoint(session, latest);
    RunResult result = run_session(session, ckpt_, stem);
    // Completion order matters for crash consistency: the stored result
    // must be durable before the manifest says the case is done; stale
    // mid-case checkpoints are deleted last (harmless leftovers if the
    // process dies in between).
    save_run_result(result, result_path, session.config_hash(),
                    session.trace_hash());
    {
      const std::lock_guard<std::mutex> lock(mu_);
      done_.insert(i);
      write_matrix_manifest(ckpt_.dir, matrix_hash_, cases_.size(), done_);
    }
    remove_checkpoints(ckpt_.dir, stem);
    return result;
  }

 private:
  const std::vector<ExperimentCase>& cases_;
  const CheckpointOptions& ckpt_;
  std::uint64_t matrix_hash_ = 0;
  std::mutex mu_;  // guards done_ and the manifest file
  std::set<std::size_t> done_;
};

}  // namespace

std::vector<RunResult> run_cases_nothrow(
    const std::vector<ExperimentCase>& cases, unsigned max_threads,
    const CheckpointOptions& ckpt) {
  // Reads the manifest before any worker starts, so a checkpoint directory
  // of another matrix is refused before anything runs.
  MatrixReplay matrix(cases, ckpt);
  if (max_threads == 0) {
    max_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(max_threads, cases.size()));

  std::vector<RunResult> results(cases.size());
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    while (true) {
      const std::size_t i = next.fetch_add(1);
      if (i >= cases.size()) return;
      const ExperimentCase& c = cases[i];
      // A throwing case must not escape the worker thread (that would
      // std::terminate the whole process and lose every other result);
      // it becomes a per-case failure status instead.
      try {
        results[i] = matrix.run(i);
      } catch (const std::exception& e) {
        results[i] = RunResult{};
        results[i].trace_name = c.profile.name;
        results[i].policy_name = c.options.policy.name;
        results[i].error = e.what();
      } catch (...) {
        results[i] = RunResult{};
        results[i].trace_name = c.profile.name;
        results[i].policy_name = c.options.policy.name;
        results[i].error = "unknown exception";
      }
    }
  };

  if (workers <= 1) {
    work();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned t = 0; t < workers; ++t) pool.emplace_back(work);
    for (auto& t : pool) t.join();
  }
  return results;
}

void CheckpointOptions::apply_cli(const ArgParser& args) {
  dir = args.get_or("checkpoint-dir", dir);
  every_n_requests =
      args.get_u64_strict("checkpoint-every-n", every_n_requests);
  if (args.has("checkpoint-every-n") && dir.empty()) {
    throw std::invalid_argument("--checkpoint-every-n: needs --checkpoint-dir");
  }
}

std::vector<RunResult> run_cases(const std::vector<ExperimentCase>& cases,
                                 unsigned max_threads,
                                 const CheckpointOptions& ckpt) {
  std::vector<RunResult> results =
      run_cases_nothrow(cases, max_threads, ckpt);
  std::string failures;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].ok()) continue;
    if (!failures.empty()) failures += "; ";
    failures += "case " + std::to_string(i) + " (" +
                (cases[i].label.empty() ? results[i].policy_name
                                        : cases[i].label) +
                "): " + results[i].error;
  }
  if (!failures.empty()) {
    throw std::runtime_error("run_cases: " + failures);
  }
  return results;
}

namespace {

std::string sanitize_stem(std::string s) {
  for (char& c : s) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '-' &&
        c != '_' && c != '.') {
      c = '_';
    }
  }
  return s.empty() ? std::string("run") : s;
}

}  // namespace

RunArtifacts export_run_artifacts(const RunResult& result,
                                  const std::string& out_dir,
                                  std::string stem) {
  if (stem.empty()) stem = result.trace_name + "_" + result.policy_name;
  stem = sanitize_stem(stem);
  const std::filesystem::path dir(out_dir.empty() ? "." : out_dir);
  std::filesystem::create_directories(dir);

  RunArtifacts artifacts;
  // Temp file + atomic rename per artifact: a crash mid-export never
  // leaves a truncated file that downstream tooling would mistake for a
  // complete one.
  const auto write = [&](const char* suffix, const auto& writer) {
    const std::filesystem::path path = dir / (stem + suffix);
    std::ostringstream os;
    writer(os);
    write_file_atomic(path.string(), os.str());
    return path.string();
  };
  if (!result.telemetry.events.empty()) {
    artifacts.chrome_trace = write(".trace.json", [&](std::ostream& os) {
      write_chrome_trace(os, result.telemetry.events);
    });
    artifacts.events_jsonl = write(".events.jsonl", [&](std::ostream& os) {
      write_events_jsonl(os, result.telemetry.events);
    });
  }
  if (!result.telemetry.snapshots.empty()) {
    artifacts.snapshots_csv = write(".snapshots.csv", [&](std::ostream& os) {
      write_series_csv(os, result.telemetry.snapshots);
    });
  }
  return artifacts;
}

std::uint64_t bench_request_cap(std::uint64_t fallback) {
  return env_value("REQBLOCK_BENCH_REQUESTS", parse_u64,
                   "a non-negative integer with no trailing characters")
      .value_or(fallback);
}

}  // namespace reqblock
