// Experiment matrix runner.
//
// A paper figure is a matrix of (trace, policy, cache size, ...) runs; the
// runs are completely independent, so we farm them out across hardware
// threads. Determinism is preserved: each run owns a private device,
// cache, and trace generator seeded from its profile.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "trace/synthetic.h"

namespace reqblock {

struct ExperimentCase {
  WorkloadProfile profile;
  SimOptions options;
  /// Free-form tag benches use to index results (e.g. "delta=5").
  std::string label;
};

struct CheckpointOptions {
  /// Directory checkpoints/manifest live in (created if missing).
  std::string dir;
  /// Checkpoint after every N served requests (warmup included; 0 = only
  /// record case completion, never mid-case state).
  std::uint64_t every_n_requests = 0;
  /// Newest checkpoints retained per run; older ones are pruned after
  /// each successful save. At least 1.
  std::uint32_t keep_last = 2;

  /// Reads --checkpoint-dir and --checkpoint-every-n. A cadence needs a
  /// directory to write into: --checkpoint-every-n without
  /// --checkpoint-dir throws std::invalid_argument naming both flags.
  void apply_cli(const ArgParser& args);
};

/// Runs all cases, in parallel up to `max_threads` (0 = hardware
/// concurrency). Results come back in case order. A case that throws is
/// reported (with its index and label) via one aggregated
/// std::runtime_error after every other case finished — a bad case can no
/// longer std::terminate the process from inside a worker thread.
/// With a checkpoint directory the matrix is resumable (sim/checkpoint.h,
/// layer 3): a manifest of a different matrix is refused with
/// SnapshotError before any case runs, and a failed case is neither
/// stored nor marked done.
std::vector<RunResult> run_cases(const std::vector<ExperimentCase>& cases,
                                 unsigned max_threads = 0,
                                 const CheckpointOptions& ckpt = {});

/// Like run_cases, but never throws on case failure: a failed case comes
/// back with RunResult::ok() == false and the message in RunResult::error.
std::vector<RunResult> run_cases_nothrow(
    const std::vector<ExperimentCase>& cases, unsigned max_threads = 0,
    const CheckpointOptions& ckpt = {});

/// Filesystem telemetry artifacts of one run. Empty strings mark files
/// that were skipped because the run carried no matching data.
struct RunArtifacts {
  std::string chrome_trace;   // <stem>.trace.json (chrome://tracing)
  std::string events_jsonl;   // <stem>.events.jsonl
  std::string snapshots_csv;  // <stem>.snapshots.csv
};

/// Writes the run's telemetry under `out_dir` (created if missing):
/// Chrome trace + JSONL when the run collected events, snapshot CSV when
/// it collected snapshots. `stem` defaults to "<trace>_<policy>" with
/// path-hostile characters replaced.
RunArtifacts export_run_artifacts(const RunResult& result,
                                  const std::string& out_dir,
                                  std::string stem = "");

/// Environment-tunable request cap for benches: REQBLOCK_BENCH_REQUESTS
/// (default `fallback`, 0 = full traces). Throws std::invalid_argument
/// naming the variable and the value when it is set but not a
/// non-negative integer.
std::uint64_t bench_request_cap(std::uint64_t fallback);

}  // namespace reqblock
