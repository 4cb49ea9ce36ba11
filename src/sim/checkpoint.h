// One case's replay, checkpoint files and resumable runs.
//
// Every replay goes through two functions. build_session() builds the
// session for (options, trace), deriving one stream per tenant when the
// options configure several; run_session() steps it to the end,
// checkpointing every N requests when asked. Simulator::run,
// run_with_checkpoints and run_cases' workers all call both.
//
// Three layers ride on the snapshot container (src/snapshot/):
//
//   1. Session checkpoints — `<stem>.ckpt.<sequence>` files holding one
//      SimulationSession mid-run. Written crash-consistently (temp file +
//      fsync + atomic rename), pruned to the newest keep_last per stem, and
//      validated on restore: format version, config fingerprint, and trace
//      identity must all match or the restore refuses loudly.
//
//   2. Stored results — `case_<i>.result` files holding one finished
//      RunResult, so a resumed experiment matrix can emit the exact bytes
//      an uninterrupted one would without re-running finished cases.
//
//   3. The matrix manifest — `manifest` records the matrix fingerprint and
//      which cases completed. run_cases() with a checkpoint directory reads
//      it before any worker starts, then runs the cases in parallel as
//      without one: finished cases load from disk, cases that were in
//      flight resume from their newest valid checkpoint, untouched cases
//      run from scratch. Each case in flight checkpoints under its own
//      `case_<i>` stem, so up to threads x keep_last checkpoint files
//      exist at a time.
//
// Kill a matrix run at any instant and rerun it with the same arguments:
// the final results (and their CSV) are byte-identical to a run that was
// never interrupted.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "sim/experiment.h"
#include "sim/session.h"

namespace reqblock {

/// A session and the per-tenant streams it reads (empty for one tenant).
/// The session points into the streams, so the two travel together.
struct CaseSession {
  TenantStreams streams;
  std::unique_ptr<SimulationSession> session;
};

/// Builds the session that replays `trace` under `options`. With
/// options.tenants.enabled() it derives one stream per tenant from the
/// synthetic profile of `trace`, and throws when `trace` has none (file
/// traces carry no generator to re-seed).
CaseSession build_session(const SimOptions& options, TraceSource& trace);

/// Steps `session` to the end and returns finish(). With a checkpoint
/// directory and every_n_requests > 0 it saves `<dir>/<stem>.ckpt.*`
/// every every_n_requests served requests (save_session_checkpoint).
RunResult run_session(SimulationSession& session,
                      const CheckpointOptions& ckpt = {},
                      const std::string& stem = "run");

/// Writes one checkpoint of `session` as `<dir>/<stem>.ckpt.<served>` and
/// prunes older `<stem>.ckpt.*` files down to `keep_last`, deleting the
/// temp files an earlier process killed mid-save left for this stem.
/// Returns the path written.
std::string save_session_checkpoint(const SimulationSession& session,
                                    const std::string& dir,
                                    const std::string& stem,
                                    std::uint32_t keep_last);

/// Restores `session` (freshly constructed, same options + trace) from a
/// checkpoint file. Throws SnapshotError when the file is corrupt or was
/// taken under a different config/trace; std::runtime_error when it
/// cannot be read.
void restore_session_checkpoint(SimulationSession& session,
                                const std::string& path);

/// Highest-sequence `<stem>.ckpt.*` file under `dir`, or "" when none
/// exists. Files with a malformed sequence suffix are ignored.
std::string find_latest_checkpoint(const std::string& dir,
                                   const std::string& stem);

/// Runs one trace to completion with periodic checkpoints under the stem
/// "run". When `resume_from` is non-empty the session is restored from
/// that file first (it must match `options` and `trace`). With an empty
/// CheckpointOptions::dir this degenerates to Simulator::run.
RunResult run_with_checkpoints(const SimOptions& options, TraceSource& trace,
                               const CheckpointOptions& ckpt,
                               const std::string& resume_from = "");

/// Serialization of a finished RunResult (wall_seconds and the
/// self-profile included — a stored result reproduces everything the
/// report layer prints).
void serialize_run_result(SnapshotWriter& w, const RunResult& result);
void deserialize_run_result(SnapshotReader& r, RunResult& result);

/// Stores/loads one finished result. The header carries the case's config
/// fingerprint and trace identity; load_run_result re-validates both.
void save_run_result(const RunResult& result, const std::string& path,
                     std::uint64_t config_hash, std::uint64_t trace_hash);
RunResult load_run_result(const std::string& path, std::uint64_t config_hash,
                          std::uint64_t trace_hash);

/// Order-sensitive hash over every case's config fingerprint, trace
/// identity, and label. A manifest written under a different matrix hash
/// is refused.
std::uint64_t matrix_fingerprint(const std::vector<ExperimentCase>& cases);

/// Reads `<dir>/manifest` and returns the cases it marks done (none when
/// the file does not exist yet). Throws SnapshotError when the manifest
/// belongs to a different matrix.
std::set<std::size_t> read_matrix_manifest(const std::string& dir,
                                           std::uint64_t matrix_hash,
                                           std::size_t case_count);

/// Rewrites `<dir>/manifest` atomically with `done` as the finished cases.
void write_matrix_manifest(const std::string& dir, std::uint64_t matrix_hash,
                           std::size_t case_count,
                           const std::set<std::size_t>& done);

/// Deletes every `<stem>.ckpt.*` file under `dir`, temp-file leftovers
/// included.
void remove_checkpoints(const std::string& dir, const std::string& stem);

}  // namespace reqblock
