#include "sim/checkpoint.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>

#include "snapshot/snapshot.h"
#include "util/atomic_file.h"
#include "util/check.h"
#include "util/strings.h"

namespace reqblock {

namespace fs = std::filesystem;

namespace {

constexpr const char* kSessionKind = "session";
constexpr const char* kResultKind = "run_result";
constexpr const char* kManifestName = "manifest";
constexpr const char* kManifestMagic = "reqblock-matrix-manifest 1";

std::string ckpt_prefix(const std::string& stem) { return stem + ".ckpt."; }

/// All `<stem>.ckpt.<seq>` files in `dir` as (sequence, path), ascending
/// by sequence. Malformed suffixes are ignored; `leftovers`, when given,
/// receives the `<stem>.ckpt.<seq>.tmp.*` files that a write_file_atomic
/// killed mid-write leaves behind.
std::vector<std::pair<std::uint64_t, std::string>> list_checkpoints(
    const std::string& dir, const std::string& stem,
    std::vector<std::string>* leftovers = nullptr) {
  std::vector<std::pair<std::uint64_t, std::string>> found;
  const std::string prefix = ckpt_prefix(stem);
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) != 0) continue;
    const std::string suffix = name.substr(prefix.size());
    if (const auto seq = parse_u64(suffix)) {
      found.emplace_back(*seq, entry.path().string());
    } else if (leftovers != nullptr &&
               suffix.find(".tmp.") != std::string::npos) {
      leftovers->push_back(entry.path().string());
    }
  }
  std::sort(found.begin(), found.end());
  return found;
}

/// Deletes all but the newest `keep` checkpoints of `stem`, and the
/// stem's temp-file leftovers. Only the stem's one writer calls this, and
/// only once its own save is renamed into place, so no leftover belongs
/// to a write still in progress.
void prune_checkpoints(const std::string& dir, const std::string& stem,
                       std::size_t keep) {
  std::vector<std::string> doomed;
  const auto all = list_checkpoints(dir, stem, &doomed);
  for (std::size_t i = 0; i + keep < all.size(); ++i) {
    doomed.push_back(all[i].second);
  }
  for (const std::string& path : doomed) {
    std::error_code ec;
    fs::remove(path, ec);
  }
}

}  // namespace

std::string save_session_checkpoint(const SimulationSession& session,
                                    const std::string& dir,
                                    const std::string& stem,
                                    std::uint32_t keep_last) {
  REQB_CHECK_MSG(keep_last >= 1, "keep_last must retain at least one file");
  fs::create_directories(dir);
  SnapshotWriter w;
  session.serialize(w);
  SnapshotHeader header;
  header.kind = kSessionKind;
  header.config_hash = session.config_hash();
  header.trace_hash = session.trace_hash();
  header.sequence = session.served();
  const std::string path =
      (fs::path(dir) / (ckpt_prefix(stem) + std::to_string(session.served())))
          .string();
  save_snapshot_file(path, header, w.take());
  // Prune only after the new checkpoint is durably in place, so a crash
  // here never leaves fewer checkpoints than before the save.
  prune_checkpoints(dir, stem, keep_last);
  return path;
}

void restore_session_checkpoint(SimulationSession& session,
                                const std::string& path) {
  SnapshotHeader header;
  const std::string payload = load_snapshot_file(path, header);
  require_snapshot_identity(header, kSessionKind, session.config_hash(),
                            session.trace_hash(), path);
  SnapshotReader r(payload);
  session.deserialize(r);
  r.expect_end();
}

std::string find_latest_checkpoint(const std::string& dir,
                                   const std::string& stem) {
  const auto all = list_checkpoints(dir, stem);
  return all.empty() ? std::string() : all.back().second;
}

CaseSession build_session(const SimOptions& options, TraceSource& trace) {
  CaseSession built;
  if (!options.tenants.enabled()) {
    built.session = std::make_unique<SimulationSession>(options, trace);
    return built;
  }
  const auto* synthetic = dynamic_cast<const SyntheticTraceSource*>(&trace);
  if (synthetic == nullptr) {
    throw std::invalid_argument(
        "multi-tenant runs need a synthetic profile: a file-backed trace "
        "cannot be split into per-tenant streams");
  }
  built.streams = make_tenant_streams(synthetic->profile(), options.tenants);
  built.session =
      std::make_unique<SimulationSession>(options, built.streams.sources);
  return built;
}

RunResult run_session(SimulationSession& session,
                      const CheckpointOptions& ckpt, const std::string& stem) {
  const bool periodic = !ckpt.dir.empty() && ckpt.every_n_requests != 0;
  std::uint64_t next_ckpt = 0;
  if (periodic) {
    next_ckpt =
        (session.served() / ckpt.every_n_requests + 1) * ckpt.every_n_requests;
  }
  while (session.step()) {
    if (periodic && session.served() >= next_ckpt) {
      save_session_checkpoint(session, ckpt.dir, stem, ckpt.keep_last);
      next_ckpt += ckpt.every_n_requests;
    }
  }
  return session.finish();
}

RunResult run_with_checkpoints(const SimOptions& options, TraceSource& trace,
                               const CheckpointOptions& ckpt,
                               const std::string& resume_from) {
  CaseSession replay = build_session(options, trace);
  if (!resume_from.empty()) {
    restore_session_checkpoint(*replay.session, resume_from);
  }
  return run_session(*replay.session, ckpt);
}

// --- RunResult storage -----------------------------------------------------

void serialize_run_result(SnapshotWriter& w, const RunResult& res) {
  w.tag("run_result");
  w.str(res.trace_name);
  w.str(res.policy_name);
  w.u64(res.cache_capacity_pages);
  write_fields(kRunRequestFields, res, w);
  res.cache.serialize(w);
  res.flash.serialize(w);
  res.fault.serialize(w);
  res.overload.serialize(w);
  w.str(res.error);
  w.u64(res.occupancy_series.size());
  for (const ListOccupancy& occ : res.occupancy_series) {
    write_fields(kListOccupancyFields, occ, w);
  }
  w.tag("telemetry");
  w.u64(res.telemetry.events.size());
  for (const TraceEvent& e : res.telemetry.events) serialize(w, e);
  w.u64(res.telemetry.events_emitted);
  w.u64(res.telemetry.events_dropped);
  w.u64(res.telemetry.events_sampled_out);
  res.telemetry.snapshots.serialize(w);
  w.u64(res.telemetry.profile.entries.size());
  for (const auto& entry : res.telemetry.profile.entries) {
    w.str(entry.section);
    w.u64(entry.calls);
    w.u64(entry.total_ns);
  }
  w.i64(res.sim_end);
  w.f64(res.wall_seconds);
  w.u64(res.warmup_requests);
  w.f64(res.channel_utilization);
  w.f64(res.chip_utilization);
  res.attribution.serialize(w);
  w.tag("tenants");
  w.u64(res.tenants.size());
  for (const TenantResult& tr : res.tenants) tr.serialize(w);
}

void deserialize_run_result(SnapshotReader& r, RunResult& res) {
  r.tag("run_result");
  res.trace_name = r.str();
  res.policy_name = r.str();
  res.cache_capacity_pages = r.u64();
  read_fields(kRunRequestFields, res, r);
  res.cache.deserialize(r);
  res.flash.deserialize(r);
  res.fault.deserialize(r);
  res.overload.deserialize(r);
  res.error = r.str();
  res.occupancy_series.assign(r.count(48), ListOccupancy{});
  for (ListOccupancy& occ : res.occupancy_series) {
    read_fields(kListOccupancyFields, occ, r);
  }
  r.tag("telemetry");
  res.telemetry.events.assign(r.count(37), TraceEvent{});
  for (TraceEvent& e : res.telemetry.events) deserialize(r, e);
  res.telemetry.events_emitted = r.u64();
  res.telemetry.events_dropped = r.u64();
  res.telemetry.events_sampled_out = r.u64();
  res.telemetry.snapshots.deserialize(r);
  const std::uint64_t profile_entries = r.count(20);
  res.telemetry.profile.entries.clear();
  res.telemetry.profile.entries.reserve(profile_entries);
  for (std::uint64_t i = 0; i < profile_entries; ++i) {
    ProfileReport::Entry entry;
    entry.section = r.str();
    entry.calls = r.u64();
    entry.total_ns = r.u64();
    res.telemetry.profile.entries.push_back(entry);
  }
  res.sim_end = r.i64();
  res.wall_seconds = r.f64();
  res.warmup_requests = r.u64();
  res.channel_utilization = r.f64();
  res.chip_utilization = r.f64();
  res.attribution.deserialize(r);
  r.tag("tenants");
  const std::uint64_t tenant_count = r.count(16);
  res.tenants.clear();
  res.tenants.reserve(tenant_count);
  for (std::uint64_t i = 0; i < tenant_count; ++i) {
    TenantResult tr;
    tr.deserialize(r);
    res.tenants.push_back(std::move(tr));
  }
}

void save_run_result(const RunResult& result, const std::string& path,
                     std::uint64_t config_hash, std::uint64_t trace_hash) {
  SnapshotWriter w;
  serialize_run_result(w, result);
  SnapshotHeader header;
  header.kind = kResultKind;
  header.config_hash = config_hash;
  header.trace_hash = trace_hash;
  header.sequence = result.requests;
  save_snapshot_file(path, header, w.take());
}

RunResult load_run_result(const std::string& path, std::uint64_t config_hash,
                          std::uint64_t trace_hash) {
  SnapshotHeader header;
  const std::string payload = load_snapshot_file(path, header);
  require_snapshot_identity(header, kResultKind, config_hash, trace_hash,
                            path);
  SnapshotReader r(payload);
  RunResult result;
  deserialize_run_result(r, result);
  r.expect_end();
  return result;
}

// --- Matrix manifest -------------------------------------------------------

std::uint64_t matrix_fingerprint(const std::vector<ExperimentCase>& cases) {
  Fingerprint fp;
  fp.add_string("experiment_matrix");
  fp.add(cases.size());
  for (const ExperimentCase& c : cases) {
    fp.add(config_fingerprint(c.options));
    fp.add(SyntheticTraceSource(c.profile).identity_hash());
    fp.add_string(c.label);
  }
  return fp.value();
}

namespace {

std::string manifest_path(const std::string& dir) {
  return (fs::path(dir) / kManifestName).string();
}

}  // namespace

void write_matrix_manifest(const std::string& dir, std::uint64_t matrix_hash,
                           std::size_t case_count,
                           const std::set<std::size_t>& done) {
  std::ostringstream os;
  os << kManifestMagic << '\n';
  os << "matrix " << matrix_hash << '\n';
  os << "cases " << case_count << '\n';
  for (const std::size_t i : done) os << "done " << i << '\n';
  write_file_atomic(manifest_path(dir), os.str());
}

std::set<std::size_t> read_matrix_manifest(const std::string& dir,
                                           std::uint64_t matrix_hash,
                                           std::size_t case_count) {
  std::set<std::size_t> done;
  const std::string path = manifest_path(dir);
  std::ifstream in(path);
  if (!in) return done;
  std::string line;
  if (!std::getline(in, line) || line != kManifestMagic) {
    throw SnapshotError(path + ": not a matrix manifest");
  }
  std::uint64_t stored_hash = 0;
  std::uint64_t stored_cases = 0;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "matrix") {
      ls >> stored_hash;
    } else if (key == "cases") {
      ls >> stored_cases;
    } else if (key == "done") {
      std::size_t idx = 0;
      ls >> idx;
      done.insert(idx);
    } else if (!key.empty()) {
      throw SnapshotError(path + ": unknown manifest entry '" + key + "'");
    }
  }
  if (in.bad()) {
    throw std::runtime_error("I/O error reading manifest: " + path);
  }
  if (stored_hash != matrix_hash) {
    throw SnapshotError(
        path + ": manifest belongs to a different experiment matrix "
               "(delete the checkpoint directory to start over)");
  }
  if (stored_cases != case_count) {
    throw SnapshotError(path + ": manifest case count mismatch");
  }
  for (const std::size_t i : done) {
    if (i >= case_count) {
      throw SnapshotError(path + ": manifest marks a case out of range");
    }
  }
  return done;
}

void remove_checkpoints(const std::string& dir, const std::string& stem) {
  prune_checkpoints(dir, stem, 0);
}

}  // namespace reqblock
