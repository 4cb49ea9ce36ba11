// One repetition of one benchmark workload, run in a fresh process by
// benchmark/run.py. Builds the workload from its seed, replays it, checks
// what it can check on its own, and prints one JSON object on stdout.
//
//   bench_rep --workload NAME [--seed N|default] [--smoke] [--traced]
//             [--spans FILE]
//
// Untraced: every cell replays through SimulationSession, exactly as
// trace_replay does; set-up (trace sources + session) and replay are timed
// separately. Traced: single-tenant cells drive Ftl + CacheManager directly
// (as examples/gc_study.cpp does) with the decorators of timing.h around
// every public call and the Profiler wired into the FTL; soak-full runs the
// session over wrapped tenant streams with the self-profiler on. Both
// modes write the results CSV the session path would write, so run.py can
// compare their digests.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "sim/report.h"
#include "sim/session.h"
#include "snapshot/snapshot.h"
#include "timing.h"
#include "trace/profiles.h"
#include "trace/synthetic.h"
#include "util/args.h"

namespace reqblock::perfbench {
namespace {

/// Spans are exported for every kSpanEvery-th request.
constexpr std::uint64_t kSpanEvery = 1000;
/// Smoke mode divides every request count (and the snapshot cadence).
constexpr std::uint64_t kSmokeDivisor = 10;

/// A workload is one trace profile replayed through one or more cells:
/// one single-tenant cell per policy, or one multi-tenant session.
struct Workload {
  std::string name;
  WorkloadProfile profile;
  std::vector<SimOptions> cells;
  bool multi_tenant = false;
  /// In-memory SimulationSession::serialize every N served requests.
  std::uint64_t snapshot_every = 0;
};

Workload make_workload(const std::string& name,
                       std::optional<std::uint64_t> seed, bool smoke) {
  const std::uint64_t div = smoke ? kSmokeDivisor : 1;
  Workload w;
  w.name = name;
  if (name == "policy-sweep") {
    // The paper's headline mix on the default 32 GiB experiment device:
    // GC never runs, so the policy and cache layers carry the run.
    w.profile = profiles::usr_0();
    w.profile.total_requests = 50000 / div;
    for (const std::string& p : known_policy_names()) {
      w.cells.push_back(make_sim_options(p, 32));
    }
  } else if (name == "read-scan") {
    // 95% reads: cache miss probes and Ftl::read_page dominate.
    w.profile = profiles::hm_1();
    w.profile.total_requests = 500000 / div;
    w.cells.push_back(make_sim_options("reqblock", 32));
  } else if (name == "gc-churn") {
    // proj_0's write-heavy shape on a 256 MiB device, small enough that
    // GC reaches its steady rate early in a short run. The footprint (hot
    // slots + 4 cold streams) stays at ~74% of the device: an over-full
    // plane aborts with "plane out of free blocks".
    w.profile = profiles::proj_0();
    w.profile.total_requests = 150000 / div;
    w.profile.hot_extents = 500;
    w.profile.cold_stream_pages = 4096;
    SimOptions o = make_sim_options("reqblock", 8);
    o.ssd.capacity_bytes = 1ULL << 28;
    w.cells.push_back(o);
  } else if (name == "soak-full") {
    // The CI integrity-soak shape on bench_soak's 2 GiB usr_0 device,
    // with every session hook on: tenants + arbitration, admission queue,
    // throttle, background flush, faults, aging, integrity, drift,
    // attribution, and in-memory checkpoints.
    w.multi_tenant = true;
    w.snapshot_every = 150000 / div;
    w.profile = profiles::usr_0();
    w.profile.total_requests = 100000 / div;  // per tenant
    w.profile.hot_extents = 2000;
    w.profile.cold_stream_pages = 1ULL << 16;
    w.profile.drift_period = 50000;
    w.profile.drift_step = 211;
    w.profile.diurnal_period = 120000;
    w.profile.diurnal_amplitude = 0.4;
    SimOptions o = make_sim_options("reqblock", 8);
    o.ssd.capacity_bytes = 2ULL << 30;
    TenantOptions& t = o.tenants;
    t.count = 3;
    t.arbiter = ArbiterKind::kDeficit;
    t.drr_quantum_pages = 8;
    t.specs = {{4, 1.0, 0, 0, 8.0}, {2, 1.0, 0, 0, 8.0},
               {1, 4.0, 500, 2500, 8.0}};
    OverloadOptions& ov = o.overload;
    ov.queue_depth = 48;
    ov.deadline_ns = 5 * kMillisecond;
    ov.timeout_action = TimeoutAction::kRetry;
    ov.max_retries = 2;
    ov.retry_backoff_ns = 200 * kMicrosecond;
    ov.throttle = true;
    ov.bg_flush_high = 0.85;
    ov.bg_flush_low = 0.6;
    FaultPlan& f = o.fault;
    f.seed = seed.value_or(43);
    f.program_fail_prob = 0.005;
    f.power_loss_every_requests = 9000;
    f.aging.rated_pe_cycles = 3000;
    f.aging.initial_pe_cycles = 2700;
    f.aging.wear_program_fail_max = 0.01;
    f.aging.wear_erase_fail_max = 0.02;
    IntegrityPlan& in = f.integrity;
    in.rber_base = 0.02;
    in.rber_pe_anchor = 3000;
    in.rber_pe_boost = 4;
    in.ecc_escape = 0.1;
    in.read_retry_steps = 3;
    in.stripe_pages = 8;
    in.scrub_every_requests = 500;
    in.scrub_rber_threshold = 0.1;
    o.telemetry.attribution = true;
    w.cells.push_back(o);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  if (seed) w.profile.seed = *seed;
  return w;
}

/// Minimal JSON object writer (keys are fixed identifiers).
class Json {
 public:
  Json& num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return raw(key, buf);
  }
  Json& u64(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Json& str(const std::string& key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  Json& b(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  Json& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "\"" : ", \"") + key + "\": " + json;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// "[a, b, ...]" with each item written as JSON by `encode`.
template <typename Items, typename Encode>
std::string json_array(const Items& items, Encode encode) {
  std::string out = "[";
  for (const auto& item : items) {
    if (out.size() > 1) out += ", ";
    out += encode(item);
  }
  return out + "]";
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// What one repetition measured and produced.
struct Rep {
  std::uint64_t requests = 0;
  std::int64_t setup_ns = 0;
  std::int64_t replay_ns = 0;
  /// Untraced: replay time of every kChunk served requests, cell by cell.
  std::vector<std::int64_t> chunk_ns;
  /// High-water RSS at the end of replay, before the benchmark's own
  /// snapshot round-trip check builds a second session.
  std::uint64_t peak_rss_kb = 0;
  std::vector<RunResult> results;  // one per cell
  std::vector<std::pair<std::string, std::string>> failed_checks;
  Json layers;                     // traced only
};

/// p-quantile of a sample (nearest rank), 0 when empty.
std::int64_t quantile(std::vector<std::int64_t>& v, double q) {
  if (v.empty()) return 0;
  const auto k =
      static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double per(double num, std::uint64_t den) {
  return den == 0 ? 0.0 : num / static_cast<double>(den);
}

/// serialize -> deserialize into a fresh session -> serialize must give
/// back the same bytes. Returns the deserialize time.
std::int64_t check_roundtrip(const Workload& w, const SimOptions& o,
                             const std::string& bytes, Rep& rep) {
  TenantStreams fresh = make_tenant_streams(w.profile, o.tenants);
  SimulationSession restored(o, fresh.sources);
  SnapshotReader reader(bytes);
  const std::int64_t b = now_ns();
  restored.deserialize(reader);
  const std::int64_t e = now_ns();
  reader.expect_end();
  SnapshotWriter again;
  restored.serialize(again);
  if (again.buffer() != bytes) {
    rep.failed_checks.emplace_back(
        "snapshot_roundtrip",
        "re-serialized snapshot differs (" + std::to_string(bytes.size()) +
            " vs " + std::to_string(again.buffer().size()) + " bytes)");
  }
  return e - b;
}

// ---------------------------------------------------------------------------
// Untraced repetition: the session path, timed as a whole.

/// What set-up builds for one cell: the trace source(s) and the session.
struct Stack {
  Stack(const Workload& w, const SimOptions& o) {
    if (w.multi_tenant) {
      streams = make_tenant_streams(w.profile, o.tenants);
      session = std::make_unique<SimulationSession>(o, streams.sources);
    } else {
      single = std::make_unique<SyntheticTraceSource>(w.profile);
      session = std::make_unique<SimulationSession>(o, *single);
    }
  }
  TenantStreams streams;
  std::unique_ptr<SyntheticTraceSource> single;
  std::unique_ptr<SimulationSession> session;  // destroyed first
};

/// Set-ups timed per cell. Set-up takes milliseconds, so one sample is
/// mostly noise: the median of several goes into setup_s, and the last
/// stack built is the one replayed.
constexpr int kSetups = 15;

/// Served requests per timed chunk of an untraced replay. Every rep of a
/// workload at one seed does the same work in chunk k, so run.py can take
/// each chunk's fastest time across reps and filter out host slowdowns
/// that do not last the whole run. A chunk takes a few milliseconds.
constexpr std::uint64_t kChunk = 2000;

std::uint64_t peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss);
}

void run_untraced(const Workload& w, Rep& rep) {
  std::string snapshot;  // the last one taken, checked after the replay
  for (const SimOptions& o : w.cells) {
    std::optional<Stack> stack;
    std::vector<std::int64_t> setup_ns;
    for (int k = 0; k < kSetups; ++k) {
      stack.reset();
      const std::int64_t b = now_ns();
      stack.emplace(w, o);
      setup_ns.push_back(now_ns() - b);
    }
    SimulationSession& session = *stack->session;
    const std::int64_t b = now_ns();
    std::int64_t chunk_begin = b;
    std::uint64_t chunk_end = kChunk;
    while (session.step()) {
      if (w.snapshot_every != 0 && session.served() % w.snapshot_every == 0) {
        SnapshotWriter sw;
        session.serialize(sw);
        snapshot = sw.take();
      }
      if (session.served() >= chunk_end) {
        const std::int64_t t = now_ns();
        rep.chunk_ns.push_back(t - chunk_begin);
        chunk_begin = t;
        chunk_end += kChunk;
      }
    }
    rep.results.push_back(session.finish());
    const std::int64_t e = now_ns();
    rep.chunk_ns.push_back(e - chunk_begin);
    rep.replay_ns += e - b;
    rep.setup_ns += quantile(setup_ns, 0.5);
    rep.requests += session.served();
  }
  rep.peak_rss_kb = peak_rss_kb();
  if (!snapshot.empty()) check_roundtrip(w, w.cells.back(), snapshot, rep);
}

// ---------------------------------------------------------------------------
// Traced repetition, single tenant: the stack driven directly.

struct StackTotals {
  Tally next, serve;
  std::array<Tally, TimedPolicy::kOps> policy{};
  Tally ftl_read, ftl_program, gc;
  std::vector<std::int64_t> serve_ns;  // per request, all cells
};

/// Replays one cell through Ftl + CacheManager with every public call
/// timed, and rebuilds the RunResult the session would have produced
/// (single tenant, no warmup, every subsystem off).
RunResult drive_cell(const Workload& w, const SimOptions& o, SpanLog& spans,
                     StackTotals& tot, Json& cell_layers,
                     std::uint64_t& request_index, std::int64_t& loop_ns) {
  auto source = std::make_unique<SyntheticTraceSource>(w.profile);
  TimedTraceSource trace(std::move(source), &spans);
  Profiler profiler(true);
  Ftl ftl(o.ssd);
  ftl.set_telemetry(nullptr, &profiler);
  auto timed = std::make_unique<TimedPolicy>(make_policy(o.policy), &spans);
  TimedPolicy& policy = *timed;
  CacheOptions co = o.cache;
  co.capacity_pages = o.policy.capacity_pages;
  CacheManager cache(co, std::move(timed), ftl);
  trace.reset();
  for (const auto& [begin, end] : trace.preexisting_ranges()) {
    ftl.add_preexisting_range(begin, end);
  }

  RunResult r;
  r.trace_name = trace.name();
  r.policy_name = cache.policy().name();
  r.cache_capacity_pages = co.capacity_pages;
  Tally serve;
  IoRequest req;
  const std::int64_t loop_begin = now_ns();
  for (;; ++request_index) {
    spans.begin_request(request_index);
    const bool sampled = spans.sampled();
    const std::uint32_t root = sampled ? spans.open() : 0;
    spans.set_parent(root);
    const std::int64_t t0 = sampled ? now_ns() : 0;
    if (!trace.next(req)) break;
    // The FTL's profiler sections have no public start times; in a
    // sampled request each is exported as one aggregate child span.
    static constexpr Profiler::Section kSections[3] = {
        Profiler::Section::kFtlRead, Profiler::Section::kFtlProgram,
        Profiler::Section::kGc};
    std::uint64_t ns_before[3] = {};
    std::uint64_t calls_before[3] = {};
    std::uint32_t serve_id = 0;
    if (sampled) {
      serve_id = spans.open();
      spans.set_parent(serve_id);
      for (int s = 0; s < 3; ++s) {
        ns_before[s] = profiler.total_ns(kSections[s]);
        calls_before[s] = profiler.calls(kSections[s]);
      }
    }
    const std::int64_t b = now_ns();
    const SimTime done = cache.serve(req);
    const std::int64_t e = now_ns();
    serve.add(e - b);
    tot.serve_ns.push_back(e - b);
    if (sampled) {
      static constexpr const char* kNames[3] = {"ssd.ftl_read",
                                                "ssd.ftl_program", "ssd.gc"};
      std::uint32_t program_id = serve_id;
      for (int s = 0; s < 3; ++s) {
        const std::uint64_t calls = profiler.calls(kSections[s]) -
                                    calls_before[s];
        if (calls == 0) continue;
        const auto d = static_cast<std::int64_t>(
            profiler.total_ns(kSections[s]) - ns_before[s]);
        const std::uint32_t id = spans.open();
        if (s == 1) program_id = id;
        spans.close(kNames[s], "ssd", id, s == 2 ? program_id : serve_id, b,
                    b + d, calls);
      }
      spans.close("cache.serve", "cache", serve_id, root, b, e);
      spans.close("request", "session", root, 0, t0, e);
    }
    const SimTime latency = done - req.arrival;
    r.response.record(latency);
    if (req.is_write()) {
      ++r.write_requests;
      r.write_response.record(latency);
    } else {
      ++r.read_requests;
      r.read_response.record(latency);
    }
    ++r.requests;
    r.sim_end = std::max(r.sim_end, done);
  }
  loop_ns += now_ns() - loop_begin;
  cache.finalize();
  r.cache = cache.metrics();
  r.flash = ftl.metrics();
  if (r.sim_end > 0) {
    double ch = 0.0, chip = 0.0;
    for (std::uint32_t c = 0; c < o.ssd.channels; ++c) {
      ch += static_cast<double>(ftl.channel_busy(c));
    }
    for (std::uint32_t c = 0; c < o.ssd.total_chips(); ++c) {
      chip += static_cast<double>(ftl.chip_busy(c));
    }
    const double span = static_cast<double>(r.sim_end);
    r.channel_utilization = ch / (span * o.ssd.channels);
    r.chip_utilization = chip / (span * o.ssd.total_chips());
  }

  const Tally pol = policy.total();
  cell_layers.num("policy." + o.policy.name + ".ns_per_req",
                  per(static_cast<double>(pol.ns), r.requests));
  cell_layers.num("cache." + o.policy.name + ".serve_ns_per_req",
                  per(static_cast<double>(serve.ns), r.requests));
  tot.next.merge(trace.next_tally());
  tot.serve.merge(serve);
  for (std::size_t op = 0; op < TimedPolicy::kOps; ++op) {
    tot.policy[op].merge(policy.tally(static_cast<TimedPolicy::Op>(op)));
  }
  auto section = [&](Profiler::Section s) {
    return Tally{profiler.calls(s),
                 static_cast<std::int64_t>(profiler.total_ns(s))};
  };
  tot.ftl_read.merge(section(Profiler::Section::kFtlRead));
  tot.ftl_program.merge(section(Profiler::Section::kFtlProgram));
  tot.gc.merge(section(Profiler::Section::kGc));
  if (o.policy.name == "reqblock") {
    cell_layers.u64("policy.metadata_bytes", policy.metadata_bytes());
  }
  return r;
}

/// Layer metrics shared by both traced paths, from the summed device and
/// cache counters of every cell and the total GC time.
void device_layers(const Rep& rep, const RunResult& main, double gc_ns,
                   Json& out) {
  std::uint64_t lookups = 0, evictions = 0, evicted = 0, bypass = 0;
  FlashMetrics f;
  for (const RunResult& r : rep.results) {
    lookups += r.cache.page_lookups;
    evictions += r.cache.evictions;
    evicted += r.cache.evicted_pages;
    bypass += r.cache.bypass_pages;
    f.host_page_reads += r.flash.host_page_reads;
    f.host_page_writes += r.flash.host_page_writes;
    f.gc_runs += r.flash.gc_runs;
    f.gc_page_moves += r.flash.gc_page_moves;
    f.erases += r.flash.erases;
  }
  out.num("cache.lookups_per_req", per(static_cast<double>(lookups),
                                       rep.requests))
      .u64("cache.evictions", evictions)
      .num("cache.pages_per_evict", per(static_cast<double>(evicted),
                                        evictions))
      .u64("cache.bypass_pages", bypass)
      .u64("ssd.page_reads", f.host_page_reads)
      .u64("ssd.page_writes", f.host_page_writes)
      .u64("ssd.gc_runs", f.gc_runs)
      .u64("ssd.gc_page_moves", f.gc_page_moves)
      .u64("ssd.erases", f.erases)
      .num("ssd.gc_ns_per_run", per(gc_ns, f.gc_runs))
      .num("ssd.chip_util", main.chip_utilization);
}

/// Index of the cell whose simulated results stand for the workload: the
/// reqblock cell of the sweep, the only cell elsewhere.
std::size_t main_cell(const Workload& w) {
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    if (w.cells[i].policy.name == "reqblock") return i;
  }
  return 0;
}

void run_traced_single(const Workload& w, Rep& rep, SpanLog& spans) {
  StackTotals tot;
  std::uint64_t request_index = 0;
  for (const SimOptions& o : w.cells) {
    rep.results.push_back(drive_cell(w, o, spans, tot, rep.layers,
                                     request_index, rep.replay_ns));
    rep.requests += rep.results.back().requests;
  }
  const double n = static_cast<double>(rep.requests);
  Tally policy;
  for (const Tally& t : tot.policy) policy.merge(t);
  const double policy_ns = static_cast<double>(policy.ns);
  // gc runs nested inside ftl_program; read and program are disjoint and
  // both nested inside serve, as are the policy hooks.
  const double ftl_ns = static_cast<double>(tot.ftl_read.ns +
                                            tot.ftl_program.ns - tot.gc.ns);
  const double gc_ns = static_cast<double>(tot.gc.ns);
  const double serve_ns = static_cast<double>(tot.serve.ns);
  rep.layers.num("trace.next_ns", tot.next.mean_ns())
      .num("cache.serve_ns_p50", static_cast<double>(
                                     quantile(tot.serve_ns, 0.5)))
      .num("cache.serve_ns_p999", static_cast<double>(
                                      quantile(tot.serve_ns, 0.999)))
      .num("cache.serve_ns_per_req", serve_ns / n)
      .num("cache.self_ns_per_req",
           (serve_ns - policy_ns - ftl_ns - gc_ns) / n)
      .num("policy.ns_per_req", policy_ns / n)
      .num("policy.begin_request_ns",
           tot.policy[TimedPolicy::kBegin].mean_ns())
      .num("policy.on_hit_ns", tot.policy[TimedPolicy::kHit].mean_ns())
      .num("policy.on_insert_ns", tot.policy[TimedPolicy::kInsert].mean_ns())
      .num("policy.select_victim_ns",
           tot.policy[TimedPolicy::kVictim].mean_ns())
      .num("policy.calls_per_req", static_cast<double>(policy.calls) / n)
      .num("ssd.ftl_read_ns", tot.ftl_read.mean_ns())
      .num("ssd.ftl_program_ns",
           per(static_cast<double>(tot.ftl_program.ns - tot.gc.ns),
               tot.ftl_program.calls))
      .num("ssd.ftl_ns_per_req", ftl_ns / n)
      .num("ssd.gc_ns_per_req", gc_ns / n);
  device_layers(rep, rep.results[main_cell(w)], gc_ns, rep.layers);
}

// ---------------------------------------------------------------------------
// Traced repetition, soak-full: the session with wrapped tenant streams.

void run_traced_soak(const Workload& w, Rep& rep, SpanLog& spans) {
  SimOptions o = w.cells.front();
  o.telemetry.profile = true;
  TenantStreams streams = make_tenant_streams(w.profile, o.tenants);
  std::vector<std::unique_ptr<TimedTraceSource>> timed;
  std::vector<TraceSource*> sources;
  for (auto& owned : streams.owned) {
    timed.push_back(std::make_unique<TimedTraceSource>(std::move(owned),
                                                       &spans));
    sources.push_back(timed.back().get());
  }
  SimulationSession session(o, sources);

  std::vector<std::int64_t> step_ns;
  Tally step, ser, deser;
  std::uint64_t snapshot_bytes = 0;
  std::int64_t roundtrip_ns = 0;
  const std::int64_t loop_begin = now_ns();
  for (std::uint64_t i = 0;; ++i) {
    spans.begin_request(i);
    const std::uint32_t root = spans.sampled() ? spans.open() : 0;
    spans.set_parent(root);
    const std::int64_t b = now_ns();
    const bool more = session.step();
    const std::int64_t e = now_ns();
    if (!more) break;
    step.add(e - b);
    step_ns.push_back(e - b);
    if (spans.sampled()) {
      spans.close("session.step", "session", root, 0, b, e);
    }
    if (session.served() % w.snapshot_every != 0) continue;
    const std::int64_t sb = now_ns();
    SnapshotWriter sw;
    session.serialize(sw);
    const std::int64_t se = now_ns();
    ser.add(se - sb);
    snapshot_bytes = sw.buffer().size();
    const std::int64_t d = check_roundtrip(w, o, sw.buffer(), rep);
    deser.add(d);
    roundtrip_ns += now_ns() - se;  // fresh-session set-up is not replay
    const std::uint32_t sid = spans.open();
    spans.close("snapshot.serialize", "snapshot", sid, 0, sb, se);
    spans.close("snapshot.deserialize", "snapshot", spans.open(), sid, se,
                se + d);
  }
  RunResult r = session.finish();
  rep.replay_ns = now_ns() - loop_begin - roundtrip_ns;
  rep.requests = session.served();

  // The session's own profiler sections: the cache and the FTL below it.
  std::array<Tally, Profiler::kSections> prof{};
  for (const ProfileReport::Entry& en : r.telemetry.profile.entries) {
    for (std::size_t s = 0; s < Profiler::kSections; ++s) {
      if (en.section == Profiler::name(static_cast<Profiler::Section>(s))) {
        prof[s] = {en.calls, static_cast<std::int64_t>(en.total_ns)};
      }
    }
  }
  auto sec = [&](Profiler::Section s) {
    return prof[static_cast<std::size_t>(s)];
  };
  const Tally serve_t = sec(Profiler::Section::kCacheServe);
  const Tally read_t = sec(Profiler::Section::kFtlRead);
  const Tally program_t = sec(Profiler::Section::kFtlProgram);
  Tally next;
  for (const auto& t : timed) next.merge(t->next_tally());
  const double n = static_cast<double>(rep.requests);
  const auto serve = static_cast<double>(serve_t.ns);
  const auto read = static_cast<double>(read_t.ns);
  const auto program = static_cast<double>(program_t.ns);
  const auto gc = static_cast<double>(sec(Profiler::Section::kGc).ns);
  const FaultMetrics& fm = r.fault;
  rep.layers.num("trace.next_ns", next.mean_ns())
      .num("cache.serve_ns_per_req", serve / n)
      .num("cache.self_ns_per_req", (serve - read - program) / n)
      .num("ssd.ftl_read_ns", read_t.mean_ns())
      .num("ssd.ftl_program_ns", program_t.mean_ns())
      .num("ssd.ftl_ns_per_req", (read + program) / n)
      .num("ssd.gc_ns_per_req", gc / n)
      .num("sim.step_ns_p50", static_cast<double>(quantile(step_ns, 0.5)))
      .num("sim.step_ns_p999", static_cast<double>(quantile(step_ns, 0.999)))
      .num("sim.self_ns_per_req",
           (static_cast<double>(step.ns - next.ns) - serve) / n)
      .u64("host.admitted", r.overload.admitted)
      .u64("host.sheds", r.overload.sheds)
      .u64("host.retries", r.overload.retries)
      .num("host.queue_wait_p99_us",
           static_cast<double>(r.queue_wait.p99()) / kMicrosecond)
      .u64("fault.program_faults", fm.program_faults)
      .u64("fault.ecc_corrected", fm.integrity.ecc_corrected)
      .u64("fault.retry_steps_total", fm.integrity.retry_steps_total)
      .u64("fault.parity_rebuilds", fm.integrity.parity_rebuilds)
      .u64("fault.uncorrectable", fm.integrity.uncorrectable)
      .u64("fault.patrol_scrubs", fm.integrity.patrol_scrubs)
      .num("snapshot.serialize_ms", ser.mean_ns() / 1e6)
      .num("snapshot.deserialize_ms", deser.mean_ns() / 1e6)
      .u64("snapshot.bytes", snapshot_bytes)
      .num("snapshot.ns_per_req", static_cast<double>(ser.ns) / n);
  rep.results.push_back(std::move(r));
  device_layers(rep, rep.results.front(), gc, rep.layers);
}

// ---------------------------------------------------------------------------

/// FNV-1a-64 over the results CSV (plus the tenant CSV when tenants ran).
std::string results_digest(const std::vector<RunResult>& results) {
  std::ostringstream csv;
  write_results_csv(csv, results);
  if (!results.empty() && !results.front().tenants.empty()) {
    write_tenant_csv(csv, results);
  }
  const std::string bytes = csv.str();
  return hex64(fnv1a64(bytes.data(), bytes.size()));
}

std::string cell_json(const RunResult& r) {
  return Json()
      .str("policy", r.policy_name)
      .u64("requests", r.requests)
      .u64("page_hits", r.cache.page_hits)
      .u64("page_lookups", r.cache.page_lookups)
      .u64("host_page_writes", r.flash.host_page_writes)
      .u64("gc_runs", r.flash.gc_runs)
      .u64("resp_count", r.response.count())
      .num("resp_mean_ns", r.response.mean())
      .u64("resp_p99_ns", static_cast<std::uint64_t>(r.response.p99()))
      .text();
}

int run(const ArgParser& args) {
  const std::string seed_arg = args.get_or("seed", "default");
  std::optional<std::uint64_t> seed;
  if (seed_arg != "default") seed = args.get_u64_strict("seed", 0);
  const bool smoke = args.has("smoke");
  const bool traced = args.has("traced");
  const Workload w = make_workload(args.get_or("workload", ""), seed, smoke);

  Rep rep;
  SpanLog spans(traced ? kSpanEvery : 0);
  const std::int64_t origin = now_ns();
  if (!traced) {
    run_untraced(w, rep);
  } else if (w.multi_tenant) {
    run_traced_soak(w, rep, spans);
  } else {
    run_traced_single(w, rep, spans);
  }
  if (const auto path = args.get("spans"); path && traced) {
    std::ofstream out(*path);
    spans.write_chrome(out, origin);
    if (!out) throw std::runtime_error("cannot write " + *path);
  }

  const RunResult& m = rep.results[main_cell(w)];
  const std::string failed =
      json_array(rep.failed_checks, [](const auto& check) {
        return Json().str("check", check.first).str("detail", check.second)
            .text();
      });
  const std::string chunks = json_array(
      rep.chunk_ns, [](std::int64_t ns) { return std::to_string(ns); });
  if (rep.peak_rss_kb == 0) rep.peak_rss_kb = peak_rss_kb();
  Json out;
  out.str("workload", w.name)
      .str("seed", seed_arg)
      .b("smoke", smoke)
      .b("traced", traced)
      .u64("requests", rep.requests)
      .num("setup_s", static_cast<double>(rep.setup_ns) / 1e9)
      .num("replay_s", static_cast<double>(rep.replay_ns) / 1e9)
      .u64("peak_rss_kb", rep.peak_rss_kb)
      .raw("chunks_ns", chunks)
      .str("digest", results_digest(rep.results))
      .raw("sim", Json()
                      .num("sim_hit_ratio", m.hit_ratio())
                      .num("sim_resp_mean_ms", m.mean_response_ms())
                      .num("sim_resp_p99_ms",
                           static_cast<double>(m.response.p99()) /
                               kMillisecond)
                      .num("sim_waf", m.flash.waf())
                      .u64("sim_flash_writes", m.flash.host_page_writes)
                      .text())
      .raw("cells", json_array(rep.results, cell_json))
      .raw("failed_checks", failed);
  if (traced) out.raw("layers", rep.layers.text());
  std::cout << out.text() << std::endl;
  return 0;
}

}  // namespace
}  // namespace reqblock::perfbench

int main(int argc, char** argv) try {
  return reqblock::perfbench::run(reqblock::ArgParser(argc, argv));
} catch (const std::exception& e) {
  std::cerr << "bench_rep: " << e.what() << "\n";
  return 1;
}
