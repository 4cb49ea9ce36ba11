#include "sim/session.h"

#include <algorithm>
#include <string>
#include <utility>

#include "cache/cflru.h"
#include "cache/vbbms.h"
#include "core/req_block_policy.h"
#include "snapshot/snapshot.h"
#include "util/audit.h"
#include "util/check.h"

namespace reqblock {

std::uint64_t config_fingerprint(const SimOptions& o) {
  Fingerprint fp;
  fp.add_string("sim_options");
  const SsdConfig& s = o.ssd;
  fp.add(s.channels);
  fp.add(s.chips_per_channel);
  fp.add(s.planes_per_chip);
  fp.add(s.pages_per_block);
  fp.add(s.page_size);
  fp.add(s.capacity_bytes);
  fp.add_i64(s.read_latency);
  fp.add_i64(s.program_latency);
  fp.add_i64(s.erase_latency);
  fp.add_i64(s.transfer_per_byte);
  fp.add_i64(s.command_overhead);
  fp.add_i64(s.cache_access_latency);
  fp.add_double(s.gc_free_threshold);
  fp.add(static_cast<std::uint64_t>(s.gc_victim_policy));
  fp.add(s.gc_wear_tie_margin);
  const CacheOptions& c = o.cache;
  fp.add(c.capacity_pages);
  fp.add_bool(c.cache_reads);
  // Constants that were options: the oracle check (always on), the two
  // instrumentation settings, and below VBBMS's options and CFLRU's window.
  // Their values keep the options' positions, so stored fingerprints hold.
  fp.add_bool(true);
  fp.add(kMetadataSampleInterval);
  fp.add(kMaxTrackedRequestPages);
  const PolicyConfig& p = o.policy;
  fp.add_string(p.name);
  fp.add(p.capacity_pages);
  fp.add(p.pages_per_block);
  fp.add(p.reqblock.delta);
  fp.add_bool(p.reqblock.merge_on_evict);
  fp.add(static_cast<std::uint64_t>(p.reqblock.freq_mode));
  fp.add_bool(p.reqblock.colocate_flush);
  const VbbmsOptions vbbms;
  fp.add_double(vbbms.random_fraction);
  fp.add(vbbms.random_vb_pages);
  fp.add(vbbms.seq_vb_pages);
  fp.add(vbbms.seq_request_threshold);
  fp.add_bool(p.bplru.page_padding);
  fp.add_bool(p.bplru.block_unit_allocation);
  fp.add_double(kCflruWindow);
  fp.add(o.occupancy_log_interval);
  fp.add(o.max_requests);
  fp.add(o.warmup_requests);
  // The option blocks walk their knob tables. A gated block folds in only
  // when it can alter a run, so fingerprints stored before it existed stay
  // valid.
  fingerprint_knobs(kFaultKnobs, o.fault, fp);
  if (o.fault.aging.enabled()) {
    fp.add_string("aging");
    fingerprint_knobs(kAgingKnobs, o.fault.aging, fp);
  }
  if (o.fault.integrity.enabled()) {
    fp.add_string("integrity");
    fingerprint_knobs(kIntegrityKnobs, o.fault.integrity, fp);
  }
  fingerprint_knobs(kOverloadKnobs, o.overload, fp);
  fingerprint_knobs(kTelemetryKnobs, o.telemetry, fp);
  const TenantOptions& tn = o.tenants;
  if (tn.enabled()) {
    fp.add_string("tenants");
    fingerprint_knobs(kTenantKnobs, tn, fp);
    for (std::uint32_t i = 0; i < tn.count; ++i) {
      fingerprint_knobs(kTenantSpecKnobs, tn.spec(i), fp);
    }
  }
  return fp.value();
}

SimulationSession::SimulationSession(SimOptions options, TraceSource& trace)
    : options_(std::move(options)) {
  REQB_CHECK_MSG(options_.tenants.count <= 1,
                 "multi-tenant session needs one trace source per tenant");
  init({&trace});
}

SimulationSession::SimulationSession(SimOptions options,
                                     const std::vector<TraceSource*>& traces)
    : options_(std::move(options)) {
  REQB_CHECK_MSG(options_.tenants.count == traces.size(),
                 "tenant count and trace source count must agree");
  init(traces);
}

void SimulationSession::init(const std::vector<TraceSource*>& traces) {
  REQB_CHECK_MSG(!traces.empty(), "session needs at least one trace source");
  prepare_sim_options(options_);
  config_hash_ = config_fingerprint(options_);
  const bool multi = traces.size() > 1;
  if (multi) {
    Fingerprint fp;
    fp.add_string("tenant_traces");
    fp.add(traces.size());
    for (const TraceSource* t : traces) fp.add(t->identity_hash());
    trace_hash_ = fp.value();
  } else {
    trace_hash_ = traces.front()->identity_hash();
  }

  // REQB_LINT_ALLOW(no-wallclock): wall_seconds is operator telemetry;
  // it is excluded from checkpoints, CSVs and the config fingerprint.
  wall_start_ = std::chrono::steady_clock::now();
  ftl_ = std::make_unique<Ftl>(options_.ssd);
  CacheOptions cache_opts = options_.cache;
  cache_opts.capacity_pages = options_.policy.capacity_pages;
  if (options_.overload.bg_flush_enabled()) {
    cache_opts.bg_flush_high_pages =
        options_.overload.high_pages(cache_opts.capacity_pages);
    cache_opts.bg_flush_low_pages =
        options_.overload.low_pages(cache_opts.capacity_pages);
  }
  cache_ = std::make_unique<CacheManager>(cache_opts,
                                          make_policy(options_.policy), *ftl_);
  req_block_ = dynamic_cast<ReqBlockPolicy*>(&cache_->policy());
  if (options_.fault.enabled()) {
    fault_ = std::make_unique<FaultInjector>(options_.fault);
    ftl_->set_fault_injector(fault_.get());
  }
  telemetry_ = std::make_unique<Telemetry>(options_.telemetry);
  cache_->set_telemetry(&telemetry_->trace(), &telemetry_->profiler());
  ftl_->set_telemetry(&telemetry_->trace(), &telemetry_->profiler());

  // Namespace slices: with N tenants the logical space splits into N
  // equal, block-aligned, disjoint ranges (NVMe namespaces). The single
  // tenant keeps the identity mapping (span 0), bit-identical to the
  // historical front end.
  Lpn span = 0;
  if (multi) {
    const Lpn per_tenant = options_.ssd.total_pages() /
                           static_cast<Lpn>(traces.size());
    span = per_tenant - per_tenant % options_.ssd.pages_per_block;
    REQB_CHECK_MSG(span >= options_.ssd.pages_per_block,
                   "device too small for this many tenant namespaces");
  }
  tenants_.resize(traces.size());
  for (std::size_t i = 0; i < traces.size(); ++i) {
    Tenant& t = tenants_[i];
    t.trace = traces[i];
    t.lpn_span = span;
    t.lpn_base = span * static_cast<Lpn>(i);
    t.queue = std::make_unique<HostAdmissionQueue>(options_.overload);
    t.queue->set_trace(&telemetry_->trace());
    t.queue->set_tenant(static_cast<std::uint16_t>(i));
    t.acct.name = "t";
    t.acct.name += std::to_string(i);
    t.trace->reset();
    for (const auto& [begin, end] : t.trace->preexisting_ranges()) {
      if (span == 0) {
        ftl_->add_preexisting_range(begin, end);
      } else {
        // Fold the range into the tenant's slice the same way requests
        // fold (clamped at the slice end).
        const Lpn b = t.lpn_base + begin % span;
        const Lpn e = std::min(t.lpn_base + span, b + (end - begin));
        ftl_->add_preexisting_range(b, e);
      }
    }
  }
  arbiter_ = make_arbiter(options_.tenants.arbiter, options_.tenants.weights(),
                          options_.tenants.drr_quantum_pages);
  ready_.reserve(tenants_.size());

  if (multi) {
    // "usr_0#t0" + 3 tenants -> "usr_0x3": one stable label per run.
    std::string base = tenants_.front().trace->name();
    const std::string suffix = "#t0";
    if (base.size() > suffix.size() &&
        base.compare(base.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      base.resize(base.size() - suffix.size());
    }
    result_.trace_name = base + "x" + std::to_string(tenants_.size());
  } else {
    result_.trace_name = tenants_.front().trace->name();
  }
  result_.policy_name = cache_->policy().name();
  result_.cache_capacity_pages = cache_opts.capacity_pages;
  if (options_.telemetry.snapshots_enabled()) {
    cache_->register_metrics(telemetry_->registry());
    ftl_->register_metrics(telemetry_->registry());
    result_.telemetry.snapshots.columns = telemetry_->registry().names();
  }
  if (options_.telemetry.attribution) result_.attribution.prepare();
  next_snap_ns_ = options_.telemetry.snapshot_every_ns;
  warmup_channel_busy_.assign(options_.ssd.channels, 0);
  warmup_chip_busy_.assign(options_.ssd.total_chips(), 0);
}

std::size_t SimulationSession::queue_in_flight() const {
  std::size_t total = 0;
  for (const Tenant& t : tenants_) total += t.queue->in_flight();
  return total;
}

std::vector<std::size_t> SimulationSession::tenant_queue_depths() const {
  std::vector<std::size_t> depths;
  depths.reserve(tenants_.size());
  for (const Tenant& t : tenants_) depths.push_back(t.queue->in_flight());
  return depths;
}

void SimulationSession::take_snapshot() {
  const ScopedTimer timer(&telemetry_->profiler(),
                          Profiler::Section::kSnapshot);
  result_.telemetry.snapshots.rows.push_back(
      {result_.requests, result_.sim_end, telemetry_->registry().sample()});
}

void SimulationSession::end_warmup() {
  warmup_done_ = true;
  if (result_.warmup_requests == 0) return;
  cache_->reset_metrics();
  ftl_->reset_metrics();
  if (fault_ != nullptr) fault_->reset_metrics();
  for (Tenant& t : tenants_) {
    t.queue->reset_metrics();
    TenantResult fresh;
    fresh.name = t.acct.name;
    t.acct = std::move(fresh);
  }
  telemetry_->trace().clear();
  telemetry_->profiler().clear();
  for (std::uint32_t c = 0; c < options_.ssd.channels; ++c) {
    warmup_channel_busy_[c] = ftl_->channel_busy(c);
  }
  for (std::uint32_t c = 0; c < options_.ssd.total_chips(); ++c) {
    warmup_chip_busy_[c] = ftl_->chip_busy(c);
  }
  warmup_end_ = last_warmup_arrival_;
}

std::size_t SimulationSession::select_tenant() {
  // Top up every queue's head so arbitration sees the full picture.
  SimTime min_arrival = 0;
  bool any = false;
  for (Tenant& t : tenants_) {
    if (!t.head_valid && !t.exhausted) {
      if (t.trace->next(t.head)) {
        t.head_valid = true;
      } else {
        t.exhausted = true;
      }
    }
    if (t.head_valid && (!any || t.head.arrival < min_arrival)) {
      min_arrival = t.head.arrival;
      any = true;
    }
  }
  if (!any) return kNoTenant;
  // An idle device fast-forwards the arbitration clock to the earliest
  // pending arrival; a busy one arbitrates among everything that arrived
  // while it worked (the completion frontier set by serve paths).
  if (min_arrival > arb_now_) arb_now_ = min_arrival;
  ready_.clear();
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    const Tenant& t = tenants_[i];
    if (t.head_valid && t.head.arrival <= arb_now_) {
      ready_.push_back({static_cast<std::uint32_t>(i), t.head.pages});
    }
  }
  const std::size_t pick = arbiter_->pick(ready_);
  return ready_[pick].tenant;
}

void SimulationSession::apply_namespace(const Tenant& t,
                                        IoRequest& req) const {
  if (t.lpn_span == 0) return;
  req.lpn = t.lpn_base + req.lpn % t.lpn_span;
  const Lpn room = t.lpn_base + t.lpn_span - req.lpn;
  if (req.pages > room) req.pages = static_cast<std::uint32_t>(room);
}

SimulationSession::ServeOutcome SimulationSession::serve_request(
    IoRequest& req, Tenant& t) {
  // A request arriving while the device recovers from a power loss waits;
  // its latency still counts from the original arrival, so the downtime
  // shows up in the response distribution.
  ServeOutcome out;
  const bool attribute = options_.telemetry.attribution;
  out.host_arrival = req.arrival;
  // A shed request ends at its last attempt, which moves the arbitration
  // clock like a completion does.
  const auto shed_at = [&](SimTime at) {
    out.shed = true;
    out.service_start = at;
    out.done = at;
    if (at > arb_now_) arb_now_ = at;
    return out;
  };
  if (req.arrival < resume_at_) {
    // Waiting out power-loss recovery is fault time by definition.
    out.bd[AttrComponent::kFaultRetry] = resume_at_ - req.arrival;
    req.arrival = resume_at_;
  }
  // End-of-life read-mostly mode: an aged-out device sheds host writes
  // (reads still serve) instead of driving the allocator into an assert.
  // The drop reuses the admission shed path — the request consumed its
  // trace slot and counts as an arrival but never completes — and counts
  // in FaultMetrics::degraded_write_sheds rather than the queue's sheds,
  // keeping the overload identity (timeouts == retries + sheds) intact.
  if (fault_ != nullptr && options_.fault.aging.enabled() && req.is_write() &&
      ftl_->update_degraded_mode(req.arrival)) {
    ++fault_->metrics().degraded_write_sheds;
    return shed_at(req.arrival);
  }
  // GC-pressure throttle: stretch host writes deterministically when the
  // fullest plane nears the collection threshold, before they compete for
  // a queue slot.
  if (options_.overload.throttle && req.is_write()) {
    const SimTime delay = options_.overload.throttle_delay(
        ftl_->gc_pressure_level(options_.overload.throttle_headroom_blocks));
    if (delay > 0) {
      t.queue->note_throttle(req.arrival, delay);
      req.arrival += delay;
      out.bd[AttrComponent::kThrottle] = delay;
    }
  }
  const HostAdmissionQueue::Admission adm = t.queue->admit(req.arrival);
  if (!adm.admitted) return shed_at(adm.admit_at);
  req.arrival = adm.admit_at;
  out.wait = adm.wait;
  out.service_start = adm.admit_at;
  out.bd[AttrComponent::kQueueWait] = adm.wait;
  bool data_lost = false;
  out.done = cache_->serve(req, attribute ? &out.bd : nullptr, &data_lost);
  t.queue->complete(out.done);
  // A read that hit an uncorrectable page already paid the full recovery
  // cost on the device; the plan decides what the host sees. Shed: the
  // failure is reported out-of-band (counted in host_reads_lost, kept out
  // of the response histograms). Error (default): the read completes as a
  // host-visible error and stays in the distributions.
  if (data_lost && options_.fault.integrity.uncorrectable_shed) {
    out.shed = true;
  }
  // The completion frontier drives multi-queue eligibility: every head
  // that arrived before this completion now competes for service.
  if (out.done > arb_now_) arb_now_ = out.done;
  if (attribute) {
    // The tentpole invariant: the component spans tile [host_arrival,
    // done] exactly, in integer sim-ns, for every request (warmup
    // included — the decomposition must hold everywhere, not just where
    // it is recorded).
    run_audit("Attribution", AuditLevel::kFull, [&](AuditReport& rep) {
      REQB_AUDIT_MSG(rep, out.bd.sum() == out.done - out.host_arrival,
                     "breakdown sums to " + std::to_string(out.bd.sum()) +
                         " ns, end-to-end latency is " +
                         std::to_string(out.done - out.host_arrival) + " ns");
    });
  }
  return out;
}

void SimulationSession::close_request(SimTime done, bool measured) {
  ++served_;
  if (fault_ != nullptr && fault_->power_loss_due(served_)) {
    resume_at_ = cache_->power_loss(done, *fault_);
    for (Tenant& t : tenants_) t.queue->on_power_loss(done, resume_at_);
    if (measured) result_.sim_end = std::max(result_.sim_end, resume_at_);
  }
  // The patrol scrub rides the idle window after the completion, like the
  // watermark flusher and the aging refreshes: it delays future requests,
  // never this one. Cadence on the checkpointed served_ makes the schedule
  // deterministic and resumable.
  const std::uint64_t every = options_.fault.integrity.scrub_every_requests;
  if (fault_ != nullptr && every != 0 && served_ % every == 0) {
    ftl_->patrol_scrub(std::max(done, resume_at_));
  }
}

void SimulationSession::serve_measured(IoRequest& req, Tenant& t) {
  const ServeOutcome out = serve_request(req, t);
  const bool multi = tenants_.size() > 1;
  // A shed request still counts as an arrival (it consumed a trace slot
  // and a queue attempt) but never completes, so it stays out of the
  // response histograms.
  ++(req.is_write() ? result_.write_requests : result_.read_requests);
  if (multi) {
    ++t.acct.requests;
    ++(req.is_write() ? t.acct.write_requests : t.acct.read_requests);
  }
  if (!out.shed) {
    if (options_.overload.queue_enabled()) {
      result_.queue_wait.record(out.wait);
    }
    const SimTime latency = out.done - out.host_arrival;
    result_.response.record(latency);
    (req.is_write() ? result_.write_response : result_.read_response)
        .record(latency);
    if (multi) {
      t.acct.response.record(latency);
      if (options_.overload.queue_enabled()) {
        t.acct.queue_wait.record(out.wait);
      }
    }
    if (options_.telemetry.attribution) {
      result_.attribution.record(out.bd, latency);
      if (multi) {
        ++t.acct.attr_requests;
        for (std::size_t c = 0; c < kAttrComponents; ++c) {
          t.acct.attr_ns[c] += static_cast<std::uint64_t>(out.bd.ns[c]);
        }
      }
      // Span tree for Perfetto: the nonzero components tile
      // [host_arrival, done] in enum order, one lane per component.
      SimTime cursor = out.host_arrival;
      for (std::size_t c = 0; c < kAttrComponents; ++c) {
        const SimTime span = out.bd.ns[c];
        if (span == 0) continue;
        telemetry_->trace().emit({cursor, span, req.lpn, result_.requests,
                                  EventKind::kAttrSpan,
                                  static_cast<std::uint16_t>(c), 0});
        cursor += span;
      }
    }
  }
  ++result_.requests;
  result_.sim_end = std::max(result_.sim_end, out.done);
  close_request(out.done, /*measured=*/true);

  if (req_block_ != nullptr && options_.occupancy_log_interval != 0 &&
      result_.requests % options_.occupancy_log_interval == 0) {
    result_.occupancy_series.push_back(req_block_->occupancy());
  }
  if (options_.telemetry.snapshots_enabled()) {
    const std::uint64_t snap_requests =
        options_.telemetry.snapshot_every_requests;
    const SimTime snap_ns = options_.telemetry.snapshot_every_ns;
    bool due = snap_requests != 0 && result_.requests % snap_requests == 0;
    if (snap_ns != 0 && result_.sim_end >= next_snap_ns_) {
      due = true;
      while (next_snap_ns_ <= result_.sim_end) next_snap_ns_ += snap_ns;
    }
    if (due) take_snapshot();
  }
}

bool SimulationSession::step() {
  REQB_CHECK_MSG(!finalized_, "step() after finish()");
  if (finished_) return false;
  const std::size_t picked = select_tenant();
  if (picked == kNoTenant) {
    // Every trace exhausted. If that happened inside warmup, close the
    // warmup bookkeeping; the measured phase would see no requests.
    if (!warmup_done_) end_warmup();
    finished_ = true;
    return false;
  }
  Tenant& t = tenants_[picked];
  IoRequest req = t.head;
  t.head_valid = false;
  apply_namespace(t, req);
  if (!warmup_done_) {
    if (result_.warmup_requests < options_.warmup_requests) {
      const ServeOutcome out = serve_request(req, t);
      ++result_.warmup_requests;
      last_warmup_arrival_ = out.service_start;
      close_request(out.done, /*measured=*/false);
      if (result_.warmup_requests >= options_.warmup_requests) end_warmup();
      return true;
    }
    end_warmup();  // no warmup configured
  }
  if (options_.max_requests != 0 &&
      result_.requests >= options_.max_requests) {
    // Keeps the historical loop shape: the request that trips the cap was
    // already consumed from the trace and is dropped.
    finished_ = true;
    return false;
  }
  serve_measured(req, t);
  return true;
}

RunResult SimulationSession::finish() {
  REQB_CHECK_MSG(!finalized_, "finish() called twice");
  finalized_ = true;
  cache_->finalize();
  // Per-request cache audits run inside CacheManager::serve; the deep
  // device audit is O(mapped pages), so it runs once per replay here.
  run_audit("Ftl (end of run)", AuditLevel::kFull,
            [&](AuditReport& r) { ftl_->audit(r); });

  result_.cache = cache_->metrics();
  result_.flash = ftl_->metrics();
  if (fault_ != nullptr) result_.fault = fault_->metrics();
  // The global overload view sums the per-tenant queues (exactly the
  // single queue's metrics when there is one tenant).
  OverloadMetrics total;
  for (const Tenant& t : tenants_) {
    add_fields(kOverloadMetricsFields, total, t.queue->metrics());
  }
  total.enabled = options_.overload.enabled();
  result_.overload = total;
  if (tenants_.size() > 1) {
    result_.tenants.clear();
    for (const Tenant& t : tenants_) {
      TenantResult tr = t.acct;
      tr.overload = t.queue->metrics();
      tr.overload.enabled = options_.overload.enabled();
      result_.tenants.push_back(std::move(tr));
    }
  }
  if (telemetry_->trace().any_enabled()) {
    result_.telemetry.events = telemetry_->trace().drain();
    result_.telemetry.events_emitted = telemetry_->trace().emitted();
    result_.telemetry.events_dropped = telemetry_->trace().dropped();
    result_.telemetry.events_sampled_out = telemetry_->trace().sampled_out();
  }
  result_.telemetry.profile = profile_report(telemetry_->profiler());
  if (result_.sim_end > warmup_end_) {
    double ch_busy = 0.0, chip_busy = 0.0;
    for (std::uint32_t c = 0; c < options_.ssd.channels; ++c) {
      ch_busy += static_cast<double>(ftl_->channel_busy(c) -
                                     warmup_channel_busy_[c]);
    }
    for (std::uint32_t c = 0; c < options_.ssd.total_chips(); ++c) {
      chip_busy +=
          static_cast<double>(ftl_->chip_busy(c) - warmup_chip_busy_[c]);
    }
    const double span = static_cast<double>(result_.sim_end - warmup_end_);
    result_.channel_utilization = ch_busy / (span * options_.ssd.channels);
    result_.chip_utilization = chip_busy / (span * options_.ssd.total_chips());
  }
  // REQB_LINT_ALLOW(no-wallclock): see wall_start_ — operator telemetry.
  result_.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start_)
          .count();
  return std::move(result_);
}

void SimulationSession::serialize(SnapshotWriter& w) const {
  REQB_CHECK_MSG(!finalized_, "serialize() after finish()");
  w.tag("session");
  w.u64(served_);
  w.u64(result_.warmup_requests);
  w.b(warmup_done_);
  w.b(finished_);
  w.i64(resume_at_);
  w.i64(next_snap_ns_);
  w.i64(last_warmup_arrival_);
  w.i64(warmup_end_);
  w.i64(arb_now_);
  for (const auto* busy : {&warmup_channel_busy_, &warmup_chip_busy_}) {
    w.u64(busy->size());
    for (const SimTime t : *busy) w.i64(t);
  }

  // Partial result accumulators.
  w.tag("partial_result");
  write_fields(kRunRequestFields, result_, w);
  w.i64(result_.sim_end);
  w.u64(result_.occupancy_series.size());
  for (const ListOccupancy& occ : result_.occupancy_series) {
    write_fields(kListOccupancyFields, occ, w);
  }
  result_.telemetry.snapshots.serialize(w);
  result_.attribution.serialize(w);

  // Per-tenant front end: trace cursor, pre-pulled head (the cursor has
  // already advanced past it, so it must travel with the snapshot),
  // admission queue, and accounting — then the arbiter's dynamic state.
  w.tag("tenants");
  w.u64(tenants_.size());
  for (const Tenant& t : tenants_) {
    w.tag("tenant");
    w.b(t.head_valid);
    w.b(t.exhausted);
    w.u64(t.head.id);
    w.i64(t.head.arrival);
    w.u8(static_cast<std::uint8_t>(t.head.type));
    w.u64(t.head.lpn);
    w.u64(t.head.pages);
    t.acct.serialize(w);
    t.queue->serialize(w);
    t.trace->serialize(w);
  }
  arbiter_->serialize(w);

  // Layers, outermost first.
  cache_->serialize(w);
  ftl_->serialize(w);
  w.b(fault_ != nullptr);
  if (fault_ != nullptr) fault_->serialize(w);
  telemetry_->trace().serialize(w);
}

void SimulationSession::deserialize(SnapshotReader& r) {
  REQB_CHECK_MSG(served_ == 0 && !finalized_,
                 "deserialize into a non-fresh session");
  r.tag("session");
  served_ = r.u64();
  result_.warmup_requests = r.u64();
  warmup_done_ = r.b();
  finished_ = r.b();
  resume_at_ = r.i64();
  next_snap_ns_ = r.i64();
  last_warmup_arrival_ = r.i64();
  warmup_end_ = r.i64();
  arb_now_ = r.i64();
  for (const auto& [busy, what] : {std::pair{&warmup_channel_busy_, "channel"},
                                   std::pair{&warmup_chip_busy_, "chip"}}) {
    if (r.u64() != busy->size()) {
      throw SnapshotError(std::string("session snapshot has a different ") +
                          what + " count");
    }
    for (SimTime& t : *busy) t = r.i64();
  }

  r.tag("partial_result");
  read_fields(kRunRequestFields, result_, r);
  result_.sim_end = r.i64();
  result_.occupancy_series.assign(r.count(48), ListOccupancy{});
  for (ListOccupancy& occ : result_.occupancy_series) {
    read_fields(kListOccupancyFields, occ, r);
  }
  result_.telemetry.snapshots.deserialize(r);
  result_.attribution.deserialize(r);
  if (result_.attribution.enabled != options_.telemetry.attribution) {
    throw SnapshotError(
        "session snapshot disagrees about latency attribution being on");
  }

  r.tag("tenants");
  if (r.u64() != tenants_.size()) {
    throw SnapshotError("session snapshot has a different tenant count");
  }
  for (Tenant& t : tenants_) {
    r.tag("tenant");
    t.head_valid = r.b();
    t.exhausted = r.b();
    t.head.id = r.u64();
    t.head.arrival = r.i64();
    const std::uint8_t type = r.u8();
    if (type > static_cast<std::uint8_t>(IoType::kWrite)) {
      throw SnapshotError("tenant snapshot has an unknown request type");
    }
    t.head.type = static_cast<IoType>(type);
    t.head.lpn = r.u64();
    t.head.pages = static_cast<std::uint32_t>(r.u64());
    t.acct.deserialize(r);
    t.queue->deserialize(r);
    t.trace->deserialize(r);
  }
  arbiter_->deserialize(r);

  cache_->deserialize(r);
  ftl_->deserialize(r);
  const bool had_fault = r.b();
  if (had_fault != (fault_ != nullptr)) {
    throw SnapshotError(
        "session snapshot disagrees about fault injection being wired");
  }
  if (fault_ != nullptr) fault_->deserialize(r);
  telemetry_->trace().deserialize(r);
}

}  // namespace reqblock
