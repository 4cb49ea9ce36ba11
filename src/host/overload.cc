#include "host/overload.h"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>

#include "snapshot/snapshot.h"
#include "util/check.h"

namespace reqblock {

void OverloadOptions::validate() const {
  check_knobs(kOverloadKnobs, *this);
  if (bg_flush_high > 0.0 && bg_flush_low > bg_flush_high) {
    throw std::invalid_argument(
        "bg-flush low watermark " + std::to_string(bg_flush_low) +
        " exceeds high watermark " + std::to_string(bg_flush_high));
  }
  if (timeout_action == TimeoutAction::kRetry && retry_backoff_ns <= 0) {
    throw std::invalid_argument("retry semantics need a positive backoff");
  }
  if (throttle && throttle_headroom_blocks == 0) {
    throw std::invalid_argument("throttle headroom must be >= 1 block");
  }
  if (throttle && throttle_max_delay_ns < 0) {
    throw std::invalid_argument("throttle delay must be non-negative");
  }
}

void OverloadOptions::apply_cli(const ArgParser& args) {
  apply_knobs(kOverloadKnobs, *this, args);
  if (args.has("queue-retries")) {
    timeout_action =
        max_retries > 0 ? TimeoutAction::kRetry : TimeoutAction::kShed;
  }
}

std::uint64_t OverloadOptions::high_pages(
    std::uint64_t capacity_pages) const {
  return static_cast<std::uint64_t>(
      bg_flush_high * static_cast<double>(capacity_pages));
}

std::uint64_t OverloadOptions::low_pages(std::uint64_t capacity_pages) const {
  return static_cast<std::uint64_t>(
      bg_flush_low * static_cast<double>(capacity_pages));
}

SimTime OverloadOptions::throttle_delay(std::uint64_t pressure_level) const {
  if (!throttle || pressure_level == 0) return 0;
  const std::uint64_t headroom = throttle_headroom_blocks;
  const std::uint64_t level = std::min<std::uint64_t>(pressure_level,
                                                      headroom);
  return static_cast<SimTime>(
      (static_cast<std::uint64_t>(throttle_max_delay_ns) * level) / headroom);
}

void OverloadMetrics::serialize(SnapshotWriter& w) const {
  w.tag("overload_metrics");
  write_fields(kOverloadMetricsFields, *this, w);
}

void OverloadMetrics::deserialize(SnapshotReader& r) {
  r.tag("overload_metrics");
  read_fields(kOverloadMetricsFields, *this, r);
}

HostAdmissionQueue::HostAdmissionQueue(const OverloadOptions& options)
    : options_(options) {
  options_.validate();
  metrics_.enabled = options_.enabled();
  slots_.reserve(options_.queue_depth);
}

SimTime HostAdmissionQueue::pop_earliest() {
  const SimTime earliest = slots_.front();
  std::pop_heap(slots_.begin(), slots_.end(), std::greater<SimTime>());
  slots_.pop_back();
  return earliest;
}

HostAdmissionQueue::Admission HostAdmissionQueue::admit(SimTime arrival) {
  Admission adm;
  adm.admit_at = arrival;
  if (options_.queue_depth == 0) return adm;

  // Free the slots of commands that completed before this arrival.
  while (!slots_.empty() && slots_.front() <= arrival) pop_earliest();
  if (slots_.size() < options_.queue_depth) {
    ++metrics_.admitted;
    if (trace_ != nullptr) {
      trace_->emit({arrival, 0, 0, slots_.size() + 1,
                    EventKind::kQueueEnqueue, kTrackHost, tenant_});
    }
    return adm;
  }

  // Full: the request must wait for the earliest in-flight completion.
  // The deadline applies per attempt (NVMe-style command timeout with
  // host-driven resubmission); a backoff round re-measures the wait from
  // the new attempt time, so a retried request either squeezes under the
  // deadline as the backlog drains or exhausts its budget and is shed.
  const SimTime earliest = slots_.front();
  SimTime attempt = arrival;
  std::uint32_t rounds = 0;
  for (;;) {
    const SimTime wait = earliest > attempt ? earliest - attempt : 0;
    if (options_.deadline_ns == 0 || wait <= options_.deadline_ns) {
      pop_earliest();
      adm.admit_at = std::max(attempt, earliest);
      adm.wait = adm.admit_at - arrival;
      ++metrics_.admitted;
      if (adm.wait > 0) ++metrics_.queued_waits;
      metrics_.queue_wait_total += adm.wait;
      if (trace_ != nullptr) {
        trace_->emit({arrival, adm.wait, 0, slots_.size() + 1,
                      EventKind::kQueueEnqueue, kTrackHost, tenant_});
      }
      return adm;
    }
    ++metrics_.timeouts;
    if (trace_ != nullptr) {
      trace_->emit({attempt, wait - options_.deadline_ns, 0, rounds,
                    EventKind::kQueueTimeout, kTrackHost, tenant_});
    }
    if (options_.timeout_action != TimeoutAction::kRetry ||
        rounds >= options_.max_retries) {
      ++metrics_.sheds;
      adm.admitted = false;
      adm.admit_at = attempt;
      adm.wait = 0;
      return adm;
    }
    ++metrics_.retries;
    ++rounds;
    attempt += options_.retry_backoff_ns;
  }
}

void HostAdmissionQueue::complete(SimTime done) {
  if (options_.queue_depth == 0) return;
  REQB_CHECK_MSG(slots_.size() < options_.queue_depth,
                 "completion recorded without an admission");
  slots_.push_back(done);
  std::push_heap(slots_.begin(), slots_.end(), std::greater<SimTime>());
}

void HostAdmissionQueue::on_power_loss(SimTime at, SimTime resume_at) {
  REQB_CHECK(resume_at >= at);
  bool changed = false;
  for (SimTime& s : slots_) {
    if (s > at) {
      s = resume_at;
      changed = true;
    }
  }
  if (changed) {
    std::make_heap(slots_.begin(), slots_.end(), std::greater<SimTime>());
  }
}

void HostAdmissionQueue::note_throttle(SimTime at, SimTime delay) {
  ++metrics_.throttle_events;
  metrics_.throttle_delay_total += delay;
  if (trace_ != nullptr) {
    trace_->emit(
        {at, delay, 0, 0, EventKind::kThrottle, kTrackHost, tenant_});
  }
}

void HostAdmissionQueue::reset_metrics() {
  const bool enabled = metrics_.enabled;
  metrics_ = OverloadMetrics{};
  metrics_.enabled = enabled;
}

void HostAdmissionQueue::set_trace(TraceBuffer* trace) {
  trace_ = trace != nullptr && trace->enabled(EventCategory::kCache)
               ? trace
               : nullptr;
}

void HostAdmissionQueue::serialize(SnapshotWriter& w) const {
  w.tag("host_queue");
  std::vector<SimTime> sorted = slots_;
  std::sort(sorted.begin(), sorted.end());
  w.u64(sorted.size());
  for (const SimTime s : sorted) w.i64(s);
  metrics_.serialize(w);
}

void HostAdmissionQueue::deserialize(SnapshotReader& r) {
  r.tag("host_queue");
  const std::uint64_t in_flight = r.count(8);
  if (in_flight > options_.queue_depth) {
    throw SnapshotError("queue snapshot exceeds the configured depth");
  }
  slots_.clear();
  slots_.reserve(in_flight);
  for (std::uint64_t i = 0; i < in_flight; ++i) slots_.push_back(r.i64());
  std::make_heap(slots_.begin(), slots_.end(), std::greater<SimTime>());
  metrics_.deserialize(r);
}

}  // namespace reqblock
