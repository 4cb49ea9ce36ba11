#include "telemetry/trace_buffer.h"

#include "snapshot/snapshot.h"
#include "util/check.h"
#include "util/strings.h"

namespace reqblock {

std::optional<TraceLevel> trace_level_from_name(std::string_view text) {
  if (iequals(text, "off") || text == "0" || iequals(text, "none")) {
    return TraceLevel::kOff;
  }
  if (iequals(text, "cache")) return TraceLevel::kCache;
  if (iequals(text, "flash")) return TraceLevel::kFlash;
  if (iequals(text, "all") || iequals(text, "on") || text == "1") {
    return TraceLevel::kAll;
  }
  return std::nullopt;
}

TraceLevel parse_trace_level(std::string_view text, TraceLevel fallback) {
  return trace_level_from_name(text).value_or(fallback);
}

TraceLevel trace_level_from_env(TraceLevel fallback) {
  return env_value("REQBLOCK_TRACE", trace_level_from_name,
                   "off, cache, flash or all")
      .value_or(fallback);
}

TraceBuffer::TraceBuffer(TraceConfig config) : config_(config) {
  REQB_CHECK_MSG(config_.capacity >= 1, "trace ring needs at least one slot");
  if (config_.sample_period == 0) config_.sample_period = 1;
  // Storage is reserved lazily in emit(): a buffer that never accepts an
  // event (level off, or nothing instrumented ran) costs zero allocations.
}

void TraceBuffer::emit(const TraceEvent& e) {
  const EventCategory cat = category_of(e.kind);
  if (!enabled(cat)) return;
  const std::size_t ci = cat == EventCategory::kCache ? 0 : 1;
  if (offered_[ci]++ % config_.sample_period != 0) {
    ++sampled_out_;
    return;
  }
  if (ring_.size() < config_.capacity) {
    ring_.push_back(e);
    ++size_;
  } else {
    ring_[next_] = e;  // overwrite the oldest event
  }
  next_ = (next_ + 1) % config_.capacity;
  ++emitted_;
}

std::vector<TraceEvent> TraceBuffer::drain() const {
  std::vector<TraceEvent> out;
  out.reserve(size_);
  if (size_ < config_.capacity) {
    // Never wrapped: events sit in insertion order from slot 0.
    out.assign(ring_.begin(), ring_.end());
    return out;
  }
  // Wrapped: the oldest surviving event is at next_.
  out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(next_),
             ring_.end());
  out.insert(out.end(), ring_.begin(),
             ring_.begin() + static_cast<std::ptrdiff_t>(next_));
  return out;
}

void TraceBuffer::clear() {
  ring_.clear();
  ring_.shrink_to_fit();
  next_ = 0;
  size_ = 0;
  emitted_ = 0;
  sampled_out_ = 0;
  offered_[0] = offered_[1] = 0;
}

void serialize(SnapshotWriter& w, const TraceEvent& e) {
  w.i64(e.at);
  w.i64(e.dur);
  w.u64(e.lpn);
  w.u64(e.arg);
  w.u8(static_cast<std::uint8_t>(e.kind));
  w.u16(e.track);
  w.u16(e.channel);
}

void deserialize(SnapshotReader& r, TraceEvent& e) {
  e.at = r.i64();
  e.dur = r.i64();
  e.lpn = r.u64();
  e.arg = r.u64();
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(kLastEventKind)) {
    throw SnapshotError("snapshot has an unknown event kind " +
                        std::to_string(kind));
  }
  e.kind = static_cast<EventKind>(kind);
  e.track = r.u16();
  e.channel = r.u16();
}

void TraceBuffer::serialize(SnapshotWriter& w) const {
  w.tag("trace_buffer");
  // Events go out oldest-first (drain order), which normalizes the ring
  // layout: two buffers holding the same events at different wrap
  // positions produce identical bytes.
  const std::vector<TraceEvent> events = drain();
  w.u64(events.size());
  for (const TraceEvent& e : events) reqblock::serialize(w, e);
  w.u64(emitted_);
  w.u64(sampled_out_);
  w.u64(offered_[0]);
  w.u64(offered_[1]);
  w.i64(now_);
}

void TraceBuffer::deserialize(SnapshotReader& r) {
  r.tag("trace_buffer");
  REQB_CHECK_MSG(size_ == 0 && emitted_ == 0,
                 "deserialize into a non-fresh trace buffer");
  const std::uint64_t count = r.u64();
  if (count > config_.capacity) {
    throw SnapshotError("trace-buffer snapshot exceeds the ring capacity");
  }
  ring_.assign(count, TraceEvent{});
  for (TraceEvent& e : ring_) reqblock::deserialize(r, e);
  size_ = ring_.size();
  // Restoring in oldest-first order means the oldest event sits in slot 0;
  // when the ring is full the next emit must overwrite exactly there.
  next_ = size_ % config_.capacity;
  emitted_ = r.u64();
  sampled_out_ = r.u64();
  offered_[0] = r.u64();
  offered_[1] = r.u64();
  now_ = r.i64();
}

}  // namespace reqblock
