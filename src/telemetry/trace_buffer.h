// Ring-buffered, gated event collector.
//
// The buffer is the single sink every instrumented component writes into.
// Two gates keep the hot path honest:
//   * category gate — REQBLOCK_TRACE=off|cache|flash|all (or TraceConfig)
//     selects which event categories are collected. Components cache an
//     `enabled(category)` check as a nullable pointer, so a disabled run
//     costs one branch per would-be event and allocates nothing (the ring
//     storage is only reserved on the first accepted event).
//   * sampling — keep 1 of every `sample_period` offered events (applied
//     per category so a chatty flash layer cannot starve cache events).
//
// Capacity is a hard bound: once the ring is full the oldest events are
// overwritten and counted in dropped(). drain() returns the surviving
// events oldest-first.
//
// The buffer is deliberately NOT thread-safe: one simulated run owns one
// buffer (runs parallelize at the experiment level, one buffer each).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "telemetry/event.h"
#include "util/types.h"

namespace reqblock {

class SnapshotReader;
class SnapshotWriter;

/// Bitmask of collected categories. kCache/kFlash are single bits so
/// `all` is their union.
enum class TraceLevel : std::uint8_t {
  kOff = 0,
  kCache = 1,
  kFlash = 2,
  kAll = 3,
};

constexpr const char* to_string(TraceLevel l) {
  switch (l) {
    case TraceLevel::kOff: return "off";
    case TraceLevel::kCache: return "cache";
    case TraceLevel::kFlash: return "flash";
    case TraceLevel::kAll: return "all";
  }
  return "?";
}

/// Parses "off"/"cache"/"flash"/"all" (also "0"/"none"/"1"/"on"), ASCII
/// case-insensitive; nullopt for unrecognized text.
std::optional<TraceLevel> trace_level_from_name(std::string_view text);

/// trace_level_from_name, with `fallback` for unrecognized text.
TraceLevel parse_trace_level(std::string_view text, TraceLevel fallback);

/// The REQBLOCK_TRACE environment variable, or `fallback` when it is
/// unset. Text that names no level throws std::invalid_argument naming the
/// variable and its value.
TraceLevel trace_level_from_env(TraceLevel fallback = TraceLevel::kOff);

/// One event's snapshot encoding: its seven fields at fixed widths, 37
/// bytes. The trace-buffer section and stored run results both use it.
/// Reading refuses a kind past kLastEventKind.
void serialize(SnapshotWriter& w, const TraceEvent& e);
void deserialize(SnapshotReader& r, TraceEvent& e);

struct TraceConfig {
  TraceLevel level = TraceLevel::kOff;
  /// Ring capacity in events (48 B each); oldest events are overwritten.
  std::size_t capacity = 1u << 20;
  /// Keep 1 of every N offered events per category (1 = keep all).
  std::uint64_t sample_period = 1;
};

class TraceBuffer {
 public:
  explicit TraceBuffer(TraceConfig config = {});

  const TraceConfig& config() const { return config_; }

  /// True when events of `cat` pass the category gate. Components call
  /// this once at wiring time and keep a null pointer when disabled.
  bool enabled(EventCategory cat) const {
    return (static_cast<std::uint8_t>(config_.level) &
            static_cast<std::uint8_t>(cat)) != 0;
  }
  bool any_enabled() const { return config_.level != TraceLevel::kOff; }

  /// Current simulated time for emitters that have no timestamp of their
  /// own (policy-internal events). The cache manager sets it per request.
  void set_time(SimTime t) { now_ = t; }
  SimTime time() const { return now_; }

  /// Offers one event. Applies the category gate, then sampling, then
  /// ring placement. Safe to call with any kind at any level.
  void emit(const TraceEvent& e);

  /// Surviving events, oldest first. The buffer keeps its contents.
  std::vector<TraceEvent> drain() const;

  /// Events accepted into the ring (post-gate, post-sampling).
  std::uint64_t emitted() const { return emitted_; }
  /// Accepted events that were later overwritten by ring wraparound.
  std::uint64_t dropped() const {
    return emitted_ > size_ ? emitted_ - size_ : 0;
  }
  /// Events skipped by the sampler (gate-passing only).
  std::uint64_t sampled_out() const { return sampled_out_; }
  /// Events currently held.
  std::size_t size() const { return size_; }
  /// Ring storage actually reserved — stays 0 until the first accepted
  /// event, so disabled runs allocate nothing.
  std::size_t allocated_capacity() const { return ring_.capacity(); }

  void clear();

  /// Checkpoint: ring contents (oldest-first), cursors, and the sampling
  /// counters. deserialize() restores into a buffer constructed with the
  /// identical TraceConfig (the config is part of the run fingerprint).
  void serialize(SnapshotWriter& w) const;
  void deserialize(SnapshotReader& r);

 private:
  TraceConfig config_;
  std::vector<TraceEvent> ring_;
  std::size_t next_ = 0;  // ring slot the next event lands in
  std::size_t size_ = 0;
  std::uint64_t emitted_ = 0;
  std::uint64_t sampled_out_ = 0;
  std::uint64_t offered_[2] = {0, 0};  // per-category sampling counters
  SimTime now_ = 0;
};

}  // namespace reqblock
