// Outside-in timing for the benchmark's traced repetition.
//
// Every span is taken around a public call of the simulator —
// TraceSource::next, the four WriteBufferPolicy hooks, CacheManager::serve,
// SimulationSession::step/serialize/deserialize — by decorators and loops
// that live in the benchmark, so the program under test is unchanged.
// Time spent inside the FTL comes from the simulator's own Profiler
// sections (ftl_read, ftl_program, gc), which nest.
//
// Spans of every Nth request are kept in memory (name, layer, begin, end,
// parent) and written out once, at the end, as a Chrome trace.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cache/write_buffer.h"
#include "trace/io_request.h"

namespace reqblock::perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Calls and summed wall time of one timed operation.
struct Tally {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;

  void add(std::int64_t d) {
    ++calls;
    ns += d;
  }
  void merge(const Tally& o) {
    calls += o.calls;
    ns += o.ns;
  }
  double mean_ns() const {
    return calls == 0 ? 0.0 : static_cast<double>(ns) / calls;
  }
};

/// Spans of sampled requests. Ids are unique per log; a span's parent is
/// the id of the span that caused it (0 = a request's root).
class SpanLog {
 public:
  explicit SpanLog(std::uint64_t every) : every_(every) {}

  /// Starts request `index`; only every `every`-th request is kept.
  void begin_request(std::uint64_t index) {
    sampled_ = every_ != 0 && index % every_ == 0;
    request_ = index;
    parent_ = 0;
  }
  bool sampled() const { return sampled_; }
  /// Reserves the id of a span that is about to open.
  std::uint32_t open() { return ++last_id_; }
  /// The span that calls made now belong to.
  std::uint32_t parent() const { return parent_; }
  void set_parent(std::uint32_t id) { parent_ = id; }

  /// Records a closed span. `name` and `layer` must be string literals.
  /// `calls` > 1 marks a span that aggregates several profiler sections
  /// whose individual start times the program does not expose.
  void close(const char* name, const char* layer, std::uint32_t id,
             std::uint32_t parent, std::int64_t begin, std::int64_t end,
             std::uint64_t calls = 1) {
    spans_.push_back({name, layer, request_, id, parent, begin, end, calls});
  }

  /// Chrome trace_event JSON: one complete ("X") event per span, one
  /// thread lane per layer, microsecond timestamps relative to `origin`.
  void write_chrome(std::ostream& os, std::int64_t origin) const;

 private:
  struct Span {
    const char* name;
    const char* layer;
    std::uint64_t request;
    std::uint32_t id;
    std::uint32_t parent;
    std::int64_t begin;
    std::int64_t end;
    std::uint64_t calls;
  };

  std::uint64_t every_;
  bool sampled_ = false;
  std::uint64_t request_ = 0;
  std::uint32_t last_id_ = 0;
  std::uint32_t parent_ = 0;
  std::vector<Span> spans_;
};

/// Times next() of any trace source; everything else is forwarded.
class TimedTraceSource final : public TraceSource {
 public:
  TimedTraceSource(std::unique_ptr<TraceSource> inner, SpanLog* spans)
      : inner_(std::move(inner)), spans_(spans) {}

  bool next(IoRequest& out) override {
    const std::int64_t b = now_ns();
    const bool ok = inner_->next(out);
    const std::int64_t e = now_ns();
    next_.add(e - b);
    if (spans_ != nullptr && spans_->sampled()) {
      spans_->close("trace.next", "trace", spans_->open(), spans_->parent(),
                    b, e);
    }
    return ok;
  }
  void reset() override { inner_->reset(); }
  std::string name() const override { return inner_->name(); }
  std::vector<std::pair<Lpn, Lpn>> preexisting_ranges() const override {
    return inner_->preexisting_ranges();
  }
  std::uint64_t identity_hash() const override {
    return inner_->identity_hash();
  }
  void serialize(SnapshotWriter& w) const override { inner_->serialize(w); }
  void deserialize(SnapshotReader& r) override { inner_->deserialize(r); }

  const Tally& next_tally() const { return next_; }

 private:
  std::unique_ptr<TraceSource> inner_;
  SpanLog* spans_;
  Tally next_;
};

/// Times the four per-request policy hooks; everything else is forwarded
/// untimed (those calls land in the cache manager's self time).
class TimedPolicy final : public WriteBufferPolicy {
 public:
  enum Op : std::size_t { kBegin, kHit, kInsert, kVictim, kOps };

  TimedPolicy(std::unique_ptr<WriteBufferPolicy> inner, SpanLog* spans)
      : inner_(std::move(inner)), spans_(spans) {}

  std::string name() const override { return inner_->name(); }
  void begin_request(const IoRequest& req) override {
    const std::int64_t b = now_ns();
    inner_->begin_request(req);
    note(kBegin, b);
  }
  void on_hit(Lpn lpn, const IoRequest& req, bool is_write) override {
    const std::int64_t b = now_ns();
    inner_->on_hit(lpn, req, is_write);
    note(kHit, b);
  }
  void on_insert(Lpn lpn, const IoRequest& req, bool is_write) override {
    const std::int64_t b = now_ns();
    inner_->on_insert(lpn, req, is_write);
    note(kInsert, b);
  }
  VictimBatch select_victim() override {
    const std::int64_t b = now_ns();
    VictimBatch v = inner_->select_victim();
    note(kVictim, b);
    return v;
  }

  void on_power_loss() override { inner_->on_power_loss(); }
  std::size_t pages() const override { return inner_->pages(); }
  std::size_t occupied_pages() const override {
    return inner_->occupied_pages();
  }
  std::size_t metadata_bytes() const override {
    return inner_->metadata_bytes();
  }
  void audit(AuditReport& report) const override { inner_->audit(report); }
  bool enumerate_pages(const std::function<void(Lpn)>& fn) const override {
    return inner_->enumerate_pages(fn);
  }
  void serialize(SnapshotWriter& w) const override { inner_->serialize(w); }
  void deserialize(SnapshotReader& r) override { inner_->deserialize(r); }
  void set_trace(TraceBuffer* trace) override { inner_->set_trace(trace); }
  void register_metrics(MetricsRegistry& registry) const override {
    inner_->register_metrics(registry);
  }

  const Tally& tally(Op op) const { return tallies_[op]; }
  Tally total() const {
    Tally t;
    for (const Tally& x : tallies_) t.merge(x);
    return t;
  }

 private:
  void note(Op op, std::int64_t b) {
    static constexpr std::array<const char*, kOps> kNames = {
        "policy.begin_request", "policy.on_hit", "policy.on_insert",
        "policy.select_victim"};
    const std::int64_t e = now_ns();
    tallies_[op].add(e - b);
    if (spans_ != nullptr && spans_->sampled()) {
      spans_->close(kNames[op], "policy", spans_->open(), spans_->parent(),
                    b, e);
    }
  }

  std::unique_ptr<WriteBufferPolicy> inner_;
  SpanLog* spans_;
  std::array<Tally, kOps> tallies_{};
};

inline void SpanLog::write_chrome(std::ostream& os,
                                  std::int64_t origin) const {
  static constexpr std::array<const char*, 6> kLanes = {
      "session", "trace", "cache", "policy", "ssd", "snapshot"};
  auto lane = [](const char* layer) {
    for (std::size_t i = 0; i < kLanes.size(); ++i) {
      if (std::string_view(layer) == kLanes[i]) return i + 1;
    }
    return kLanes.size() + 1;
  };
  // Microseconds with three decimals, from integer nanoseconds.
  auto us = [](std::int64_t ns) {
    const std::int64_t frac = ns % 1000;
    const char* pad = frac < 10 ? ".00" : frac < 100 ? ".0" : ".";
    return std::to_string(ns / 1000) + pad + std::to_string(frac);
  };
  os << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < kLanes.size(); ++i) {
    os << (i == 0 ? "" : ",\n")
       << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": "
       << i + 1 << ", \"args\": {\"name\": \"" << kLanes[i] << "\"}}";
  }
  for (const Span& s : spans_) {
    os << ",\n{\"name\": \"" << s.name << "\", \"cat\": \"" << s.layer
       << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << lane(s.layer)
       << ", \"ts\": " << us(s.begin - origin)
       << ", \"dur\": " << us(s.end - s.begin)
       << ", \"args\": {\"request\": " << s.request << ", \"span\": " << s.id
       << ", \"parent\": " << s.parent << ", \"calls\": " << s.calls << "}}";
  }
  os << "\n]}\n";
}

}  // namespace reqblock::perfbench
