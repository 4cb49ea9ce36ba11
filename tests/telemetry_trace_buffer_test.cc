#include "telemetry/trace_buffer.h"

#include <gtest/gtest.h>

#include "snapshot/snapshot.h"

namespace reqblock {
namespace {

TraceEvent cache_event(SimTime at, Lpn lpn) {
  return {at, 0, lpn, 0, EventKind::kCacheHit, 0, 0};
}

TraceEvent flash_event(SimTime at, Lpn lpn) {
  return {at, 0, lpn, 0, EventKind::kPageProgram, 0, 0};
}

TEST(TraceBufferTest, OffGateAcceptsNothingAndAllocatesNothing) {
  TraceBuffer buf({TraceLevel::kOff, 1024, 1});
  EXPECT_FALSE(buf.any_enabled());
  EXPECT_FALSE(buf.enabled(EventCategory::kCache));
  EXPECT_FALSE(buf.enabled(EventCategory::kFlash));
  for (int i = 0; i < 1000; ++i) buf.emit(cache_event(i, i));
  EXPECT_EQ(buf.emitted(), 0u);
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.allocated_capacity(), 0u);  // ring never reserved
  EXPECT_TRUE(buf.drain().empty());
}

TEST(TraceBufferTest, CategoryGateIsPerCategory) {
  TraceBuffer buf({TraceLevel::kCache, 1024, 1});
  EXPECT_TRUE(buf.enabled(EventCategory::kCache));
  EXPECT_FALSE(buf.enabled(EventCategory::kFlash));
  buf.emit(cache_event(1, 10));
  buf.emit(flash_event(2, 20));  // gated out
  const auto events = buf.drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, EventKind::kCacheHit);

  TraceBuffer flash_only({TraceLevel::kFlash, 1024, 1});
  flash_only.emit(cache_event(1, 10));  // gated out
  flash_only.emit(flash_event(2, 20));
  ASSERT_EQ(flash_only.drain().size(), 1u);
  EXPECT_EQ(flash_only.drain()[0].kind, EventKind::kPageProgram);
}

TEST(TraceBufferTest, DrainIsOldestFirstBeforeWraparound) {
  TraceBuffer buf({TraceLevel::kAll, 16, 1});
  for (SimTime t = 0; t < 10; ++t) buf.emit(cache_event(t, t));
  const auto events = buf.drain();
  ASSERT_EQ(events.size(), 10u);
  for (SimTime t = 0; t < 10; ++t) EXPECT_EQ(events[t].at, t);
  EXPECT_EQ(buf.dropped(), 0u);
}

TEST(TraceBufferTest, WraparoundKeepsNewestCountsDropped) {
  TraceBuffer buf({TraceLevel::kAll, 8, 1});
  for (SimTime t = 0; t < 20; ++t) buf.emit(cache_event(t, t));
  EXPECT_EQ(buf.emitted(), 20u);
  EXPECT_EQ(buf.size(), 8u);
  EXPECT_EQ(buf.dropped(), 12u);
  const auto events = buf.drain();
  ASSERT_EQ(events.size(), 8u);
  // Survivors are the newest 8, still oldest-first.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].at, static_cast<SimTime>(12 + i));
  }
}

TEST(TraceBufferTest, SamplingKeepsOneOfEveryN) {
  TraceBuffer buf({TraceLevel::kAll, 1024, 4});
  for (SimTime t = 0; t < 100; ++t) buf.emit(cache_event(t, t));
  EXPECT_EQ(buf.emitted(), 25u);
  EXPECT_EQ(buf.sampled_out(), 75u);
  const auto events = buf.drain();
  ASSERT_EQ(events.size(), 25u);
  // Deterministic: the first offered event of each period survives.
  EXPECT_EQ(events[0].at, 0u);
  EXPECT_EQ(events[1].at, 4u);
}

TEST(TraceBufferTest, SamplingIsPerCategory) {
  // A chatty flash layer must not consume the cache category's budget.
  TraceBuffer buf({TraceLevel::kAll, 1024, 2});
  buf.emit(cache_event(1, 1));   // cache offer #1 -> kept
  buf.emit(flash_event(2, 2));   // flash offer #1 -> kept
  buf.emit(flash_event(3, 3));   // flash offer #2 -> sampled out
  buf.emit(cache_event(4, 4));   // cache offer #2 -> sampled out
  buf.emit(cache_event(5, 5));   // cache offer #3 -> kept
  const auto events = buf.drain();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].at, 1u);
  EXPECT_EQ(events[1].at, 2u);
  EXPECT_EQ(events[2].at, 5u);
}

TEST(TraceBufferTest, ClearResetsEverything) {
  TraceBuffer buf({TraceLevel::kAll, 8, 2});
  for (SimTime t = 0; t < 20; ++t) buf.emit(cache_event(t, t));
  buf.clear();
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.emitted(), 0u);
  EXPECT_EQ(buf.sampled_out(), 0u);
  EXPECT_EQ(buf.dropped(), 0u);
  EXPECT_TRUE(buf.drain().empty());
  // Sampling phase restarts too: next offer is kept again.
  buf.emit(cache_event(100, 100));
  EXPECT_EQ(buf.emitted(), 1u);
}

TEST(TraceBufferTest, SetTimeIsVisibleToEmitters) {
  TraceBuffer buf({TraceLevel::kAll, 8, 1});
  buf.set_time(12345);
  EXPECT_EQ(buf.time(), 12345u);
  buf.emit({buf.time(), 0, 1, 0, EventKind::kReqBlockPromote, 0, 0});
  EXPECT_EQ(buf.drain()[0].at, 12345u);
}

// Every kind survives a snapshot, the aging and integrity kinds after
// kAttrSpan included; a kind byte past the last kind is refused.
TEST(TraceBufferTest, SnapshotKeepsEveryEventKind) {
  constexpr int kKinds = static_cast<int>(kLastEventKind) + 1;
  TraceBuffer buf({TraceLevel::kAll, 64, 1});
  for (int k = 0; k < kKinds; ++k) {
    buf.emit({k, 1, 2, 3, static_cast<EventKind>(k), 4, 5});
  }
  SnapshotWriter w;
  buf.serialize(w);
  TraceBuffer back({TraceLevel::kAll, 64, 1});
  SnapshotReader r(w.buffer());
  back.deserialize(r);
  r.expect_end();
  const auto events = back.drain();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kKinds));
  for (int k = 0; k < kKinds; ++k) {
    EXPECT_EQ(events[k].kind, static_cast<EventKind>(k));
  }

  SnapshotWriter one;
  serialize(one, events.back());
  std::string bytes = one.take();
  ASSERT_EQ(bytes.size(), 37u);
  bytes[32] = static_cast<char>(kKinds);  // the kind byte
  SnapshotReader bad(bytes);
  TraceEvent e;
  EXPECT_THROW(deserialize(bad, e), SnapshotError);
}

TEST(TraceLevelTest, ParseRoundTripsAndFallsBack) {
  EXPECT_EQ(parse_trace_level("off", TraceLevel::kAll), TraceLevel::kOff);
  EXPECT_EQ(parse_trace_level("cache", TraceLevel::kOff), TraceLevel::kCache);
  EXPECT_EQ(parse_trace_level("flash", TraceLevel::kOff), TraceLevel::kFlash);
  EXPECT_EQ(parse_trace_level("all", TraceLevel::kOff), TraceLevel::kAll);
  EXPECT_EQ(parse_trace_level("ALL", TraceLevel::kOff), TraceLevel::kAll);
  EXPECT_EQ(parse_trace_level("on", TraceLevel::kOff), TraceLevel::kAll);
  EXPECT_EQ(parse_trace_level("0", TraceLevel::kAll), TraceLevel::kOff);
  EXPECT_EQ(parse_trace_level("bogus", TraceLevel::kCache),
            TraceLevel::kCache);
  EXPECT_EQ(parse_trace_level("", TraceLevel::kFlash), TraceLevel::kFlash);
}

TEST(TraceEventTest, CategoryOfSplitsAtPageRead) {
  EXPECT_EQ(category_of(EventKind::kCacheHit), EventCategory::kCache);
  EXPECT_EQ(category_of(EventKind::kReqBlockBatchEvict),
            EventCategory::kCache);
  EXPECT_EQ(category_of(EventKind::kPageRead), EventCategory::kFlash);
  EXPECT_EQ(category_of(EventKind::kGcMove), EventCategory::kFlash);
}

}  // namespace
}  // namespace reqblock
