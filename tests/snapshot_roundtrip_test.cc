// Snapshot round-trips, layer by layer: writer/reader primitives, the
// on-disk container, every cache policy, and a faulted FTL must all
// survive serialize → deserialize → serialize with byte-identical output
// and pass their deep structural audits afterwards.
#include "snapshot/snapshot.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "cache/cache_manager.h"
#include "cache/policy_factory.h"
#include "fault/fault.h"
#include "ssd/ftl.h"
#include "test_util.h"
#include "util/audit.h"
#include "util/rng.h"

namespace reqblock {
namespace {

struct FullAuditScope {
  AuditLevel previous = set_audit_level(AuditLevel::kFull);
  ~FullAuditScope() { set_audit_level(previous); }
};

// --- Writer / reader primitives -------------------------------------------

TEST(SnapshotPrimitivesTest, AllTypesRoundTrip) {
  SnapshotWriter w;
  w.tag("prims");
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.f64(3.25);
  w.b(true);
  w.str("hello");
  w.vec_u64({1, 2, 3});
  w.vec_u32({7, 8});

  SnapshotReader r(w.buffer());
  r.tag("prims");
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.25);
  EXPECT_TRUE(r.b());
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.vec_u64(), (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(r.vec_u32(), (std::vector<std::uint32_t>{7, 8}));
  EXPECT_TRUE(r.at_end());
  EXPECT_NO_THROW(r.expect_end());
}

TEST(SnapshotPrimitivesTest, TagMismatchThrows) {
  SnapshotWriter w;
  w.tag("ftl");
  SnapshotReader r(w.buffer());
  EXPECT_THROW(r.tag("cache"), SnapshotError);
}

TEST(SnapshotPrimitivesTest, TruncatedReadThrows) {
  SnapshotWriter w;
  w.u64(7);
  const std::string bytes = w.buffer().substr(0, 3);
  SnapshotReader r(bytes);
  EXPECT_THROW(r.u64(), SnapshotError);
}

TEST(SnapshotPrimitivesTest, LeftoverBytesDetected) {
  SnapshotWriter w;
  w.u64(7);
  w.u64(8);
  SnapshotReader r(w.buffer());
  r.u64();
  EXPECT_THROW(r.expect_end(), SnapshotError);
}

TEST(SnapshotPrimitivesTest, CountGuardRejectsOversizedCount) {
  // A corrupt element count must fail as SnapshotError before it can
  // drive a multi-gigabyte allocation.
  SnapshotWriter w;
  w.u64(1ULL << 40);
  SnapshotReader r(w.buffer());
  EXPECT_THROW(r.count(8), SnapshotError);

  SnapshotWriter ok;
  ok.u64(2);
  ok.u64(1);
  ok.u64(2);
  SnapshotReader r2(ok.buffer());
  EXPECT_EQ(r2.count(8), 2u);
}

// An encoder written apart from SnapshotWriter: each integer byte by byte,
// least significant first, by shifts.
class ReferenceEncoder {
 public:
  void le(std::uint64_t v, std::size_t bytes) {
    for (std::size_t i = 0; i < bytes; ++i) {
      out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }
  void str(const std::string& s) {
    le(s.size(), 4);
    out += s;
  }
  std::string out;
};

// Seeded random write sequences, across a reserved size and through every
// growth step of the buffer (its doublings, the room made writable ahead
// of the cursor, reserves made mid-stream), with the bytes read
// mid-stream: the writer must produce exactly what the reference encoder
// does.
TEST(SnapshotPrimitivesTest, WriterMatchesAReferenceEncoderByteForByte) {
  // Nothing reserved, sizes the stream crosses early and late, and more
  // than it writes.
  const std::size_t reserved[] = {0, 1000, std::size_t{1} << 20,
                                  std::size_t{5} << 20};
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed + 1);
    SnapshotWriter w;
    ReferenceEncoder ref;
    w.reserve(reserved[seed]);
    std::size_t checks = 0;
    while (ref.out.size() < (std::size_t{3} << 20)) {
      const std::uint64_t v = rng.next_u64();
      switch (rng.next_below(12)) {
        case 0:
          w.u8(static_cast<std::uint8_t>(v));
          ref.le(v, 1);
          break;
        case 1:
          w.u16(static_cast<std::uint16_t>(v));
          ref.le(v, 2);
          break;
        case 2:
          w.u32(static_cast<std::uint32_t>(v));
          ref.le(v, 4);
          break;
        case 3:
          w.u64(v);
          ref.le(v, 8);
          break;
        case 4:
          w.i64(static_cast<std::int64_t>(v));
          ref.le(v, 8);
          break;
        case 5: {
          const double d = rng.next_double() * 1e9 - 5e8;
          w.f64(d);
          ref.le(std::bit_cast<std::uint64_t>(d), 8);
          break;
        }
        case 6:
          w.b((v & 1) != 0);
          ref.le(v & 1, 1);
          break;
        case 7: {
          std::string text(rng.next_below(40), ' ');
          for (char& c : text) c = static_cast<char>('a' + rng.next_below(26));
          w.str(text);
          ref.str(text);
          break;
        }
        case 8: {
          // Now and then long enough to cross several growth steps at once.
          std::vector<std::uint32_t> xs(rng.next_below(40) == 0
                                            ? 20'000 + rng.next_below(40'000)
                                            : rng.next_below(64));
          ref.le(xs.size(), 8);
          for (auto& x : xs) {
            x = static_cast<std::uint32_t>(rng.next_u64());
            ref.le(x, 4);
          }
          w.vec_u32(xs);
          break;
        }
        case 9: {
          std::vector<std::uint64_t> xs(rng.next_below(64));
          ref.le(xs.size(), 8);
          for (auto& x : xs) {
            x = rng.next_u64();
            ref.le(x, 8);
          }
          w.vec_u64(xs);
          break;
        }
        case 10:
          // Room reserved mid-stream, as SimulationSession reserves it
          // for its layers: sometimes past the capacity, so the written
          // bytes move to a new buffer.
          w.reserve(rng.next_below(rng.next_below(40) == 0
                                        ? std::size_t{1} << 20
                                        : 64));
          break;
        default:
          ASSERT_EQ(w.buffer(), ref.out);
          ++checks;
          break;
      }
    }
    EXPECT_GT(checks, 100u);
    EXPECT_EQ(w.buffer(), ref.out);
    const std::string taken = w.take();
    EXPECT_EQ(taken, ref.out);
    // A taken writer starts over empty.
    EXPECT_TRUE(w.buffer().empty());
    w.u16(0x1234);
    EXPECT_EQ(w.take(), std::string("\x34\x12"));
  }
}

TEST(SnapshotPrimitivesTest, RngRoundTripContinuesIdentically) {
  Rng a(12345);
  for (int i = 0; i < 100; ++i) a.next_u64();

  SnapshotWriter w;
  serialize(w, a);
  Rng b(1);  // different seed: state must come from the snapshot
  SnapshotReader r(w.buffer());
  deserialize(r, b);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

// --- On-disk container -----------------------------------------------------

SnapshotHeader header_for_test() {
  SnapshotHeader h;
  h.kind = "run-checkpoint";
  h.config_hash = 0x1111;
  h.trace_hash = 0x2222;
  h.sequence = 42;
  return h;
}

TEST(SnapshotContainerTest, EncodeDecodeRoundTrip) {
  const std::string payload = "payload bytes";
  const std::string file = encode_snapshot(header_for_test(), payload);

  SnapshotHeader decoded;
  EXPECT_EQ(decode_snapshot(file, decoded), payload);
  EXPECT_EQ(decoded.kind, "run-checkpoint");
  EXPECT_EQ(decoded.config_hash, 0x1111u);
  EXPECT_EQ(decoded.trace_hash, 0x2222u);
  EXPECT_EQ(decoded.sequence, 42u);
}

// save_snapshot_file writes the header and the payload as two pieces; the
// file must hold exactly the bytes of the joined container.
TEST(SnapshotContainerTest, SavedFileEqualsEncodedBytes) {
  std::string payload;
  for (int i = 0; i < 70'000; ++i) payload.push_back(static_cast<char>(i));
  const SnapshotHeader h = header_for_test();
  const std::string path = ::testing::TempDir() + "/pieces.ckpt";
  save_snapshot_file(path, h, payload);
  std::ifstream in(path, std::ios::binary);
  const std::string written((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  EXPECT_EQ(written, encode_snapshot(h, payload));
}

TEST(SnapshotContainerTest, RejectsBadMagic) {
  std::string file = encode_snapshot(header_for_test(), "x");
  file[0] = 'X';
  SnapshotHeader h;
  EXPECT_THROW(decode_snapshot(file, h), SnapshotError);
}

TEST(SnapshotContainerTest, RejectsTruncation) {
  const std::string file = encode_snapshot(header_for_test(), "payload");
  SnapshotHeader h;
  for (const std::size_t keep : {std::size_t{4}, file.size() - 3}) {
    EXPECT_THROW(decode_snapshot(file.substr(0, keep), h), SnapshotError);
  }
}

TEST(SnapshotContainerTest, RejectsFlippedPayloadBit) {
  std::string file = encode_snapshot(header_for_test(), "payload");
  file.back() = static_cast<char>(file.back() ^ 0x01);
  SnapshotHeader h;
  EXPECT_THROW(decode_snapshot(file, h), SnapshotError);
}

TEST(SnapshotContainerTest, RejectsFutureFormatVersion) {
  SnapshotHeader h = header_for_test();
  h.format_version = kSnapshotFormatVersion + 1;
  const std::string file = encode_snapshot(h, "x");
  SnapshotHeader decoded;
  EXPECT_THROW(decode_snapshot(file, decoded), SnapshotError);
}

TEST(SnapshotContainerTest, IdentityRefusal) {
  const SnapshotHeader h = header_for_test();
  EXPECT_NO_THROW(
      require_snapshot_identity(h, "run-checkpoint", 0x1111, 0x2222, "t"));
  EXPECT_THROW(
      require_snapshot_identity(h, "case-result", 0x1111, 0x2222, "t"),
      SnapshotError);
  EXPECT_THROW(
      require_snapshot_identity(h, "run-checkpoint", 0x9999, 0x2222, "t"),
      SnapshotError);
  EXPECT_THROW(
      require_snapshot_identity(h, "run-checkpoint", 0x1111, 0x9999, "t"),
      SnapshotError);
}

// --- Cache layer: every policy through the manager -------------------------

// Mixed request shapes (sizes 1..17 pages, hot reuse, reads) so every
// policy exercises its interesting paths: Req-block splits/promotions,
// BPLRU block fills, VBBMS/FAB block grouping, CFLRU clean-first windows.
std::vector<IoRequest> workload(std::uint64_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<IoRequest> reqs;
  reqs.reserve(n);
  SimTime at = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    at += 20 * kMicrosecond;
    const bool read = rng.next_double() < 0.25;
    const Lpn lpn = rng.next_u64() % (rng.next_double() < 0.5 ? 512 : 8192);
    const auto pages = static_cast<std::uint32_t>(1 + rng.next_u64() % 17);
    reqs.push_back(read ? testing::read_req(i, lpn, pages, at)
                        : testing::write_req(i, lpn, pages, at));
  }
  return reqs;
}

TEST(SnapshotCacheTest, EveryPolicyRoundTripsAndContinuesIdentically) {
  FullAuditScope audit_scope;
  for (const std::string& name : known_policy_names()) {
    SCOPED_TRACE(name);
    const auto cfg = testing::policy_config(name, 256);

    testing::Harness original(cfg);
    const auto reqs = workload(600, 99);
    for (const auto& r : reqs) original.serve(r);

    SnapshotWriter w1;
    original.ftl.serialize(w1);
    original.cache->serialize(w1);

    testing::Harness restored(cfg);
    SnapshotReader r1(w1.buffer());
    restored.ftl.deserialize(r1);
    restored.cache->deserialize(r1);
    EXPECT_TRUE(r1.at_end());

    // Equal logical state must re-serialize to equal bytes.
    SnapshotWriter w2;
    restored.ftl.serialize(w2);
    restored.cache->serialize(w2);
    EXPECT_EQ(w1.buffer(), w2.buffer());

    // The restored stack passes the same deep audit as the original.
    AuditReport report("restored " + name);
    restored.cache->audit(report, AuditLevel::kFull);
    EXPECT_TRUE(report.ok()) << report.to_string();

    // And continues bit-identically under further traffic.
    const auto more = workload(300, 7);
    for (const auto& r : more) {
      IoRequest shifted = r;
      shifted.id += reqs.size();
      shifted.arrival += reqs.back().arrival;
      EXPECT_EQ(original.serve(shifted), restored.serve(shifted));
    }
    SnapshotWriter wa;
    SnapshotWriter wb;
    original.cache->serialize(wa);
    restored.cache->serialize(wb);
    EXPECT_EQ(wa.buffer(), wb.buffer());
  }
}

TEST(SnapshotCacheTest, DeserializeIntoUsedManagerIsRejected) {
  const auto cfg = testing::policy_config("lru", 64);
  testing::Harness a(cfg);
  a.serve(testing::write_req(0, 0, 4));
  SnapshotWriter w;
  a.cache->serialize(w);

  testing::Harness b(cfg);
  b.serve(testing::write_req(0, 9, 1));  // no longer fresh
  SnapshotReader r(w.buffer());
  EXPECT_THROW(b.cache->deserialize(r), std::exception);
}

// --- FTL + flash array under fault injection --------------------------------

TEST(SnapshotFtlTest, FaultedDeviceRoundTripsWithRetiredBlocks) {
  FullAuditScope audit_scope;
  FaultPlan plan;
  plan.seed = 11;
  plan.program_fail_prob = 0.2;
  plan.erase_fail_prob = 0.3;
  plan.max_program_retries = 1;
  plan.spare_blocks_per_plane = 1;  // exhaust spares fast → degraded planes

  Ftl original(testing::micro_ssd());
  FaultInjector inj(plan);
  original.set_fault_injector(&inj);

  // Hammer a small LPN space so GC erases (and fails, and retires) a lot.
  Rng rng(3);
  SimTime at = 0;
  for (int i = 0; i < 4000; ++i) {
    at += 30 * kMicrosecond;
    original.program_page(rng.next_u64() % 600, 1 + i, at);
  }
  ASSERT_GT(original.array().retired_blocks(), 0u);
  ASSERT_GT(inj.metrics().degraded_planes, 0u);

  SnapshotWriter w1;
  original.serialize(w1);
  inj.serialize(w1);

  Ftl restored(testing::micro_ssd());
  FaultInjector inj2(plan);
  restored.set_fault_injector(&inj2);
  SnapshotReader r(w1.buffer());
  restored.deserialize(r);
  inj2.deserialize(r);
  EXPECT_TRUE(r.at_end());

  SnapshotWriter w2;
  restored.serialize(w2);
  inj2.serialize(w2);
  EXPECT_EQ(w1.buffer(), w2.buffer());

  AuditReport report("restored faulted ftl");
  restored.audit(report);
  EXPECT_TRUE(report.ok()) << report.to_string();

  // Same RNG stream, same timelines: the next operations match exactly.
  for (int i = 0; i < 500; ++i) {
    at += 30 * kMicrosecond;
    const Lpn lpn = rng.next_u64() % 600;
    EXPECT_EQ(original.program_page(lpn, 5000 + i, at),
              restored.program_page(lpn, 5000 + i, at));
  }
  EXPECT_EQ(original.array().retired_blocks(),
            restored.array().retired_blocks());
  EXPECT_EQ(inj.metrics().program_faults, inj2.metrics().program_faults);
}

}  // namespace
}  // namespace reqblock
