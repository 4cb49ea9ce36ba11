// Bit-flip fuzz over the v6 snapshot sections (per-page error counters,
// stripe-parity bits, patrol-scrub cursor). The contracts, in order of
// defense:
//   1. Container level: any single-bit flip anywhere in an encoded
//      snapshot is refused by the magic/version/checksum gates — a
//      corrupted file is never accepted, and never crashes the decoder.
//   2. Payload level (simulating corruption that slipped past or was
//      re-checksummed): deserialize either throws SnapshotError or
//      produces an object it can audit — it must never crash, read out
//      of bounds, or hang. The sanitizer legs run this sweep under
//      ASan/UBSan.
//   3. Structural validation: specific corruptions of the new v6 fields
//      (zeroed error counts, out-of-range parity stripes, a scrub cursor
//      outside the device geometry) and of the GC candidate entries (a
//      count outside 1..pages_per_block, a block outside the plane) are
//      refused with their own messages, not absorbed as plausible state.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/fault.h"
#include "snapshot/snapshot.h"
#include "ssd/flash_array.h"
#include "ssd/ftl.h"
#include "test_util.h"
#include "util/audit.h"

namespace reqblock {
namespace {

/// Small single-plane device so the exhaustive payload sweep stays cheap.
SsdConfig fuzz_ssd(std::uint64_t blocks = 8) {
  SsdConfig cfg;
  cfg.channels = 1;
  cfg.chips_per_channel = 1;
  cfg.pages_per_block = 8;
  cfg.capacity_bytes = blocks * 8 * 4096;
  cfg.validate();
  return cfg;
}

/// An array carrying every kind of v6 state: programmed pages, a closed
/// parity stripe, sparse per-page corrected-error counters, and GC
/// candidates (two live entries on a full block, one on the active block).
FlashArray seeded_array(const SsdConfig& cfg) {
  FlashArray arr(cfg);
  arr.set_stripe_pages(4);
  std::vector<Ppn> ppns;
  for (Lpn lpn = 0; lpn < 10; ++lpn) {
    const Ppn p = arr.program(0, lpn);
    arr.note_program(p, static_cast<SimTime>(lpn + 1));
    ppns.push_back(p);
  }
  const PhysAddr first = arr.address_map().to_addr(ppns[0]);
  arr.set_stripe_parity(first.plane, first.block, arr.stripe_of(ppns[0]));
  arr.note_page_error(ppns[1]);
  arr.note_page_error(ppns[2]);
  arr.note_page_error(ppns[2]);
  arr.invalidate(ppns[6]);
  arr.invalidate(ppns[7]);
  arr.invalidate(ppns[9]);
  return arr;
}

std::string array_bytes(const FlashArray& arr) {
  SnapshotWriter w;
  arr.serialize(w);
  return w.take();
}

TEST(IntegritySnapshotFuzzTest, ContainerRefusesEverySingleBitFlip) {
  SnapshotHeader h;
  h.kind = "run-checkpoint";
  h.config_hash = 0xabc;
  h.trace_hash = 0xdef;
  h.sequence = 7;
  const std::string file = encode_snapshot(h, array_bytes(seeded_array(
                                                  fuzz_ssd())));
  std::uint64_t refused = 0;
  for (std::size_t byte = 0; byte < file.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = file;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      SnapshotHeader decoded;
      try {
        decode_snapshot(corrupt, decoded);
        FAIL() << "accepted a snapshot with bit " << bit << " of byte "
               << byte << " flipped";
      } catch (const SnapshotError&) {
        ++refused;
      }
    }
  }
  EXPECT_EQ(refused, file.size() * 8);
}

TEST(IntegritySnapshotFuzzTest, PayloadFlipsNeverCrashTheArrayRestore) {
  const SsdConfig cfg = fuzz_ssd();
  const std::string bytes = array_bytes(seeded_array(cfg));
  std::uint64_t refused = 0;
  std::uint64_t accepted = 0;
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = bytes;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      FlashArray fresh(cfg);
      fresh.set_stripe_pages(4);
      SnapshotReader r(corrupt);
      try {
        fresh.deserialize(r);
      } catch (const SnapshotError&) {
        ++refused;
        continue;
      }
      // A flip that still parses (a counter value, a timestamp bit) must
      // yield an object on which GC victim selection and the deep audit
      // run to completion; whether the audit then flags the damage is the
      // audit's business.
      ++accepted;
      for (std::uint32_t p = 0; p < cfg.total_planes(); ++p) {
        fresh.pick_gc_victim(p);
      }
      AuditReport report("fuzzed flash array");
      fresh.audit(report);
    }
  }
  // The format is dense enough that most flips are structural: tags,
  // counts, and range checks must be doing real work here.
  EXPECT_GT(refused, 0u);
  EXPECT_EQ(refused + accepted, bytes.size() * 8);
}

// Locates the byte where two serializations diverge; the pair below are
// constructed to differ in exactly the targeted v6 field.
std::size_t first_diff(const std::string& a, const std::string& b) {
  std::size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  return i;
}

TEST(IntegritySnapshotFuzzTest, ZeroedErrorCountEntryIsRefused) {
  const SsdConfig cfg = fuzz_ssd();
  // Twin arrays whose only difference is one page's corrected-error
  // count (1 vs 2): the first diverging byte is that entry's u8 payload.
  FlashArray one(cfg);
  FlashArray two(cfg);
  Ppn target_one = 0;
  Ppn target_two = 0;
  for (FlashArray* arr : {&one, &two}) {
    arr->set_stripe_pages(4);
    for (Lpn lpn = 0; lpn < 4; ++lpn) {
      const Ppn p = arr->program(0, lpn);
      arr->note_program(p, static_cast<SimTime>(lpn + 1));
      if (lpn == 1) (arr == &one ? target_one : target_two) = p;
    }
  }
  one.note_page_error(target_one);
  two.note_page_error(target_two);
  two.note_page_error(target_two);
  std::string bytes = array_bytes(one);
  const std::size_t at = first_diff(bytes, array_bytes(two));
  ASSERT_LT(at, bytes.size());
  ASSERT_EQ(bytes[at], 1);  // the error count itself
  bytes[at] = 0;

  FlashArray fresh(cfg);
  fresh.set_stripe_pages(4);
  SnapshotReader r(bytes);
  try {
    fresh.deserialize(r);
    FAIL() << "accepted a zero error-count entry";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("zero error entry"),
              std::string::npos);
  }
}

TEST(IntegritySnapshotFuzzTest, OutOfRangeParityStripeIsRefused) {
  const SsdConfig cfg = fuzz_ssd();
  // Twin arrays differing only in which stripe carries parity (0 vs 1):
  // the diverging u16 is the parity entry's stripe index.
  FlashArray zero(cfg);
  FlashArray one(cfg);
  Ppn first_zero = 0;
  Ppn first_one = 0;
  for (FlashArray* arr : {&zero, &one}) {
    arr->set_stripe_pages(4);
    for (Lpn lpn = 0; lpn < 8; ++lpn) {
      const Ppn p = arr->program(0, lpn);
      arr->note_program(p, static_cast<SimTime>(lpn + 1));
      if (lpn == 0) (arr == &zero ? first_zero : first_one) = p;
    }
  }
  const PhysAddr addr_zero = zero.address_map().to_addr(first_zero);
  const PhysAddr addr_one = one.address_map().to_addr(first_one);
  zero.set_stripe_parity(addr_zero.plane, addr_zero.block, 0);
  one.set_stripe_parity(addr_one.plane, addr_one.block, 1);
  std::string bytes = array_bytes(zero);
  const std::size_t at = first_diff(bytes, array_bytes(one));
  ASSERT_LT(at + 1, bytes.size());
  // Little-endian u16 stripe index: point it far past stripes_per_block.
  bytes[at] = static_cast<char>(0xff);
  bytes[at + 1] = static_cast<char>(0xff);

  FlashArray fresh(cfg);
  fresh.set_stripe_pages(4);
  SnapshotReader r(bytes);
  try {
    fresh.deserialize(r);
    FAIL() << "accepted an out-of-range parity stripe";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("parity entry contradicts"),
              std::string::npos);
  }
}

TEST(IntegritySnapshotFuzzTest, ParityWithoutStripesWiredIsRefused) {
  const SsdConfig cfg = fuzz_ssd();
  FlashArray source(cfg);
  source.set_stripe_pages(4);
  Ppn first = 0;
  for (Lpn lpn = 0; lpn < 4; ++lpn) {
    const Ppn p = source.program(0, lpn);
    source.note_program(p, static_cast<SimTime>(lpn + 1));
    if (lpn == 0) first = p;
  }
  const PhysAddr addr = source.address_map().to_addr(first);
  source.set_stripe_parity(addr.plane, addr.block, source.stripe_of(first));
  const std::string bytes = array_bytes(source);
  // A restore target with no parity wired cannot hold the parity bit.
  FlashArray fresh(cfg);
  SnapshotReader r(bytes);
  try {
    fresh.deserialize(r);
    FAIL() << "accepted stripe parity into a parity-free run";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("no parity stripes wired"),
              std::string::npos);
  }
}

TEST(IntegritySnapshotFuzzTest, MalformedGcCandidateIsRefused) {
  const SsdConfig cfg = fuzz_ssd();
  // Twin arrays whose one GC candidate differs only in its block (0 vs 1):
  // the first diverging byte starts that entry's u32 block, and the u32
  // before it is the entry's invalid count.
  FlashArray zero(cfg);
  FlashArray one(cfg);
  for (FlashArray* arr : {&zero, &one}) {
    std::vector<Ppn> ppns;
    for (Lpn lpn = 0; lpn < 17; ++lpn) ppns.push_back(arr->program(0, lpn));
    arr->invalidate(ppns[arr == &zero ? 0 : cfg.pages_per_block]);
  }
  const std::string bytes = array_bytes(zero);
  const std::size_t at = first_diff(bytes, array_bytes(one));
  ASSERT_GE(at, 4u);
  ASSERT_EQ(bytes[at - 4], 1);  // the invalid count
  ASSERT_EQ(bytes[at], 0);      // block 0

  auto with_u32 = [&](std::size_t pos, std::uint32_t v) {
    std::string out = bytes;
    for (int i = 0; i < 4; ++i) {
      out[pos + i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
    return out;
  };
  const std::string corrupt[] = {
      with_u32(at - 4, 0),                        // count 0
      with_u32(at - 4, cfg.pages_per_block + 1),  // count past the block
      with_u32(at, 100),                          // block 100 of 8
  };
  for (const std::string& c : corrupt) {
    FlashArray fresh(cfg);
    SnapshotReader r(c);
    try {
      fresh.deserialize(r);
      FAIL() << "accepted a malformed GC candidate";
    } catch (const SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find("plane 0 has GC candidate"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(IntegritySnapshotFuzzTest, ScrubCursorOutsideGeometryIsRefused) {
  // Advance the patrol cursor to block 9 on a 16-block device, then
  // restore into an 8-block device of identical plane/channel shape: the
  // cursor lands outside the geometry and must be refused before any
  // flash state is touched.
  const SsdConfig big = fuzz_ssd(16);
  Ftl ftl(big);
  FaultPlan plan;
  plan.spare_blocks_per_plane = 0;  // tiny devices: no room for spares
  plan.integrity.rber_base = 0.5;
  plan.integrity.scrub_error_limit = 200;  // armed: passes run, never fire
  plan.integrity.scrub_time_budget = 1;    // one block per pass
  FaultInjector injector(plan);
  ftl.set_fault_injector(&injector);
  SimTime t = 0;
  for (Lpn lpn = 0; lpn < 72; ++lpn) t = ftl.program_page(lpn, 1, t + 1);
  for (int pass = 0; pass < 9; ++pass) ftl.patrol_scrub(t + 1 + pass);

  SnapshotWriter w;
  ftl.serialize(w);
  const std::string bytes = w.take();

  Ftl small(fuzz_ssd(8));
  FaultInjector small_injector(plan);
  small.set_fault_injector(&small_injector);
  SnapshotReader r(bytes);
  try {
    small.deserialize(r);
    FAIL() << "accepted a scrub cursor beyond the last block";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("patrol-scrub cursor"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace reqblock
