// Differential check of the flash array's GC candidate index against the
// priority-queue reference (ReferenceGcHeap, reference_models.h).
//
// Random streams of host programs, invalidations, close_active calls and
// GC rounds (pick, copy the victim's valid pages, then erase or retire it)
// drive a FlashArray and, mirrored, one reference heap per plane. After
// every step each plane's victim pick, candidate entry count and the
// candidate entries in FlashArray::serialize bytes must equal the
// reference's, and the array's deep audit must pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "reference_models.h"
#include "snapshot/snapshot.h"
#include "ssd/flash_array.h"
#include "util/audit.h"
#include "util/rng.h"

namespace reqblock {
namespace {

using testing::ReferenceGcHeap;
using Entries = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// Each plane's GC candidate entries, read from FlashArray::serialize
/// bytes (the u64 entry count, then that many pairs); every other field
/// is read past.
std::vector<Entries> candidate_sections(const FlashArray& arr) {
  SnapshotWriter w;
  arr.serialize(w);
  const std::string bytes = w.take();
  SnapshotReader r(bytes);
  r.tag("flash_array");
  r.u64();  // total erases
  r.u64();  // total retired
  std::vector<Entries> out(r.u64());
  for (Entries& entries : out) {
    r.vec_u32();  // free list
    r.vec_u32();  // spare list
    r.u64();      // spares reserved
    r.u64();      // retired count
    r.b();        // degraded
    r.u32();      // active
    r.u64();      // valid pages
    for (std::uint64_t n = r.u64(); n > 0; --n) {
      const std::uint32_t count = r.u32();
      entries.emplace_back(count, r.u32());
    }
    for (std::uint64_t blocks = r.u64(); blocks > 0; --blocks) {
      const std::uint16_t write_ptr = r.u16();
      r.u16();  // valid
      r.u16();  // invalid
      r.u32();  // erases
      r.u32();  // reads
      r.i64();  // data origin
      r.b();    // marked bad
      r.b();    // retired
      for (std::uint16_t p = 0; p < write_ptr; ++p) {
        r.u8();
        r.u32();
      }
      for (std::uint16_t e = r.u16(); e > 0; --e) {
        r.u16();
        r.u8();
      }
      for (std::uint16_t e = r.u16(); e > 0; --e) r.u16();
    }
  }
  r.expect_end();
  return out;
}

/// A FlashArray with one reference heap per plane, every mutation applied
/// to both.
class Mirror {
 public:
  explicit Mirror(const SsdConfig& cfg) : arr_(cfg) {
    const bool wear_aware =
        cfg.gc_victim_policy == SsdConfig::GcVictimPolicy::kWearAware;
    for (std::uint32_t p = 0; p < cfg.total_planes(); ++p) {
      refs_.emplace_back(static_cast<std::uint32_t>(cfg.blocks_per_plane()),
                         wear_aware, cfg.gc_wear_tie_margin);
    }
    valid_.resize(cfg.total_planes());
  }

  FlashArray& array() { return arr_; }
  std::uint64_t valid(std::uint32_t plane) const {
    return valid_[plane].size();
  }

  Ppn program(std::uint32_t plane, Lpn lpn) {
    const Ppn ppn = arr_.program(plane, lpn);
    refs_[plane].on_program(block_of(ppn));
    valid_[plane].push_back(ppn);
    return ppn;
  }

  void invalidate(std::uint32_t plane, std::size_t index) {
    const Ppn ppn = valid_[plane][index];
    arr_.invalidate(ppn);
    refs_[plane].on_invalidate(block_of(ppn));
    valid_[plane][index] = valid_[plane].back();
    valid_[plane].pop_back();
  }

  void close_active(std::uint32_t plane) {
    arr_.close_active(plane);
    refs_[plane].on_close_active();
  }

  void erase(std::uint32_t plane, std::uint32_t block) {
    arr_.erase_block(plane, block);
    refs_[plane].on_erase(block);
  }

  /// Both picks (kNoBlock and ReferenceGcHeap::kNone are both ~0u).
  std::uint32_t pick(std::uint32_t plane) {
    const std::uint32_t got = arr_.pick_gc_victim(plane);
    EXPECT_EQ(got, refs_[plane].pick()) << "plane " << plane;
    return got;
  }

  /// One GC round, in the FTL's order: copies the victim's valid pages
  /// (program, then invalidate the old copy), then erases it, or retires
  /// it when `retire` and a spare can replace it. False when no block
  /// qualified.
  bool collect(std::uint32_t plane, bool retire) {
    const std::uint32_t victim = pick(plane);
    if (victim == FlashArray::kNoBlock) return false;
    std::vector<std::pair<Ppn, Lpn>> moves;
    arr_.for_each_valid_page(plane, victim,
                             [&](Ppn old, Lpn lpn, std::uint64_t) {
                               moves.emplace_back(old, lpn);
                             });
    for (const auto& [old, lpn] : moves) {
      program(plane, lpn);
      const auto at =
          std::find(valid_[plane].begin(), valid_[plane].end(), old);
      invalidate(plane, static_cast<std::size_t>(at - valid_[plane].begin()));
    }
    if (retire && arr_.spare_available(plane)) {
      arr_.retire_block(plane, victim);
      refs_[plane].on_retire(victim);
    } else {
      erase(plane, victim);
    }
    return true;
  }

  /// Picks on `plane`, then compares every plane's serialized entry
  /// count and candidate entries, and runs the deep audit.
  void check(std::uint32_t plane, std::uint64_t step) {
    SCOPED_TRACE("step " + std::to_string(step));
    pick(plane);
    const std::vector<Entries> sections = candidate_sections(arr_);
    ASSERT_EQ(sections.size(), refs_.size());
    for (std::uint32_t p = 0; p < refs_.size(); ++p) {
      EXPECT_EQ(sections[p].size(), refs_[p].size()) << "plane " << p;
      ASSERT_EQ(sections[p], refs_[p].drained()) << "plane " << p;
    }
    AuditReport report("flash array");
    arr_.audit(report);
    ASSERT_TRUE(report.ok()) << report.to_string();
  }

 private:
  std::uint32_t block_of(Ppn ppn) const {
    return arr_.address_map().to_addr(ppn).block;
  }

  FlashArray arr_;
  std::vector<ReferenceGcHeap> refs_;
  std::vector<std::vector<Ppn>> valid_;  // per plane, unordered
};

/// 2 planes x 16 blocks x 8 pages, or a non-power-of-two shape: 3 planes
/// x 12 blocks x 6 pages.
SsdConfig stream_ssd(bool power_of_two,
                     SsdConfig::GcVictimPolicy victim_policy) {
  SsdConfig cfg;
  cfg.channels = power_of_two ? 2 : 3;
  cfg.chips_per_channel = 1;
  cfg.pages_per_block = power_of_two ? 8 : 6;
  const std::uint64_t blocks = power_of_two ? 16 : 12;
  cfg.capacity_bytes =
      cfg.channels * blocks * cfg.pages_per_block * cfg.page_size;
  cfg.gc_victim_policy = victim_policy;
  cfg.validate();
  return cfg;
}

void run_stream(const SsdConfig& cfg, std::uint64_t seed,
                std::uint64_t steps) {
  Mirror m(cfg);
  m.array().reserve_spares(2);
  Rng rng(seed);
  const std::uint32_t planes = cfg.total_planes();
  // Occupancy stays well below the GC operating point, so copyback always
  // finds room.
  const std::uint64_t cap =
      (cfg.blocks_per_plane() - cfg.gc_threshold_blocks() - 4) *
      cfg.pages_per_block;
  Lpn next_lpn = 0;
  for (std::uint64_t step = 0; step < steps; ++step) {
    const auto plane = static_cast<std::uint32_t>(rng.next_below(planes));
    const std::uint64_t action = rng.next_below(100);
    if (action < 45) {
      while (m.array().gc_needed(plane) && m.collect(plane, false)) {
      }
      // A block whose live entry popped while it was active stays out of
      // the index until its next invalidation, so GC can come up empty.
      if (!m.array().gc_needed(plane) && m.valid(plane) < cap) {
        m.program(plane, next_lpn++);
      }
    } else if (action < 85) {
      if (m.valid(plane) > 0) {
        m.invalidate(plane, rng.next_below(m.valid(plane)));
      }
    } else if (action < 95) {
      m.collect(plane, rng.next_below(8) == 0);
    } else {
      m.close_active(plane);
    }
    m.check(plane, step);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(GcIndexDifferentialTest, GreedyMatchesTheHeapReference) {
  for (const bool pow2 : {true, false}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(std::string(pow2 ? "pow2" : "non-pow2") + " seed " +
                   std::to_string(seed));
      run_stream(stream_ssd(pow2, SsdConfig::GcVictimPolicy::kGreedy), seed,
                 1500);
    }
  }
}

TEST(GcIndexDifferentialTest, WearAwareMatchesTheHeapReference) {
  for (const bool pow2 : {true, false}) {
    for (const std::uint64_t seed : {4u, 5u, 6u}) {
      SCOPED_TRACE(std::string(pow2 ? "pow2" : "non-pow2") + " seed " +
                   std::to_string(seed));
      SsdConfig cfg = stream_ssd(pow2, SsdConfig::GcVictimPolicy::kWearAware);
      cfg.gc_wear_tie_margin = 3;
      run_stream(cfg, seed, 1500);
    }
  }
}

// Erasing a block without picking it leaves its entries (1..8, block) in
// the index as stale copies, one more per cycle. 300 cycles push every
// copy count past one byte, into the overflow store. Refilling the block
// and invalidating three pages then makes (3, block) live with 301
// copies: the pick pops the stale counts above it, and a wear-aware scan
// pops it with all its copies and pushes them back.
TEST(GcIndexDifferentialTest, CopyCountsPastOneByteMatchTheReference) {
  for (const auto policy : {SsdConfig::GcVictimPolicy::kGreedy,
                            SsdConfig::GcVictimPolicy::kWearAware}) {
    Mirror m(stream_ssd(true, policy));
    auto fill = [&m] {
      m.close_active(0);
      std::uint32_t block = FlashArray::kNoBlock;
      for (Lpn lpn = 0; lpn < 8; ++lpn) {
        block = m.array().address_map().to_addr(m.program(0, lpn)).block;
      }
      m.close_active(0);
      return block;
    };
    std::uint32_t block = FlashArray::kNoBlock;
    for (std::uint64_t cycle = 0; cycle < 300; ++cycle) {
      block = fill();
      while (m.valid(0) > 0) m.invalidate(0, 0);
      m.erase(0, block);
    }
    EXPECT_EQ(candidate_sections(m.array())[0].size(), 300u * 8);
    AuditReport report("flash array");
    m.array().audit(report);
    EXPECT_TRUE(report.ok()) << report.to_string();

    ASSERT_EQ(fill(), block);  // the free list hands the block back
    for (int i = 0; i < 3; ++i) m.invalidate(0, 0);
    m.check(0, 0);
    EXPECT_EQ(candidate_sections(m.array())[0].size(),
              policy == SsdConfig::GcVictimPolicy::kGreedy ? 3u * 301
                                                           : 301u);
  }
}

}  // namespace
}  // namespace reqblock
