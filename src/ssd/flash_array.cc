#include "ssd/flash_array.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <string>
#include <utility>

#include "snapshot/snapshot.h"
#include "util/check.h"

namespace reqblock {
namespace {

/// A candidate copy count at or above this lives in the overflow map.
constexpr std::uint8_t kSaturated = 0xff;

const SsdConfig& validated(const SsdConfig& cfg) {
  cfg.validate();
  return cfg;
}

}  // namespace

FlashArray::FlashArray(const SsdConfig& cfg)
    : cfg_(validated(cfg)),
      amap_(cfg_),
      gc_threshold_(cfg_.gc_threshold_blocks()) {
  planes_.resize(cfg_.total_planes());
  const auto bpp = static_cast<std::uint32_t>(amap_.blocks_per_plane());
  for (auto& plane : planes_) {
    plane.blocks.resize(bpp);
    // LIFO: block 0 sits at the back and is allocated first.
    plane.free_list.resize(bpp);
    std::iota(plane.free_list.rbegin(), plane.free_list.rend(), 0u);
  }
}

FlashArray::Block& FlashArray::block_at(std::uint32_t plane,
                                        std::uint32_t block) {
  REQB_DCHECK(plane < planes_.size());
  REQB_DCHECK(block < planes_[plane].blocks.size());
  return planes_[plane].blocks[block];
}

const FlashArray::Block& FlashArray::block_at(std::uint32_t plane,
                                              std::uint32_t block) const {
  REQB_DCHECK(plane < planes_.size());
  REQB_DCHECK(block < planes_[plane].blocks.size());
  return planes_[plane].blocks[block];
}

FlashArray::PageSlot& FlashArray::valid_slot(Ppn ppn) {
  return const_cast<PageSlot&>(std::as_const(*this).valid_slot(ppn));
}

const FlashArray::PageSlot& FlashArray::valid_slot(Ppn ppn) const {
  const PageLoc loc = amap_.locate(ppn);
  const Block& b = block_at(loc);
  REQB_CHECK_MSG(b.slots && b.slots[loc.page].state == PageState::kValid,
                 "page access on a non-valid page");
  return b.slots[loc.page];
}

void FlashArray::ensure_storage(Block& b) {
  if (b.slots) return;
  b.slots = std::make_unique<PageSlot[]>(cfg_.pages_per_block);
}

void FlashArray::ensure_parity_storage(Block& b) {
  if (b.stripe_parity) return;
  const std::uint32_t stripes = stripes_per_block();
  REQB_DCHECK(stripes > 0);
  b.stripe_parity = std::make_unique<std::uint8_t[]>(stripes);
  std::fill_n(b.stripe_parity.get(), stripes, static_cast<std::uint8_t>(0));
}

void FlashArray::clear_pages(Block& b) {
  // Pages at or past the write pointer were never programmed, so only the
  // written prefix needs resetting.
  if (b.slots) std::fill_n(b.slots.get(), b.write_ptr, PageSlot{});
  if (b.stripe_parity) {
    std::fill_n(b.stripe_parity.get(), stripes_per_block(),
                static_cast<std::uint8_t>(0));
  }
}

Ppn FlashArray::program(std::uint32_t plane, Lpn lpn,
                        std::uint64_t version) {
  REQB_CHECK_MSG(lpn <= 0xffffffffULL,
                 "flash array stores LPNs as 32-bit; footprint too large");
  Plane& pl = planes_[plane];
  if (pl.active == kNoBlock ||
      block_at(plane, pl.active).write_ptr >= cfg_.pages_per_block) {
    REQB_CHECK_MSG(!pl.free_list.empty(),
                   "plane out of free blocks — GC must run before program");
    pl.active = pl.free_list.back();
    pl.free_list.pop_back();
  }
  Block& b = block_at(plane, pl.active);
  ensure_storage(b);
  const std::uint32_t page = b.write_ptr++;
  PageSlot& slot = b.slots[page];
  REQB_DCHECK(slot.state == PageState::kFree && slot.errors == 0);
  slot.state = PageState::kValid;
  slot.lpn = static_cast<std::uint32_t>(lpn);
  slot.version = version;
  ++b.valid_count;
  ++pl.valid_pages;
  return amap_.to_ppn(plane, pl.active, page);
}

void FlashArray::invalidate(Ppn ppn) {
  const PageLoc loc = amap_.locate(ppn);
  Plane& pl = planes_[loc.plane];
  Block& b = block_at(loc);
  REQB_CHECK_MSG(b.slots && b.slots[loc.page].state == PageState::kValid,
                 "invalidate of a non-valid page");
  b.slots[loc.page].state = PageState::kInvalid;
  REQB_DCHECK(b.valid_count > 0);
  --b.valid_count;
  ++b.invalid_count;
  REQB_DCHECK(pl.valid_pages > 0);
  --pl.valid_pages;
  push_candidate(pl, b.invalid_count, loc.block);
}

PageState FlashArray::state(Ppn ppn) const {
  const PageLoc loc = amap_.locate(ppn);
  const Block& b = block_at(loc);
  return b.slots ? b.slots[loc.page].state : PageState::kFree;
}

Lpn FlashArray::lpn_at(Ppn ppn) const { return valid_slot(ppn).lpn; }

std::uint64_t FlashArray::version_at(Ppn ppn) const {
  return valid_slot(ppn).version;
}

void FlashArray::set_version(Ppn ppn, std::uint64_t version) {
  valid_slot(ppn).version = version;
}

std::uint64_t FlashArray::free_blocks(std::uint32_t plane) const {
  REQB_DCHECK(plane < planes_.size());
  return planes_[plane].free_list.size();
}

bool FlashArray::gc_needed(std::uint32_t plane) const {
  return free_blocks(plane) <= gc_threshold_;
}

std::uint64_t FlashArray::candidate_copies(const Plane& pl, std::uint32_t row,
                                           std::uint32_t count) const {
  const std::size_t at = copy_index(row, count);
  const std::uint8_t copies = pl.candidates.copies[at];
  return copies == kSaturated ? pl.candidates.overflow.at(at) : copies;
}

void FlashArray::push_candidate(Plane& pl, std::uint32_t count,
                                std::uint32_t block, std::uint64_t copies) {
  REQB_DCHECK(count >= 1 && count <= cfg_.pages_per_block);
  CandidateIndex& idx = pl.candidates;
  if (idx.heaps.empty()) idx.heaps.resize(cfg_.pages_per_block);
  Block& b = pl.blocks[block];
  if (b.candidate_row == 0) {
    idx.copies.resize(idx.copies.size() + cfg_.pages_per_block, 0);
    b.candidate_row =
        static_cast<std::uint32_t>(idx.copies.size() / cfg_.pages_per_block);
  }
  const std::size_t at = copy_index(b.candidate_row, count);
  std::uint8_t& held = idx.copies[at];
  if (held == 0) {
    std::vector<std::uint32_t>& heap = idx.heaps[count - 1];
    heap.push_back(block);
    std::push_heap(heap.begin(), heap.end());
    idx.top = std::max(idx.top, count);
  }
  if (held == kSaturated) {
    idx.overflow.at(at) += copies;
  } else if (held + copies < kSaturated) {
    held = static_cast<std::uint8_t>(held + copies);
  } else {
    idx.overflow.emplace(at, held + copies);
    held = kSaturated;
  }
  idx.entries += copies;
}

std::uint64_t FlashArray::pop_candidate(Plane& pl) {
  CandidateIndex& idx = pl.candidates;
  REQB_DCHECK(idx.top > 0);
  std::vector<std::uint32_t>& heap = idx.heaps[idx.top - 1];
  const std::uint32_t block = heap.front();
  std::pop_heap(heap.begin(), heap.end());
  heap.pop_back();
  const std::size_t at = copy_index(pl.blocks[block].candidate_row, idx.top);
  std::uint64_t copies = idx.copies[at];
  if (copies == kSaturated) {
    const auto it = idx.overflow.find(at);
    copies = it->second;
    idx.overflow.erase(it);
  }
  idx.copies[at] = 0;
  idx.entries -= copies;
  while (idx.top > 0 && idx.heaps[idx.top - 1].empty()) --idx.top;
  return copies;
}

std::uint32_t FlashArray::pick_gc_victim(std::uint32_t plane) {
  Plane& pl = planes_[plane];
  // Walks the candidates in the order a max-heap of (count, block) pairs
  // pops them. The top entry is live when it names an inactive block whose
  // invalid count still equals the entry's count (counts are at least 1,
  // so an erased block's entries are never live). A stale top entry
  // leaves for good; its copies would pop one after another, so they all
  // leave at once. A live entry for the block's current count exists
  // elsewhere in the index.
  auto next_live_top = [&]() -> std::uint32_t {
    while (pl.candidates.top > 0) {
      const std::uint32_t block = top_candidate(pl);
      if (block == pl.active ||
          pl.blocks[block].invalid_count != pl.candidates.top) {
        pop_candidate(pl);
        continue;
      }
      return block;
    }
    return kNoBlock;
  };

  const std::uint32_t best = next_live_top();
  if (best == kNoBlock ||
      cfg_.gc_victim_policy == SsdConfig::GcVictimPolicy::kGreedy) {
    return best;
  }

  // Wear-aware: inspect every live candidate whose invalid count is within
  // the tie margin of the best and pick the least-erased. Entries are
  // popped while scanning and pushed back afterwards, every copy included.
  const std::uint32_t best_cnt = block_at(plane, best).invalid_count;
  const std::uint32_t floor_cnt =
      best_cnt > cfg_.gc_wear_tie_margin ? best_cnt - cfg_.gc_wear_tie_margin
                                         : 1;
  std::uint32_t victim = best;
  struct Scanned {
    std::uint32_t count;
    std::uint32_t block;
    std::uint64_t copies;
  };
  std::vector<Scanned> scanned;
  while (true) {
    const std::uint32_t cand = next_live_top();
    if (cand == kNoBlock) break;
    const Block& b = block_at(plane, cand);
    if (b.invalid_count < floor_cnt) break;
    scanned.push_back({b.invalid_count, cand, pop_candidate(pl)});
    if (b.erase_count < block_at(plane, victim).erase_count) victim = cand;
  }
  for (const Scanned& e : scanned) {
    push_candidate(pl, e.count, e.block, e.copies);
  }
  return victim;
}

void FlashArray::erase_block(std::uint32_t plane, std::uint32_t block) {
  Plane& pl = planes_[plane];
  Block& b = block_at(plane, block);
  REQB_CHECK_MSG(b.valid_count == 0,
                 "erase of a block that still holds valid pages");
  REQB_CHECK_MSG(block != pl.active, "erase of the active block");
  REQB_CHECK_MSG(!b.retired, "erase of a retired block");
  clear_pages(b);
  b.write_ptr = 0;
  b.invalid_count = 0;
  b.read_count = 0;
  b.data_origin = 0;
  ++b.erase_count;
  ++total_erases_;
  pl.free_list.push_back(block);
}

FlashArray::BlockWear FlashArray::block_wear(std::uint32_t plane,
                                             std::uint32_t block) const {
  const Block& b = block_at(plane, block);
  return BlockWear{b.erase_count, b.read_count, b.data_origin};
}

void FlashArray::note_read(std::uint32_t plane, std::uint32_t block) {
  ++block_at(plane, block).read_count;
}

void FlashArray::note_program(Ppn ppn, SimTime now) {
  const PageLoc loc = amap_.locate(ppn);
  Block& b = block_at(loc);
  b.read_count = 0;
  if (loc.page == 0) b.data_origin = now;
}

void FlashArray::pre_age(std::uint32_t cycles) {
  REQB_CHECK_MSG(total_erases_ == 0 && initial_pe_ == 0,
                 "pre_age must run at wiring time, before any traffic");
  if (cycles == 0) return;
  initial_pe_ = cycles;
  for (Plane& pl : planes_) {
    for (Block& b : pl.blocks) b.erase_count += cycles;
  }
}

void FlashArray::set_stripe_pages(std::uint32_t pages) {
  REQB_CHECK_MSG(total_erases_ == 0,
                 "set_stripe_pages must run at wiring time, before traffic");
  REQB_CHECK_MSG(pages == 0 || pages <= cfg_.pages_per_block,
                 "parity stripe cannot span more pages than a block holds");
  stripe_pages_ = pages;
}

std::uint32_t FlashArray::stripe_of(Ppn ppn) const {
  REQB_DCHECK(stripe_pages_ > 0);
  return amap_.page_of(ppn) / stripe_pages_;
}

bool FlashArray::closes_stripe(Ppn ppn) const {
  if (stripe_pages_ == 0) return false;
  return (amap_.page_of(ppn) + 1) % stripe_pages_ == 0;
}

bool FlashArray::stripe_parity_present(std::uint32_t plane,
                                       std::uint32_t block,
                                       std::uint32_t stripe) const {
  const Block& b = block_at(plane, block);
  if (!b.stripe_parity) return false;
  // Tail pages past the last full stripe (pages_per_block not a multiple
  // of stripe_pages) never close a stripe and are never protected.
  if (stripe >= stripes_per_block()) return false;
  return b.stripe_parity[stripe] != 0;
}

void FlashArray::set_stripe_parity(std::uint32_t plane, std::uint32_t block,
                                   std::uint32_t stripe) {
  Block& b = block_at(plane, block);
  ensure_parity_storage(b);
  REQB_DCHECK(stripe < stripes_per_block());
  // Parity closes exactly when the stripe's last data page programs, so
  // the whole stripe must be physically written.
  REQB_DCHECK(static_cast<std::uint32_t>(b.write_ptr) >=
              (stripe + 1) * stripe_pages_);
  b.stripe_parity[stripe] = 1;
}

std::uint8_t FlashArray::note_page_error(Ppn ppn) {
  const PageLoc loc = amap_.locate(ppn);
  Block& b = block_at(loc);
  REQB_DCHECK(loc.page < b.write_ptr);
  std::uint8_t& errors = b.slots[loc.page].errors;
  if (errors < 0xff) ++errors;
  return errors;
}

std::uint8_t FlashArray::page_errors(Ppn ppn) const {
  const PageLoc loc = amap_.locate(ppn);
  const Block& b = block_at(loc);
  return b.slots ? b.slots[loc.page].errors : 0;
}

std::uint32_t FlashArray::max_page_errors(std::uint32_t plane,
                                          std::uint32_t block) const {
  const Block& b = block_at(plane, block);
  std::uint32_t worst = 0;
  for (std::uint32_t p = 0; p < b.write_ptr; ++p) {
    worst = std::max<std::uint32_t>(worst, b.slots[p].errors);
  }
  return worst;
}

std::uint64_t FlashArray::reclaimable_blocks(std::uint32_t plane) const {
  REQB_DCHECK(plane < planes_.size());
  const Plane& pl = planes_[plane];
  const std::uint64_t usable =
      pl.blocks.size() - pl.retired_count - pl.spare_list.size();
  const std::uint64_t data_blocks =
      (pl.valid_pages + cfg_.pages_per_block - 1) / cfg_.pages_per_block;
  return usable > data_blocks ? usable - data_blocks : 0;
}

std::uint64_t FlashArray::spares_total() const {
  std::uint64_t total = 0;
  for (const Plane& pl : planes_) total += pl.spare_list.size();
  return total;
}

std::uint32_t FlashArray::erase_count(std::uint32_t plane,
                                      std::uint32_t block) const {
  return block_at(plane, block).erase_count;
}

void FlashArray::reserve_spares(std::uint32_t per_plane) {
  for (std::uint32_t p = 0; p < planes_.size(); ++p) {
    Plane& pl = planes_[p];
    REQB_CHECK_MSG(pl.spare_list.empty(), "spares already reserved");
    REQB_CHECK_MSG(pl.free_list.size() > per_plane + gc_threshold_ + 1,
                   "spare pool would leave the plane unable to allocate");
    for (std::uint32_t i = 0; i < per_plane; ++i) {
      pl.spare_list.push_back(pl.free_list.back());
      pl.free_list.pop_back();
    }
    pl.spares_reserved = per_plane;
  }
}

bool FlashArray::mark_bad(std::uint32_t plane, std::uint32_t block) {
  Block& b = block_at(plane, block);
  REQB_CHECK_MSG(!b.retired, "marking a retired block bad");
  if (b.marked_bad) return false;
  b.marked_bad = true;
  return true;
}

bool FlashArray::is_marked_bad(std::uint32_t plane,
                               std::uint32_t block) const {
  return block_at(plane, block).marked_bad;
}

bool FlashArray::retire_block(std::uint32_t plane, std::uint32_t block) {
  Plane& pl = planes_[plane];
  Block& b = block_at(plane, block);
  REQB_CHECK_MSG(b.valid_count == 0,
                 "retire of a block that still holds valid pages");
  REQB_CHECK_MSG(block != pl.active, "retire of the active block");
  REQB_CHECK_MSG(!b.retired, "double retirement");
  clear_pages(b);
  b.write_ptr = 0;
  b.invalid_count = 0;
  b.read_count = 0;
  b.data_origin = 0;
  b.retired = true;
  ++pl.retired_count;
  ++total_retired_;
  if (!pl.spare_list.empty()) {
    // Remap: a spare takes the retired block's place in the free pool.
    pl.free_list.push_back(pl.spare_list.back());
    pl.spare_list.pop_back();
    return false;
  }
  if (pl.degraded) return false;
  pl.degraded = true;
  return true;
}

void FlashArray::close_active(std::uint32_t plane) {
  planes_[plane].active = kNoBlock;
}

bool FlashArray::can_lose_block(std::uint32_t plane) const {
  REQB_DCHECK(plane < planes_.size());
  const Plane& pl = planes_[plane];
  // Hard budget: capacity actually lost (retirements not absorbed by a
  // spare remap) never exceeds one GC-threshold's worth of blocks. The
  // plane's current occupancy is a poor predictor of its future share —
  // data written while the plane was near-empty redistributes later — so
  // the bound must not depend on it.
  const std::uint64_t spares_used = pl.spares_reserved - pl.spare_list.size();
  const std::uint64_t capacity_lost = pl.retired_count - spares_used;
  if (capacity_lost >= gc_threshold_) return false;
  const std::uint64_t usable =
      pl.blocks.size() - pl.retired_count - pl.spare_list.size();
  const std::uint64_t data_blocks =
      (pl.valid_pages + cfg_.pages_per_block - 1) / cfg_.pages_per_block;
  return usable > data_blocks + gc_threshold_ + 2;
}

bool FlashArray::can_accept_page(std::uint32_t plane) const {
  REQB_DCHECK(plane < planes_.size());
  const Plane& pl = planes_[plane];
  const std::uint64_t usable =
      pl.blocks.size() - pl.retired_count - pl.spare_list.size();
  const std::uint64_t reserve = gc_threshold_ + 2;
  if (usable <= reserve) return false;
  return pl.valid_pages + 1 <= (usable - reserve) * cfg_.pages_per_block;
}

std::uint64_t FlashArray::spares_remaining(std::uint32_t plane) const {
  REQB_DCHECK(plane < planes_.size());
  return planes_[plane].spare_list.size();
}

bool FlashArray::plane_degraded(std::uint32_t plane) const {
  REQB_DCHECK(plane < planes_.size());
  return planes_[plane].degraded;
}

FlashArray::WearStats FlashArray::wear_stats() const {
  WearStats stats;
  stats.min_erases = ~0u;
  double sum = 0.0;
  std::uint64_t blocks = 0;
  for (const auto& plane : planes_) {
    for (const auto& block : plane.blocks) {
      stats.min_erases = std::min(stats.min_erases, block.erase_count);
      stats.max_erases = std::max(stats.max_erases, block.erase_count);
      sum += block.erase_count;
      ++blocks;
      if (block.erase_count > 0) ++stats.blocks_touched;
    }
  }
  if (blocks == 0) {
    stats.min_erases = 0;
  } else {
    stats.mean_erases = sum / static_cast<double>(blocks);
  }
  return stats;
}

std::uint64_t FlashArray::valid_page_count(std::uint32_t plane) const {
  REQB_DCHECK(plane < planes_.size());
  return planes_[plane].valid_pages;
}

void FlashArray::audit(AuditReport& report) const {
  for (std::uint32_t p = 0; p < planes_.size(); ++p) {
    const Plane& pl = planes_[p];
    const std::string plane_tag = "plane " + std::to_string(p);
    REQB_AUDIT_MSG(report,
                   pl.active == kNoBlock || pl.active < pl.blocks.size(),
                   plane_tag + " active block index out of range");

    std::vector<bool> on_free_list(pl.blocks.size(), false);
    for (const std::uint32_t b : pl.free_list) {
      if (!REQB_AUDIT_MSG(report, b < pl.blocks.size(),
                          plane_tag + " free list holds invalid block " +
                              std::to_string(b))) {
        continue;
      }
      REQB_AUDIT_MSG(report, !on_free_list[b],
                     plane_tag + " free list holds block " +
                         std::to_string(b) + " twice");
      on_free_list[b] = true;
      REQB_AUDIT_MSG(report, b != pl.active,
                     plane_tag + " active block " + std::to_string(b) +
                         " is on the free list");
      const Block& blk = pl.blocks[b];
      REQB_AUDIT_MSG(report,
                     blk.write_ptr == 0 && blk.valid_count == 0 &&
                         blk.invalid_count == 0,
                     plane_tag + " free block " + std::to_string(b) +
                         " is not empty");
      REQB_AUDIT_MSG(report, blk.read_count == 0 && blk.data_origin == 0,
                     plane_tag + " free block " + std::to_string(b) +
                         " carries stale wear state");
      REQB_AUDIT_MSG(report, !blk.retired,
                     plane_tag + " retired block " + std::to_string(b) +
                         " is on the free list");
    }

    for (const std::uint32_t b : pl.spare_list) {
      if (!REQB_AUDIT_MSG(report, b < pl.blocks.size(),
                          plane_tag + " spare list holds invalid block " +
                              std::to_string(b))) {
        continue;
      }
      REQB_AUDIT_MSG(report, !on_free_list[b],
                     plane_tag + " block " + std::to_string(b) +
                         " is on both the free and spare lists");
      REQB_AUDIT_MSG(report, b != pl.active,
                     plane_tag + " active block " + std::to_string(b) +
                         " is on the spare list");
      const Block& blk = pl.blocks[b];
      REQB_AUDIT_MSG(report,
                     blk.write_ptr == 0 && blk.valid_count == 0 &&
                         !blk.retired,
                     plane_tag + " spare block " + std::to_string(b) +
                         " is not an empty in-service block");
    }
    REQB_AUDIT_MSG(report, !pl.degraded || pl.spare_list.empty(),
                   plane_tag + " degraded while spares remain");

    std::uint64_t plane_retired = 0;
    std::uint64_t plane_valid = 0;
    for (std::uint32_t b = 0; b < pl.blocks.size(); ++b) {
      const Block& blk = pl.blocks[b];
      const std::string tag =
          plane_tag + " block " + std::to_string(b);
      REQB_AUDIT_MSG(report, blk.write_ptr <= cfg_.pages_per_block,
                     tag + " write pointer past the block end");
      if (blk.retired) {
        ++plane_retired;
        REQB_AUDIT_MSG(report, blk.write_ptr == 0 && blk.valid_count == 0 &&
                           blk.invalid_count == 0,
                       tag + " retired but not empty");
        REQB_AUDIT_MSG(report, b != pl.active, tag + " retired yet active");
        REQB_AUDIT_MSG(report,
                       blk.read_count == 0 && blk.data_origin == 0,
                       tag + " retired but carries wear state");
      }
      REQB_AUDIT_MSG(report, blk.erase_count >= initial_pe_,
                     tag + " P/E count " + std::to_string(blk.erase_count) +
                         " fell below the pre-age floor " +
                         std::to_string(initial_pe_));
      REQB_AUDIT_MSG(report, blk.write_ptr > 0 || blk.read_count == 0,
                     tag + " counts reads but holds no programmed pages");
      REQB_AUDIT_MSG(report,
                     blk.valid_count + blk.invalid_count == blk.write_ptr,
                     tag + " counters " + std::to_string(blk.valid_count) +
                         "+" + std::to_string(blk.invalid_count) +
                         " disagree with write pointer " +
                         std::to_string(blk.write_ptr));
      plane_valid += blk.valid_count;
      // Integrity state tracks programmed pages only: free and retired
      // blocks (write_ptr 0) must carry no error counts or parity bits.
      if (blk.stripe_parity) {
        for (std::uint32_t s = 0; s < stripes_per_block(); ++s) {
          REQB_AUDIT_MSG(report,
                         blk.stripe_parity[s] == 0 ||
                             static_cast<std::uint32_t>(blk.write_ptr) >=
                                 (s + 1) * stripe_pages_,
                         tag + " stripe " + std::to_string(s) +
                             " has parity but incomplete data pages");
        }
      }
      if (!blk.slots) {
        REQB_AUDIT_MSG(report, blk.write_ptr == 0 && blk.valid_count == 0,
                       tag + " has pages but no materialized storage");
        continue;
      }
      std::uint32_t valid = 0, invalid = 0;
      for (std::uint32_t page = 0; page < cfg_.pages_per_block; ++page) {
        const PageSlot& slot = blk.slots[page];
        const PageState s = slot.state;
        if (s == PageState::kValid) ++valid;
        if (s == PageState::kInvalid) ++invalid;
        REQB_AUDIT_MSG(report,
                       page < blk.write_ptr ? s != PageState::kFree
                                            : s == PageState::kFree,
                       tag + " page " + std::to_string(page) +
                           " state contradicts the write pointer");
        REQB_AUDIT_MSG(report, slot.errors == 0 || page < blk.write_ptr,
                       tag + " page " + std::to_string(page) +
                           " counts errors but was never programmed");
      }
      REQB_AUDIT_MSG(report,
                     valid == blk.valid_count && invalid == blk.invalid_count,
                     tag + " states count " + std::to_string(valid) + "v/" +
                         std::to_string(invalid) + "i, counters say " +
                         std::to_string(blk.valid_count) + "v/" +
                         std::to_string(blk.invalid_count) + "i");
    }
    REQB_AUDIT_MSG(report, plane_valid == pl.valid_pages,
                   plane_tag + " blocks hold " + std::to_string(plane_valid) +
                       " valid pages, counter says " +
                       std::to_string(pl.valid_pages));
    REQB_AUDIT_MSG(report, plane_retired == pl.retired_count,
                   plane_tag + " holds " + std::to_string(plane_retired) +
                       " retired blocks, counter says " +
                       std::to_string(pl.retired_count));

    audit_candidates(p, report);
  }

  // P/E accounting closes: every erase either rode total_erases_ or was
  // part of the uniform pre-age.
  std::uint64_t erase_sum = 0;
  std::uint64_t block_count = 0;
  for (const auto& plane : planes_) {
    for (const auto& block : plane.blocks) {
      erase_sum += block.erase_count;
      ++block_count;
    }
  }
  REQB_AUDIT_MSG(
      report,
      erase_sum == total_erases_ +
                       static_cast<std::uint64_t>(initial_pe_) * block_count,
      "per-block P/E counts sum to " + std::to_string(erase_sum) +
          ", expected total_erases " + std::to_string(total_erases_) +
          " + pre-age " + std::to_string(initial_pe_) + " x " +
          std::to_string(block_count) + " blocks");
}

void FlashArray::audit_candidates(std::uint32_t plane,
                                  AuditReport& report) const {
  const Plane& pl = planes_[plane];
  const CandidateIndex& idx = pl.candidates;
  const std::string tag = "plane " + std::to_string(plane) + " GC index";
  if (idx.heaps.empty()) {
    REQB_AUDIT_MSG(report, idx.entries == 0 && idx.top == 0,
                   tag + " holds entries but no heaps");
    return;
  }
  const std::uint32_t ppb = cfg_.pages_per_block;
  // Each count's heap holds distinct in-range blocks with a row and a
  // copy count above 0. Retired blocks must be invisible to victim
  // selection: a live entry (its count still matches the block's, the
  // only kind pick_gc_victim acts on) must name an in-service block.
  std::uint64_t heap_copies = 0;
  std::uint32_t top = 0;
  std::vector<bool> seen(pl.blocks.size());
  for (std::uint32_t count = 1; count <= ppb; ++count) {
    const std::vector<std::uint32_t>& heap = idx.heaps[count - 1];
    if (!heap.empty()) top = count;
    REQB_AUDIT_MSG(report, std::is_heap(heap.begin(), heap.end()),
                   tag + " count " + std::to_string(count) +
                       " is not a max-heap");
    for (const std::uint32_t b : heap) {
      auto entry = [&] {
        return tag + " entry (" + std::to_string(count) + ", " +
               std::to_string(b) + ")";
      };
      if (!REQB_AUDIT_MSG(report,
                          b < pl.blocks.size() &&
                              pl.blocks[b].candidate_row != 0,
                          entry() + " names a block without a row")) {
        continue;
      }
      REQB_AUDIT_MSG(report, !seen[b], entry() + " appears twice");
      seen[b] = true;
      const std::uint64_t copies =
          candidate_copies(pl, pl.blocks[b].candidate_row, count);
      REQB_AUDIT_MSG(report, copies > 0, entry() + " has no copies");
      heap_copies += copies;
      REQB_AUDIT_MSG(report,
                     pl.blocks[b].invalid_count != count ||
                         !pl.blocks[b].retired,
                     entry() + " is live on a retired block");
    }
    for (const std::uint32_t b : heap) {
      if (b < seen.size()) seen[b] = false;
    }
  }
  REQB_AUDIT_MSG(report, top == idx.top,
                 tag + " top count " + std::to_string(idx.top) +
                     ", highest non-empty heap " + std::to_string(top));
  // The copy counts of every row sum to the entry count, and only heap
  // members hold copies (so the two sums agree).
  std::uint64_t row_copies = 0;
  std::uint64_t saturated = 0;
  for (std::size_t at = 0; at < idx.copies.size(); ++at) {
    if (idx.copies[at] != kSaturated) {
      row_copies += idx.copies[at];
      continue;
    }
    ++saturated;
    const auto it = idx.overflow.find(at);
    if (REQB_AUDIT_MSG(report,
                       it != idx.overflow.end() && it->second >= kSaturated,
                       tag + " saturated copy count " + std::to_string(at) +
                           " has no overflow entry")) {
      row_copies += it->second;
    }
  }
  REQB_AUDIT_MSG(report, saturated == idx.overflow.size(),
                 tag + " overflow holds " +
                     std::to_string(idx.overflow.size()) + " entries for " +
                     std::to_string(saturated) + " saturated counts");
  REQB_AUDIT_MSG(report,
                 row_copies == idx.entries && heap_copies == idx.entries,
                 tag + " copy counts sum to " + std::to_string(row_copies) +
                     " (heap members " + std::to_string(heap_copies) +
                     "), entry count " + std::to_string(idx.entries));
}

void FlashArray::serialize(SnapshotWriter& w) const {
  w.tag("flash_array");
  w.u64(total_erases_);
  w.u64(total_retired_);
  w.u64(planes_.size());
  std::vector<std::uint32_t> blocks;
  for (const Plane& pl : planes_) {
    w.vec_u32(pl.free_list);
    w.vec_u32(pl.spare_list);
    w.u64(pl.spares_reserved);
    w.u64(pl.retired_count);
    w.b(pl.degraded);
    w.u32(pl.active);
    w.u64(pl.valid_pages);
    // Victim selection depends only on the candidate multiset (pairs are
    // totally ordered; equal duplicates pop consecutively), so writing it
    // in descending order captures behavior exactly and gives stable bytes.
    const CandidateIndex& idx = pl.candidates;
    w.u64(idx.entries);
    for (std::uint32_t count = idx.top; count > 0; --count) {
      blocks.assign(idx.heaps[count - 1].begin(), idx.heaps[count - 1].end());
      std::sort(blocks.begin(), blocks.end(), std::greater<>());
      for (const std::uint32_t b : blocks) {
        const std::uint64_t copies =
            candidate_copies(pl, pl.blocks[b].candidate_row, count);
        for (std::uint64_t i = 0; i < copies; ++i) {
          w.u32(count);
          w.u32(b);
        }
      }
    }
    w.u64(pl.blocks.size());
    for (const Block& b : pl.blocks) {
      w.u16(b.write_ptr);
      w.u16(b.valid_count);
      w.u16(b.invalid_count);
      w.u32(b.erase_count);
      w.u32(b.read_count);
      w.i64(b.data_origin);
      w.b(b.marked_bad);
      w.b(b.retired);
      // Page storage is lazily allocated; only written pages carry state.
      // v6: then sparse per-page error counters (ascending page order) and
      // stripe-parity presence (ascending stripe order). Error-free,
      // parity-free blocks cost two zero counts.
      std::uint16_t error_entries = 0;
      for (std::uint32_t p = 0; p < b.write_ptr; ++p) {
        w.u8(static_cast<std::uint8_t>(b.slots[p].state));
        w.u32(b.slots[p].lpn);
        error_entries += b.slots[p].errors > 0 ? 1 : 0;
      }
      w.u16(error_entries);
      for (std::uint32_t p = 0; error_entries > 0 && p < b.write_ptr; ++p) {
        if (b.slots[p].errors == 0) continue;
        w.u16(static_cast<std::uint16_t>(p));
        w.u8(b.slots[p].errors);
      }
      std::uint16_t parity_entries = 0;
      if (b.stripe_parity) {
        for (std::uint32_t s = 0; s < stripes_per_block(); ++s) {
          parity_entries += b.stripe_parity[s] != 0 ? 1 : 0;
        }
      }
      w.u16(parity_entries);
      if (b.stripe_parity) {
        for (std::uint32_t s = 0; s < stripes_per_block(); ++s) {
          if (b.stripe_parity[s] != 0) w.u16(static_cast<std::uint16_t>(s));
        }
      }
    }
  }
}

void FlashArray::deserialize(SnapshotReader& r) {
  r.tag("flash_array");
  total_erases_ = r.u64();
  total_retired_ = r.u64();
  const std::uint64_t plane_count = r.u64();
  if (plane_count != planes_.size()) {
    throw SnapshotError("flash snapshot has a different plane count");
  }
  for (std::uint32_t plane = 0; plane < planes_.size(); ++plane) {
    Plane& pl = planes_[plane];
    pl.free_list = r.vec_u32();
    pl.spare_list = r.vec_u32();
    pl.spares_reserved = r.u64();
    pl.retired_count = r.u64();
    pl.degraded = r.b();
    pl.active = r.u32();
    pl.valid_pages = r.u64();
    const std::uint64_t candidates = r.count(8);
    for (std::uint64_t i = 0; i < candidates; ++i) {
      const std::uint32_t invalid = r.u32();
      const std::uint32_t block = r.u32();
      if (invalid == 0 || invalid > cfg_.pages_per_block ||
          block >= pl.blocks.size()) {
        throw SnapshotError(
            "flash snapshot plane " + std::to_string(plane) +
            " has GC candidate (" + std::to_string(invalid) + ", " +
            std::to_string(block) + ") outside 1.." +
            std::to_string(cfg_.pages_per_block) + " invalid pages and " +
            std::to_string(pl.blocks.size()) + " blocks");
      }
      push_candidate(pl, invalid, block);
    }
    const std::uint64_t block_count = r.u64();
    if (block_count != pl.blocks.size()) {
      throw SnapshotError("flash snapshot has a different block count");
    }
    for (Block& b : pl.blocks) {
      b.write_ptr = r.u16();
      b.valid_count = r.u16();
      b.invalid_count = r.u16();
      b.erase_count = r.u32();
      b.read_count = r.u32();
      b.data_origin = r.i64();
      b.marked_bad = r.b();
      b.retired = r.b();
      if (b.write_ptr > cfg_.pages_per_block) {
        throw SnapshotError("flash snapshot write pointer out of range");
      }
      if (b.write_ptr > 0) {
        ensure_storage(b);
        for (std::uint32_t p = 0; p < b.write_ptr; ++p) {
          const auto s = r.u8();
          if (s > static_cast<std::uint8_t>(PageState::kInvalid)) {
            throw SnapshotError("flash snapshot has an invalid page state");
          }
          b.slots[p].state = static_cast<PageState>(s);
          b.slots[p].lpn = r.u32();
        }
      }
      // v6: sparse error counters and stripe-parity bits, each refused
      // unless strictly ascending, in range, and consistent with the
      // write pointer / stripe wiring.
      const std::uint16_t error_entries = r.u16();
      std::uint32_t last_page = 0;
      for (std::uint16_t i = 0; i < error_entries; ++i) {
        const std::uint16_t page = r.u16();
        if (page >= b.write_ptr) {
          throw SnapshotError(
              "flash snapshot counts errors on an unprogrammed page");
        }
        if (i > 0 && page <= last_page) {
          throw SnapshotError(
              "flash snapshot error entries are not strictly ascending");
        }
        last_page = page;
        const std::uint8_t errors = r.u8();
        if (errors == 0) {
          throw SnapshotError("flash snapshot has a zero error entry");
        }
        b.slots[page].errors = errors;
      }
      const std::uint16_t parity_entries = r.u16();
      std::uint32_t last_stripe = 0;
      for (std::uint16_t i = 0; i < parity_entries; ++i) {
        const std::uint16_t stripe = r.u16();
        if (stripe_pages_ == 0) {
          throw SnapshotError(
              "flash snapshot carries stripe parity but the run has no "
              "parity stripes wired");
        }
        if (stripe >= stripes_per_block() ||
            static_cast<std::uint32_t>(b.write_ptr) <
                (static_cast<std::uint32_t>(stripe) + 1) * stripe_pages_) {
          throw SnapshotError(
              "flash snapshot parity entry contradicts the write pointer");
        }
        if (i > 0 && stripe <= last_stripe) {
          throw SnapshotError(
              "flash snapshot parity entries are not strictly ascending");
        }
        last_stripe = stripe;
        ensure_parity_storage(b);
        b.stripe_parity[stripe] = 1;
      }
    }
  }
}

}  // namespace reqblock
