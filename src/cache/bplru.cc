#include "cache/bplru.h"

#include <algorithm>

#include "snapshot/snapshot.h"
#include "util/check.h"

namespace reqblock {

BplruPolicy::BplruPolicy(std::uint32_t pages_per_block, BplruOptions options)
    : pages_per_block_(pages_per_block), options_(options) {
  REQB_CHECK_MSG(pages_per_block_ >= 1, "block must hold pages");
}

void BplruPolicy::on_hit(Lpn lpn, const IoRequest&, bool is_write) {
  const Slot slot = blocks_.find(block_of(lpn));
  REQB_CHECK_MSG(slot != kNoSlot, "BPLRU hit on untracked page");
  Block& b = blocks_[slot];
  if (is_write) {
    // A rewrite contradicts the "sequential data won't return" heuristic.
    b.sequential = false;
  }
  b.demoted = false;
  lru_.move_to_front(slot);
}

void BplruPolicy::on_insert(Lpn lpn, const IoRequest&, bool) {
  const Lpn id = block_of(lpn);
  const auto [slot, created] = blocks_.try_emplace(id);
  Block& b = blocks_[slot];
  if (created) {
    b.block_id = id;
    lru_.push_front(slot);
  }
  b.pages.push_back(lpn);
  ++total_pages_;

  const auto offset = static_cast<std::uint32_t>(lpn % pages_per_block_);
  if (b.sequential && offset == b.next_seq_offset) {
    ++b.next_seq_offset;
  } else {
    b.sequential = false;
  }
  if (b.sequential && b.next_seq_offset == pages_per_block_) {
    // LRU compensation: a fully sequentially written block goes straight
    // to the eviction end.
    b.demoted = true;
    lru_.move_to_back(slot);
  } else {
    b.demoted = false;
    lru_.move_to_front(slot);
  }
}

VictimBatch BplruPolicy::select_victim() {
  const Slot slot = lru_.pop_back();
  if (slot == kNoSlot) return {};
  const Block& victim = blocks_[slot];
  victim_pages_.assign(victim.pages.begin(), victim.pages.end());
  padding_reads_.clear();
  if (options_.page_padding) {
    // Page padding: request the block's other pages; the manager reads the
    // ones that exist on flash and rewrites the whole block together.
    const Lpn first = victim.block_id * pages_per_block_;
    victim_cached_.assign(pages_per_block_, false);
    for (const Lpn lpn : victim_pages_) {
      victim_cached_[static_cast<std::size_t>(lpn - first)] = true;
    }
    for (std::uint32_t i = 0; i < pages_per_block_; ++i) {
      if (!victim_cached_[i]) padding_reads_.push_back(first + i);
    }
  }
  total_pages_ -= victim_pages_.size();
  blocks_.erase_slot(slot);
  return {.pages = victim_pages_,
          .colocate = true,
          .padding_reads = padding_reads_};
}

bool BplruPolicy::is_sequential_demoted(Lpn block_id) const {
  const Slot slot = blocks_.find(block_id);
  return slot != kNoSlot && blocks_[slot].demoted;
}

void BplruPolicy::audit(AuditReport& report) const {
  REQB_AUDIT(report, blocks_.validate());
  REQB_AUDIT(report, lru_.validate());
  REQB_AUDIT_MSG(report, lru_.size() == blocks_.size(),
                 "LRU lists " + std::to_string(lru_.size()) +
                     " blocks, table holds " + std::to_string(blocks_.size()));
  std::size_t pages = 0;
  blocks_.for_each_unordered([&](Lpn block_id, const Block& b) {
    pages += b.pages.size();
    REQB_AUDIT_MSG(report, b.block_id == block_id,
                   "table key " + std::to_string(block_id) +
                       " holds block id " + std::to_string(b.block_id));
    REQB_AUDIT_MSG(report, b.link.linked(),
                   "block " + std::to_string(block_id) + " not on the LRU");
    REQB_AUDIT_MSG(report, !b.pages.empty(),
                   "empty block " + std::to_string(block_id));
    REQB_AUDIT_MSG(report,
                   b.pages.size() <= pages_per_block_ &&
                       b.next_seq_offset <= pages_per_block_,
                   "block " + std::to_string(block_id) + " holds " +
                       std::to_string(b.pages.size()) + " pages, seq offset " +
                       std::to_string(b.next_seq_offset));
    REQB_AUDIT_MSG(
        report,
        !b.demoted ||
            (b.sequential && b.next_seq_offset == pages_per_block_),
        "block " + std::to_string(block_id) +
            " demoted without a complete sequential write");
    std::vector<Lpn> sorted = b.pages;
    std::sort(sorted.begin(), sorted.end());
    REQB_AUDIT_MSG(report,
                   std::adjacent_find(sorted.begin(), sorted.end()) ==
                       sorted.end(),
                   "duplicate page in block " + std::to_string(block_id));
    for (const Lpn lpn : b.pages) {
      REQB_AUDIT_MSG(report, block_of(lpn) == block_id,
                     "page " + std::to_string(lpn) + " filed under block " +
                         std::to_string(block_id) + " but belongs to " +
                         std::to_string(block_of(lpn)));
    }
  });
  REQB_AUDIT_MSG(report, pages == total_pages_,
                 "blocks hold " + std::to_string(pages) +
                     " pages, counter says " + std::to_string(total_pages_));
}

bool BplruPolicy::enumerate_pages(const std::function<void(Lpn)>& fn) const {
  blocks_.for_each_unordered([&](Lpn, const Block& b) {
    for (const Lpn lpn : b.pages) fn(lpn);
  });
  return true;
}

void BplruPolicy::serialize(SnapshotWriter& w) const {
  w.tag("bplru");
  w.u64(blocks_.size());
  lru_.for_each([&](Slot s) {
    const Block& b = blocks_[s];
    w.u64(b.block_id);
    w.u32(b.next_seq_offset);
    w.b(b.sequential);
    w.b(b.demoted);
    w.u64(b.pages.size());
    for (const Lpn lpn : b.pages) w.u64(lpn);
  });
}

void BplruPolicy::deserialize(SnapshotReader& r) {
  r.tag("bplru");
  REQB_CHECK_MSG(blocks_.empty(), "deserialize into a non-fresh BPLRU policy");
  const std::uint64_t count = r.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    const Lpn block_id = r.u64();
    const auto [slot, inserted] = blocks_.try_emplace(block_id);
    if (!inserted) throw SnapshotError("BPLRU snapshot repeats a block");
    Block& b = blocks_[slot];
    b.block_id = block_id;
    b.next_seq_offset = r.u32();
    b.sequential = r.b();
    b.demoted = r.b();
    const std::uint64_t pages = r.count(8);
    if (pages == 0) throw SnapshotError("BPLRU snapshot has an empty block");
    b.pages.reserve(pages);
    for (std::uint64_t p = 0; p < pages; ++p) b.pages.push_back(r.u64());
    total_pages_ += pages;
    lru_.push_back(slot);
  }
}

}  // namespace reqblock
