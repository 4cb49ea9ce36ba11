#include "cache/vbbms.h"

#include <algorithm>

#include "snapshot/snapshot.h"
#include "util/check.h"

namespace reqblock {

VbbmsPolicy::VbbmsPolicy(std::uint64_t capacity_pages, VbbmsOptions options)
    : opt_(options) {
  REQB_CHECK_MSG(opt_.random_fraction > 0.0 && opt_.random_fraction < 1.0,
                 "random fraction must be in (0,1)");
  REQB_CHECK_MSG(opt_.random_vb_pages >= 1 && opt_.seq_vb_pages >= 1,
                 "virtual blocks must hold pages");
  random_quota_ = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(static_cast<double>(capacity_pages) *
                                    opt_.random_fraction));
  seq_quota_ = std::max<std::uint64_t>(1, capacity_pages - random_quota_);
}

void VbbmsPolicy::on_hit(Lpn lpn, const IoRequest&, bool) {
  const Slot region = page_is_seq_.find(lpn);
  REQB_CHECK_MSG(region != kNoSlot, "VBBMS hit on untracked page");
  if (page_is_seq_[region]) return;  // FIFO region: recency is ignored
  const Slot vb = random_vbs_.find(lpn / opt_.random_vb_pages);
  REQB_DCHECK(vb != kNoSlot);
  random_lru_.move_to_front(vb);
}

void VbbmsPolicy::on_insert(Lpn lpn, const IoRequest& req, bool) {
  const bool seq = req.pages >= opt_.seq_request_threshold;
  const auto [region, fresh] = page_is_seq_.try_emplace(lpn);
  REQB_DCHECK(fresh);
  (void)fresh;
  page_is_seq_[region] = seq;
  if (seq) {
    const std::uint64_t vb_id = lpn / opt_.seq_vb_pages;
    const auto [slot, created] = seq_vbs_.try_emplace(vb_id);
    VBlock& vb = seq_vbs_[slot];
    if (created) {
      vb.vb_id = vb_id;
      seq_fifo_.push_front(slot);
    }
    vb.pages.push_back(lpn);
    ++seq_pages_;
  } else {
    const std::uint64_t vb_id = lpn / opt_.random_vb_pages;
    const auto [slot, created] = random_vbs_.try_emplace(vb_id);
    VBlock& vb = random_vbs_[slot];
    if (created) {
      vb.vb_id = vb_id;
      random_lru_.push_front(slot);
    } else {
      random_lru_.move_to_front(slot);
    }
    vb.pages.push_back(lpn);
    ++random_pages_;
  }
}

bool VbbmsPolicy::evict_region(SlotMap<VBlock>& vbs, VBlockList& list,
                               std::size_t& region_pages) {
  const Slot victim = list.pop_back();  // LRU tail / FIFO oldest
  if (victim == kNoSlot) return false;
  const std::vector<Lpn>& pages = vbs[victim].pages;
  victim_pages_.assign(pages.begin(), pages.end());
  region_pages -= pages.size();
  for (const Lpn lpn : pages) page_is_seq_.erase(lpn);
  vbs.erase_slot(victim);
  return true;
}

void VbbmsPolicy::audit(AuditReport& report) const {
  REQB_AUDIT(report, random_vbs_.validate());
  REQB_AUDIT(report, seq_vbs_.validate());
  REQB_AUDIT(report, page_is_seq_.validate());
  REQB_AUDIT(report, random_lru_.validate());
  REQB_AUDIT(report, seq_fifo_.validate());
  REQB_AUDIT_MSG(report, random_lru_.size() == random_vbs_.size(),
                 "random LRU lists " + std::to_string(random_lru_.size()) +
                     " vblocks, table holds " +
                     std::to_string(random_vbs_.size()));
  REQB_AUDIT_MSG(report, seq_fifo_.size() == seq_vbs_.size(),
                 "sequential FIFO lists " + std::to_string(seq_fifo_.size()) +
                     " vblocks, table holds " +
                     std::to_string(seq_vbs_.size()));

  const auto walk = [&](const SlotMap<VBlock>& vbs, std::uint32_t vb_pages,
                        bool expect_seq, const char* region) {
    std::size_t pages = 0;
    vbs.for_each_unordered([&](std::uint64_t vb_id, const VBlock& vb) {
      pages += vb.pages.size();
      REQB_AUDIT_MSG(report, vb.vb_id == vb_id,
                     std::string(region) + " table key " +
                         std::to_string(vb_id) + " holds vblock id " +
                         std::to_string(vb.vb_id));
      REQB_AUDIT_MSG(report, vb.link.linked(),
                     std::string(region) + " vblock " + std::to_string(vb_id) +
                         " not on its list");
      REQB_AUDIT_MSG(report, !vb.pages.empty(),
                     std::string(region) + " vblock " + std::to_string(vb_id) +
                         " is empty");
      for (const Lpn lpn : vb.pages) {
        REQB_AUDIT_MSG(report, lpn / vb_pages == vb_id,
                       "page " + std::to_string(lpn) + " filed under " +
                           region + " vblock " + std::to_string(vb_id));
        const Slot flag = page_is_seq_.find(lpn);
        REQB_AUDIT_MSG(report,
                       flag != kNoSlot && page_is_seq_[flag] == expect_seq,
                       "page " + std::to_string(lpn) +
                           " region flag disagrees with its " + region +
                           " vblock");
      }
    });
    return pages;
  };
  const std::size_t random_seen =
      walk(random_vbs_, opt_.random_vb_pages, false, "random");
  const std::size_t seq_seen =
      walk(seq_vbs_, opt_.seq_vb_pages, true, "sequential");
  REQB_AUDIT_MSG(report, random_seen == random_pages_,
                 "random region holds " + std::to_string(random_seen) +
                     " pages, counter says " + std::to_string(random_pages_));
  REQB_AUDIT_MSG(report, seq_seen == seq_pages_,
                 "sequential region holds " + std::to_string(seq_seen) +
                     " pages, counter says " + std::to_string(seq_pages_));
  REQB_AUDIT_MSG(report,
                 page_is_seq_.size() == random_pages_ + seq_pages_,
                 "region map tracks " + std::to_string(page_is_seq_.size()) +
                     " pages, regions hold " +
                     std::to_string(random_pages_ + seq_pages_));
}

bool VbbmsPolicy::enumerate_pages(const std::function<void(Lpn)>& fn) const {
  page_is_seq_.for_each_unordered([&](Lpn lpn, bool) { fn(lpn); });
  return true;
}

void VbbmsPolicy::serialize(SnapshotWriter& w) const {
  w.tag("vbbms");
  // Each region is fully described by its list order plus per-vblock page
  // vectors; the page->region map and the page counters are derived.
  const auto write_region = [&w](const VBlockList& list,
                                 const SlotMap<VBlock>& vbs) {
    w.u64(vbs.size());
    list.for_each([&](Slot s) {
      const VBlock& vb = vbs[s];
      w.u64(vb.vb_id);
      w.u64(vb.pages.size());
      for (const Lpn lpn : vb.pages) w.u64(lpn);
    });
  };
  write_region(random_lru_, random_vbs_);
  write_region(seq_fifo_, seq_vbs_);
}

void VbbmsPolicy::deserialize(SnapshotReader& r) {
  r.tag("vbbms");
  REQB_CHECK_MSG(page_is_seq_.empty(),
                 "deserialize into a non-fresh VBBMS policy");
  const auto read_region = [this, &r](SlotMap<VBlock>& vbs, VBlockList& list,
                                      bool seq, std::size_t& page_counter) {
    const std::uint64_t count = r.u64();
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t vb_id = r.u64();
      const auto [slot, inserted] = vbs.try_emplace(vb_id);
      if (!inserted) {
        throw SnapshotError("VBBMS snapshot repeats a virtual block");
      }
      VBlock& vb = vbs[slot];
      vb.vb_id = vb_id;
      const std::uint64_t pages = r.count(8);
      if (pages == 0) {
        throw SnapshotError("VBBMS snapshot has an empty virtual block");
      }
      vb.pages.reserve(pages);
      for (std::uint64_t p = 0; p < pages; ++p) {
        const Lpn lpn = r.u64();
        vb.pages.push_back(lpn);
        const auto [region, fresh] = page_is_seq_.try_emplace(lpn);
        if (!fresh) throw SnapshotError("VBBMS snapshot repeats a page");
        page_is_seq_[region] = seq;
      }
      page_counter += pages;
      list.push_back(slot);
    }
  };
  read_region(random_vbs_, random_lru_, false, random_pages_);
  read_region(seq_vbs_, seq_fifo_, true, seq_pages_);
}

VictimBatch VbbmsPolicy::select_victim() {
  // Evict from the region that overflows its share the most; fall back to
  // whichever region actually holds pages.
  const double random_load =
      static_cast<double>(random_pages_) / static_cast<double>(random_quota_);
  const double seq_load =
      static_cast<double>(seq_pages_) / static_cast<double>(seq_quota_);
  const auto evict_seq = [this] {
    return evict_region(seq_vbs_, seq_fifo_, seq_pages_);
  };
  const auto evict_random = [this] {
    return evict_region(random_vbs_, random_lru_, random_pages_);
  };
  victim_pages_.clear();
  if (seq_load >= random_load) {
    if (!evict_seq()) evict_random();
  } else {
    if (!evict_random()) evict_seq();
  }
  VictimBatch batch;
  batch.pages = victim_pages_;
  return batch;
}

}  // namespace reqblock
