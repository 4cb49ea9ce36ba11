#include "cache/fab.h"

#include <algorithm>
#include <utility>

#include "snapshot/snapshot.h"
#include "util/check.h"

namespace reqblock {

FabPolicy::FabPolicy(std::uint32_t pages_per_block)
    : pages_per_block_(pages_per_block) {
  REQB_CHECK_MSG(pages_per_block_ >= 1, "block must hold pages");
}

void FabPolicy::reindex(Lpn block_id, std::size_t old_count,
                        std::size_t new_count) {
  if (old_count != 0) {
    auto it = by_count_.find(old_count);
    REQB_DCHECK(it != by_count_.end());
    it->second.erase(block_id);
    if (it->second.empty()) by_count_.erase(it);
  }
  if (new_count != 0) by_count_[new_count].insert(block_id);
}

void FabPolicy::on_hit(Lpn lpn, const IoRequest&, bool) {
  // FAB considers only group size; hits change nothing.
  (void)lpn;
  REQB_DCHECK(groups_.contains(block_of(lpn)));
}

void FabPolicy::on_insert(Lpn lpn, const IoRequest&, bool) {
  Group& g = groups_[groups_.try_emplace(block_of(lpn)).first];
  reindex(block_of(lpn), g.pages.size(), g.pages.size() + 1);
  g.pages.push_back(lpn);
  ++total_pages_;
}

VictimBatch FabPolicy::select_victim() {
  if (by_count_.empty()) return {};
  const auto largest = std::prev(by_count_.end());
  REQB_DCHECK(!largest->second.empty());
  const Lpn block_id = *largest->second.begin();
  const Slot slot = groups_.find(block_id);
  REQB_DCHECK(slot != kNoSlot);
  const std::vector<Lpn>& pages = groups_[slot].pages;
  victim_pages_.assign(pages.begin(), pages.end());
  reindex(block_id, pages.size(), 0);
  groups_.erase_slot(slot);
  total_pages_ -= victim_pages_.size();
  VictimBatch batch;
  batch.pages = victim_pages_;
  return batch;
}

std::size_t FabPolicy::group_size(Lpn block_id) const {
  const Slot slot = groups_.find(block_id);
  return slot == kNoSlot ? 0 : groups_[slot].pages.size();
}

void FabPolicy::audit(AuditReport& report) const {
  REQB_AUDIT(report, groups_.validate());
  std::size_t pages = 0;
  groups_.for_each_unordered([&](Lpn block_id, const Group& group) {
    pages += group.pages.size();
    REQB_AUDIT_MSG(report, !group.pages.empty(),
                   "empty group for block " + std::to_string(block_id));
    for (const Lpn lpn : group.pages) {
      REQB_AUDIT_MSG(report, block_of(lpn) == block_id,
                     "page " + std::to_string(lpn) + " filed under block " +
                         std::to_string(block_id) + " but belongs to " +
                         std::to_string(block_of(lpn)));
    }
    const auto ct = by_count_.find(group.pages.size());
    REQB_AUDIT_MSG(report,
                   ct != by_count_.end() && ct->second.contains(block_id),
                   "block " + std::to_string(block_id) + " with " +
                       std::to_string(group.pages.size()) +
                       " pages missing from the size index");
  });
  REQB_AUDIT_MSG(report, pages == total_pages_,
                 "groups hold " + std::to_string(pages) +
                     " pages, counter says " + std::to_string(total_pages_));
  std::size_t indexed = 0;
  for (const auto& [count, blocks] : by_count_) {
    REQB_AUDIT_MSG(report, count >= 1 && !blocks.empty(),
                   "degenerate size-index class " + std::to_string(count));
    indexed += blocks.size();
    for (const Lpn block_id : blocks) {
      const Slot slot = groups_.find(block_id);
      REQB_AUDIT_MSG(report,
                     slot != kNoSlot && groups_[slot].pages.size() == count,
                     "size index lists block " + std::to_string(block_id) +
                         " at count " + std::to_string(count));
    }
  }
  REQB_AUDIT_MSG(report, indexed == groups_.size(),
                 "size index covers " + std::to_string(indexed) +
                     " blocks, group table holds " +
                     std::to_string(groups_.size()));
}

bool FabPolicy::enumerate_pages(const std::function<void(Lpn)>& fn) const {
  groups_.for_each_unordered([&](Lpn, const Group& group) {
    for (const Lpn lpn : group.pages) fn(lpn);
  });
  return true;
}

void FabPolicy::serialize(SnapshotWriter& w) const {
  w.tag("fab");
  // Groups sorted by block id for byte determinism (slab order depends on
  // history); the size index is derived state and rebuilt on restore. Page
  // order inside a group is preserved (it is the flush order of the victim
  // batch).
  std::vector<std::pair<Lpn, const Group*>> groups;
  groups.reserve(groups_.size());
  groups_.for_each_unordered([&](Lpn block_id, const Group& group) {
    groups.emplace_back(block_id, &group);
  });
  std::sort(groups.begin(), groups.end());
  w.u64(groups.size());
  for (const auto& [block_id, group] : groups) {
    w.u64(block_id);
    w.u64(group->pages.size());
    for (const Lpn lpn : group->pages) w.u64(lpn);
  }
}

void FabPolicy::deserialize(SnapshotReader& r) {
  r.tag("fab");
  REQB_CHECK_MSG(groups_.empty(), "deserialize into a non-fresh FAB policy");
  const std::uint64_t group_count = r.u64();
  for (std::uint64_t gi = 0; gi < group_count; ++gi) {
    const Lpn block_id = r.u64();
    const std::uint64_t pages = r.count(8);
    if (pages == 0) throw SnapshotError("FAB snapshot has an empty group");
    const auto [slot, inserted] = groups_.try_emplace(block_id);
    if (!inserted) throw SnapshotError("FAB snapshot repeats a block");
    Group& g = groups_[slot];
    g.pages.reserve(pages);
    for (std::uint64_t i = 0; i < pages; ++i) g.pages.push_back(r.u64());
    reindex(block_id, 0, pages);
    total_pages_ += pages;
  }
}

}  // namespace reqblock
