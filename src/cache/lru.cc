#include "cache/lru.h"

#include "snapshot/snapshot.h"
#include "util/check.h"

namespace reqblock {

void LruPolicy::on_hit(Lpn lpn, const IoRequest&, bool) {
  const Slot slot = nodes_.find(lpn);
  REQB_CHECK_MSG(slot != kNoSlot, "LRU hit on untracked page");
  list_.move_to_front(slot);
}

void FifoPolicy::on_hit(Lpn lpn, const IoRequest&, bool) {
  REQB_CHECK_MSG(nodes_.contains(lpn), "FIFO hit on untracked page");
  // FIFO: recency does not matter.
}

void PageListPolicy::on_insert(Lpn lpn, const IoRequest&, bool) {
  const auto [slot, inserted] = nodes_.try_emplace(lpn);
  REQB_CHECK_MSG(inserted, std::string(label_) + " double insert");
  nodes_[slot].lpn = lpn;
  list_.push_front(slot);
}

VictimBatch PageListPolicy::select_victim() {
  const Slot tail = list_.pop_back();
  if (tail == kNoSlot) return {};
  victim_ = nodes_[tail].lpn;
  nodes_.erase_slot(tail);
  VictimBatch batch;
  batch.pages = {&victim_, 1};
  return batch;
}

void PageListPolicy::audit(AuditReport& report) const {
  REQB_AUDIT(report, nodes_.validate());
  REQB_AUDIT(report, list_.validate());
  REQB_AUDIT_MSG(report, list_.size() == nodes_.size(),
                 "list holds " + std::to_string(list_.size()) +
                     " nodes, index holds " + std::to_string(nodes_.size()));
  nodes_.for_each_unordered([&](Lpn lpn, const Node& node) {
    REQB_AUDIT_MSG(report, node.lpn == lpn,
                   "index key " + std::to_string(lpn) + " maps to node lpn " +
                       std::to_string(node.lpn));
    REQB_AUDIT_MSG(report, node.link.linked(),
                   "page " + std::to_string(lpn) + " indexed but unlinked");
  });
}

bool PageListPolicy::enumerate_pages(
    const std::function<void(Lpn)>& fn) const {
  nodes_.for_each_unordered([&](Lpn lpn, const Node&) { fn(lpn); });
  return true;
}

void PageListPolicy::serialize(SnapshotWriter& w) const {
  w.tag(tag_);
  w.u64(nodes_.size());
  // Head-to-tail list order is the entire replacement state.
  list_.for_each([&](Slot s) { w.u64(nodes_[s].lpn); });
}

void PageListPolicy::deserialize(SnapshotReader& r) {
  r.tag(tag_);
  REQB_CHECK_MSG(nodes_.empty(), "deserialize into a non-fresh " +
                                     std::string(label_) + " policy");
  const std::uint64_t count = r.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    const Lpn lpn = r.u64();
    const auto [slot, inserted] = nodes_.try_emplace(lpn);
    if (!inserted) {
      throw SnapshotError(std::string(label_) + " snapshot repeats a page");
    }
    nodes_[slot].lpn = lpn;
    list_.push_back(slot);
  }
}

}  // namespace reqblock
