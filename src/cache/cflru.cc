#include "cache/cflru.h"

#include <algorithm>

#include "snapshot/snapshot.h"
#include "util/check.h"

namespace reqblock {

CflruPolicy::CflruPolicy(std::uint64_t capacity_pages,
                         double window_fraction) {
  REQB_CHECK_MSG(window_fraction >= 0.0 && window_fraction <= 1.0,
                 "CFLRU window fraction must be in [0,1]");
  window_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(capacity_pages) *
                                  window_fraction));
}

void CflruPolicy::on_hit(Lpn lpn, const IoRequest&, bool is_write) {
  const Slot slot = nodes_.find(lpn);
  REQB_CHECK_MSG(slot != kNoSlot, "CFLRU hit on untracked page");
  Node& node = nodes_[slot];
  if (is_write && !node.dirty) {
    node.dirty = true;
    --clean_;
  }
  list_.move_to_front(slot);
}

void CflruPolicy::on_insert(Lpn lpn, const IoRequest&, bool is_write) {
  const auto [slot, inserted] = nodes_.try_emplace(lpn);
  REQB_CHECK_MSG(inserted, "CFLRU double insert");
  Node& node = nodes_[slot];
  node.lpn = lpn;
  node.dirty = is_write;
  if (!is_write) ++clean_;
  list_.push_front(slot);
}

VictimBatch CflruPolicy::select_victim() {
  if (list_.empty()) return {};
  // The LRU tail, unless the clean-first window holds a clean page. With
  // no clean page resident the walk could only fall back to the tail, so
  // it is skipped.
  Slot victim = list_.tail();
  if (clean_ != 0) {
    std::size_t scanned = 0;
    for (Slot s = victim; s != kNoSlot && scanned < window_;
         s = list_.prev(s), ++scanned) {
      if (!nodes_[s].dirty) {
        victim = s;
        break;
      }
    }
  }
  const Node& node = nodes_[victim];
  victim_ = node.lpn;
  if (!node.dirty) --clean_;
  list_.erase(victim);
  nodes_.erase_slot(victim);
  VictimBatch batch;
  batch.pages = {&victim_, 1};
  return batch;
}

void CflruPolicy::audit(AuditReport& report) const {
  REQB_AUDIT(report, window_ >= 1);
  REQB_AUDIT(report, nodes_.validate());
  REQB_AUDIT(report, list_.validate());
  REQB_AUDIT_MSG(report, list_.size() == nodes_.size(),
                 "list holds " + std::to_string(list_.size()) +
                     " nodes, index holds " + std::to_string(nodes_.size()));
  std::size_t clean_recount = 0;
  nodes_.for_each_unordered([&](Lpn lpn, const Node& node) {
    REQB_AUDIT_MSG(report, node.lpn == lpn,
                   "index key " + std::to_string(lpn) + " maps to node lpn " +
                       std::to_string(node.lpn));
    REQB_AUDIT_MSG(report, node.link.linked(),
                   "page " + std::to_string(lpn) + " indexed but unlinked");
    if (!node.dirty) ++clean_recount;
  });
  REQB_AUDIT_MSG(report, clean_recount == clean_,
                 "clean counter " + std::to_string(clean_) +
                     " disagrees with recount " +
                     std::to_string(clean_recount));
}

bool CflruPolicy::enumerate_pages(const std::function<void(Lpn)>& fn) const {
  nodes_.for_each_unordered([&](Lpn lpn, const Node&) { fn(lpn); });
  return true;
}

void CflruPolicy::serialize(SnapshotWriter& w) const {
  w.tag("cflru");
  w.u64(nodes_.size());
  list_.for_each([&](Slot s) {
    w.u64(nodes_[s].lpn);
    w.b(nodes_[s].dirty);
  });
}

void CflruPolicy::deserialize(SnapshotReader& r) {
  r.tag("cflru");
  REQB_CHECK_MSG(nodes_.empty(), "deserialize into a non-fresh CFLRU policy");
  const std::uint64_t count = r.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    const Lpn lpn = r.u64();
    const bool dirty = r.b();
    const auto [slot, inserted] = nodes_.try_emplace(lpn);
    if (!inserted) throw SnapshotError("CFLRU snapshot repeats a page");
    nodes_[slot].lpn = lpn;
    nodes_[slot].dirty = dirty;
    if (!dirty) ++clean_;  // derived, not stored
    list_.push_back(slot);
  }
}

}  // namespace reqblock
