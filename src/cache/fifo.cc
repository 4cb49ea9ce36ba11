#include "cache/fifo.h"

#include "snapshot/snapshot.h"
#include "util/check.h"

namespace reqblock {

void FifoPolicy::on_hit(Lpn lpn, const IoRequest&, bool) {
  REQB_CHECK_MSG(nodes_.contains(lpn), "FIFO hit on untracked page");
  // FIFO: recency does not matter.
}

void FifoPolicy::on_insert(Lpn lpn, const IoRequest&, bool) {
  const auto [slot, inserted] = nodes_.try_emplace(lpn);
  REQB_CHECK_MSG(inserted, "FIFO double insert");
  nodes_[slot].lpn = lpn;
  list_.push_front(slot);
}

VictimBatch FifoPolicy::select_victim() {
  VictimBatch batch;
  const Slot tail = list_.pop_back();
  if (tail == kNoSlot) return batch;
  batch.pages.push_back(nodes_[tail].lpn);
  nodes_.erase_slot(tail);
  return batch;
}

void FifoPolicy::audit(AuditReport& report) const {
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

bool FifoPolicy::enumerate_pages(const std::function<void(Lpn)>& fn) const {
  nodes_.for_each_unordered([&](Lpn lpn, const Node&) { fn(lpn); });
  return true;
}

void FifoPolicy::serialize(SnapshotWriter& w) const {
  w.tag("fifo");
  w.u64(nodes_.size());
  list_.for_each([&](Slot s) { w.u64(nodes_[s].lpn); });
}

void FifoPolicy::deserialize(SnapshotReader& r) {
  r.tag("fifo");
  REQB_CHECK_MSG(nodes_.empty(), "deserialize into a non-fresh FIFO policy");
  const std::uint64_t count = r.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    const Lpn lpn = r.u64();
    const auto [slot, inserted] = nodes_.try_emplace(lpn);
    if (!inserted) throw SnapshotError("FIFO snapshot repeats a page");
    nodes_[slot].lpn = lpn;
    list_.push_back(slot);
  }
}

}  // namespace reqblock
