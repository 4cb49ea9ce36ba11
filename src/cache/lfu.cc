#include "cache/lfu.h"

#include <iterator>

#include "snapshot/snapshot.h"
#include "util/check.h"

namespace reqblock {

LfuPolicy::FreqClass& LfuPolicy::class_for(
    std::uint64_t freq, std::map<std::uint64_t, FreqClass>::iterator hint) {
  return by_freq_.try_emplace(hint, freq, index_)->second;
}

void LfuPolicy::bump(Slot slot) {
  Page& page = index_[slot];
  const auto cls = by_freq_.find(page.freq);
  REQB_DCHECK(cls != by_freq_.end());
  cls->second.erase(slot);
  ++page.freq;
  class_for(page.freq, std::next(cls)).push_front(slot);
  if (cls->second.empty()) by_freq_.erase(cls);
}

void LfuPolicy::on_hit(Lpn lpn, const IoRequest&, bool) {
  const Slot slot = index_.find(lpn);
  REQB_CHECK_MSG(slot != kNoSlot, "LFU hit on untracked page");
  bump(slot);
}

void LfuPolicy::on_insert(Lpn lpn, const IoRequest&, bool) {
  const auto [slot, inserted] = index_.try_emplace(lpn);
  REQB_CHECK_MSG(inserted, "LFU double insert");
  index_[slot].lpn = lpn;
  index_[slot].freq = 1;
  class_for(1, by_freq_.begin()).push_front(slot);
}

VictimBatch LfuPolicy::select_victim() {
  if (by_freq_.empty()) return {};
  const auto lowest = by_freq_.begin();
  REQB_DCHECK(!lowest->second.empty());
  const Slot victim = lowest->second.pop_back();  // least recent in class
  if (lowest->second.empty()) by_freq_.erase(lowest);
  victim_ = index_[victim].lpn;
  index_.erase_slot(victim);
  VictimBatch batch;
  batch.pages = {&victim_, 1};
  return batch;
}

std::uint64_t LfuPolicy::frequency_of(Lpn lpn) const {
  const Slot slot = index_.find(lpn);
  return slot == kNoSlot ? 0 : index_[slot].freq;
}

void LfuPolicy::audit(AuditReport& report) const {
  REQB_AUDIT(report, index_.validate());
  std::size_t listed = 0;
  for (const auto& [freq, cls] : by_freq_) {
    REQB_AUDIT_MSG(report, !cls.empty(),
                   "empty frequency class " + std::to_string(freq));
    REQB_AUDIT_MSG(report, freq >= 1,
                   "frequency class below 1: " + std::to_string(freq));
    if (!REQB_AUDIT_MSG(report, cls.validate(),
                        "corrupt chain in frequency class " +
                            std::to_string(freq))) {
      continue;
    }
    cls.for_each([&](Slot s) {
      ++listed;
      const Page& page = index_[s];
      REQB_AUDIT_MSG(report, page.freq == freq,
                     "page " + std::to_string(page.lpn) + " listed in class " +
                         std::to_string(freq) + " but indexed at " +
                         std::to_string(page.freq));
    });
  }
  index_.for_each_unordered([&](Lpn lpn, const Page& page) {
    REQB_AUDIT_MSG(report, page.lpn == lpn,
                   "index key " + std::to_string(lpn) + " maps to page " +
                       std::to_string(page.lpn));
    REQB_AUDIT_MSG(report, page.link.linked(),
                   "page " + std::to_string(lpn) +
                       " indexed but in no frequency class");
  });
  REQB_AUDIT_MSG(report, listed == index_.size(),
                 "classes list " + std::to_string(listed) +
                     " pages, index holds " + std::to_string(index_.size()));
}

bool LfuPolicy::enumerate_pages(const std::function<void(Lpn)>& fn) const {
  index_.for_each_unordered([&](Lpn lpn, const Page&) { fn(lpn); });
  return true;
}

void LfuPolicy::serialize(SnapshotWriter& w) const {
  w.tag("lfu");
  // Frequency classes in ascending order, each front-to-back (MRU first):
  // the page table is rebuilt on restore.
  w.u64(by_freq_.size());
  for (const auto& [freq, cls] : by_freq_) {
    w.u64(freq);
    w.u64(cls.size());
    cls.for_each([&](Slot s) { w.u64(index_[s].lpn); });
  }
}

void LfuPolicy::deserialize(SnapshotReader& r) {
  r.tag("lfu");
  REQB_CHECK_MSG(index_.empty(), "deserialize into a non-fresh LFU policy");
  const std::uint64_t classes = r.u64();
  for (std::uint64_t c = 0; c < classes; ++c) {
    const std::uint64_t freq = r.u64();
    const std::uint64_t pages = r.u64();
    if (freq < 1 || pages == 0) {
      throw SnapshotError("LFU snapshot has an invalid frequency class");
    }
    FreqClass& cls = class_for(freq, by_freq_.end());
    for (std::uint64_t i = 0; i < pages; ++i) {
      const Lpn lpn = r.u64();
      const auto [slot, inserted] = index_.try_emplace(lpn);
      if (!inserted) throw SnapshotError("LFU snapshot repeats a page");
      index_[slot].lpn = lpn;
      index_[slot].freq = freq;
      cls.push_back(slot);
    }
  }
}

}  // namespace reqblock
