// Page-granularity LFU with LRU tie-breaking inside each frequency class
// (the classic O(1) frequency-list structure).
#pragma once

#include <map>

#include "cache/write_buffer.h"
#include "util/slot_map.h"

namespace reqblock {

class LfuPolicy final : public WriteBufferPolicy {
 public:
  std::string name() const override { return "LFU"; }

  void on_hit(Lpn lpn, const IoRequest& req, bool is_write) override;
  void on_insert(Lpn lpn, const IoRequest& req, bool is_write) override;
  VictimBatch select_victim() override;
  std::size_t pages() const override { return index_.size(); }
  std::size_t metadata_bytes() const override {
    // Page node (12 B) plus a frequency counter (4 B) per page.
    return index_.size() * 16;
  }

  /// Access count of a cached page (0 if untracked) — used by tests.
  std::uint64_t frequency_of(Lpn lpn) const;

  void audit(AuditReport& report) const override;
  bool enumerate_pages(const std::function<void(Lpn)>& fn) const override;
  void serialize(SnapshotWriter& w) const override;
  void deserialize(SnapshotReader& r) override;

 private:
  struct Page {
    Lpn lpn = 0;
    std::uint64_t freq = 1;
    SlotLink link;  // within its frequency class
  };
  using FreqClass = SlotList<Page, &Page::link>;

  /// The class list for `freq`, created empty when absent; `hint` is where
  /// it would sit in by_freq_.
  FreqClass& class_for(std::uint64_t freq,
                       std::map<std::uint64_t, FreqClass>::iterator hint);
  void bump(Slot slot);

  SlotMap<Page> index_;
  // freq -> pages at that frequency, most recent at front.
  std::map<std::uint64_t, FreqClass> by_freq_;
  Lpn victim_ = 0;  // the last victim, which select_victim's batch views
};

}  // namespace reqblock
