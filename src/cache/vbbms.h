// VBBMS (Virtual-Block-Based buffer Management Strategy, Du et al., TCE'19).
//
// Splits the cache into a *random* region and a *sequential* region at a
// 3:2 capacity ratio (paper §4.1). Requests are classified by size;
// random-region pages are grouped into 3-page virtual blocks managed by
// LRU, sequential-region pages into 4-page virtual blocks managed by FIFO.
// Evictions flush a whole virtual block, striped across channels.
#pragma once

#include <vector>

#include "cache/write_buffer.h"
#include "util/slot_map.h"

namespace reqblock {

struct VbbmsOptions {
  /// Fraction of capacity for the random region (paper: 3:2 split).
  double random_fraction = 0.6;
  std::uint32_t random_vb_pages = 3;
  std::uint32_t seq_vb_pages = 4;
  /// Requests with at least this many pages are "sequential".
  std::uint32_t seq_request_threshold = 5;
};

class VbbmsPolicy final : public WriteBufferPolicy {
 public:
  VbbmsPolicy(std::uint64_t capacity_pages, VbbmsOptions options = {});

  std::string name() const override { return "VBBMS"; }

  void on_hit(Lpn lpn, const IoRequest& req, bool is_write) override;
  void on_insert(Lpn lpn, const IoRequest& req, bool is_write) override;
  VictimBatch select_victim() override;
  std::size_t pages() const override {
    return random_pages_ + seq_pages_;
  }
  std::size_t metadata_bytes() const override {
    return (random_vbs_.size() + seq_vbs_.size()) * 24;  // virtual-block node
  }

  std::size_t random_pages() const { return random_pages_; }
  std::size_t seq_pages() const { return seq_pages_; }

  void audit(AuditReport& report) const override;
  bool enumerate_pages(const std::function<void(Lpn)>& fn) const override;
  void serialize(SnapshotWriter& w) const override;
  void deserialize(SnapshotReader& r) override;

 private:
  struct VBlock {
    std::uint64_t vb_id = 0;
    std::vector<Lpn> pages;
    SlotLink link;
  };
  using VBlockList = SlotList<VBlock, &VBlock::link>;

  /// Evicts the virtual block at the tail of `list` (LRU or FIFO order)
  /// into victim_pages_; false when the region is empty.
  bool evict_region(SlotMap<VBlock>& vbs, VBlockList& list,
                    std::size_t& region_pages);

  VbbmsOptions opt_;
  std::uint64_t random_quota_;
  std::uint64_t seq_quota_;

  SlotMap<VBlock> random_vbs_;
  SlotMap<VBlock> seq_vbs_;
  VBlockList random_lru_{random_vbs_};
  VBlockList seq_fifo_{seq_vbs_};
  SlotMap<bool> page_is_seq_;
  std::size_t random_pages_ = 0;
  std::size_t seq_pages_ = 0;
  std::vector<Lpn> victim_pages_;  // the last victim batch's pages
};

}  // namespace reqblock
