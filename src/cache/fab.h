// FAB (Flash-Aware Buffer, Jo et al., TCE'06).
//
// Groups cached pages by their logical flash block and always evicts the
// group holding the most pages (ignoring recency), which suits sequential
// media workloads. Included as an additional baseline from the paper's
// related-work discussion.
#pragma once

#include <map>
#include <set>
#include <vector>

#include "cache/write_buffer.h"
#include "util/slot_map.h"

namespace reqblock {

class FabPolicy final : public WriteBufferPolicy {
 public:
  explicit FabPolicy(std::uint32_t pages_per_block);

  std::string name() const override { return "FAB"; }

  void on_hit(Lpn lpn, const IoRequest& req, bool is_write) override;
  void on_insert(Lpn lpn, const IoRequest& req, bool is_write) override;
  VictimBatch select_victim() override;
  std::size_t pages() const override { return total_pages_; }
  std::size_t metadata_bytes() const override {
    return groups_.size() * 24;  // block-granularity node
  }

  /// Cached page count of a logical block (tests).
  std::size_t group_size(Lpn block_id) const;

  void audit(AuditReport& report) const override;
  bool enumerate_pages(const std::function<void(Lpn)>& fn) const override;
  void serialize(SnapshotWriter& w) const override;
  void deserialize(SnapshotReader& r) override;

 private:
  struct Group {
    std::vector<Lpn> pages;
  };

  Lpn block_of(Lpn lpn) const { return lpn / pages_per_block_; }
  void reindex(Lpn block_id, std::size_t old_count, std::size_t new_count);

  std::uint32_t pages_per_block_;
  SlotMap<Group> groups_;
  // count -> block ids with that many cached pages (ordered set for a
  // deterministic tie-break: the smallest block id is evicted first).
  std::map<std::size_t, std::set<Lpn>> by_count_;
  std::size_t total_pages_ = 0;
  std::vector<Lpn> victim_pages_;  // the last victim batch's pages
};

}  // namespace reqblock
