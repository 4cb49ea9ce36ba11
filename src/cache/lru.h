// Page-granularity LRU — the paper's primary baseline.
#pragma once

#include "cache/write_buffer.h"
#include "util/slot_map.h"

namespace reqblock {

class LruPolicy final : public WriteBufferPolicy {
 public:
  std::string name() const override { return "LRU"; }

  void on_hit(Lpn lpn, const IoRequest& req, bool is_write) override;
  void on_insert(Lpn lpn, const IoRequest& req, bool is_write) override;
  VictimBatch select_victim() override;
  std::size_t pages() const override { return nodes_.size(); }
  std::size_t metadata_bytes() const override {
    return nodes_.size() * kNodeBytes;  // paper Fig. 12: 12 B per page node
  }
  void audit(AuditReport& report) const override;
  bool enumerate_pages(const std::function<void(Lpn)>& fn) const override;
  void serialize(SnapshotWriter& w) const override;
  void deserialize(SnapshotReader& r) override;

 private:
  static constexpr std::size_t kNodeBytes = 12;

  struct Node {
    Lpn lpn = 0;
    SlotLink link;
  };

  SlotMap<Node> nodes_;
  SlotList<Node, &Node::link> list_{nodes_};
};

}  // namespace reqblock
