// Page-granularity LRU — the paper's primary baseline — and FIFO.
//
// Both keep one page list: inserts go to the front, victims leave from
// the back. They differ only in a hit: LRU moves the page to the front,
// FIFO leaves it where its insert put it (insertion-order eviction).
#pragma once

#include "cache/write_buffer.h"
#include "util/slot_map.h"

namespace reqblock {

/// The page list of LruPolicy and FifoPolicy. `label` names the policy in
/// name() and in error messages; `tag` is its snapshot section.
class PageListPolicy : public WriteBufferPolicy {
 public:
  std::string name() const override { return label_; }

  void on_insert(Lpn lpn, const IoRequest& req, bool is_write) override;
  VictimBatch select_victim() override;
  std::size_t pages() const override { return nodes_.size(); }
  std::size_t metadata_bytes() const override {
    return nodes_.size() * 12;  // paper Fig. 12: 12 B per page node
  }
  void audit(AuditReport& report) const override;
  bool enumerate_pages(const std::function<void(Lpn)>& fn) const override;
  void serialize(SnapshotWriter& w) const override;
  void deserialize(SnapshotReader& r) override;

 protected:
  PageListPolicy(const char* label, const char* tag)
      : label_(label), tag_(tag) {}

  struct Node {
    Lpn lpn = 0;
    SlotLink link;
  };

  SlotMap<Node> nodes_;
  SlotList<Node, &Node::link> list_{nodes_};

 private:
  Lpn victim_ = 0;  // the last victim, which select_victim's batch views

  const char* label_;
  const char* tag_;
};

class LruPolicy final : public PageListPolicy {
 public:
  LruPolicy() : PageListPolicy("LRU", "lru") {}
  void on_hit(Lpn lpn, const IoRequest& req, bool is_write) override;
};

class FifoPolicy final : public PageListPolicy {
 public:
  FifoPolicy() : PageListPolicy("FIFO", "fifo") {}
  void on_hit(Lpn lpn, const IoRequest& req, bool is_write) override;
};

}  // namespace reqblock
