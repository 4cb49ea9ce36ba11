// CFLRU (Clean-First LRU, Park et al., CASES'06).
//
// The LRU list's tail segment (the "clean-first region", a configurable
// fraction of capacity) prefers evicting *clean* pages, because they need
// no flash program on eviction. With read caching disabled (the paper's
// write-buffer configuration) every page is dirty and CFLRU degenerates to
// plain LRU — our tests pin both behaviours.
//
// The policy counts its clean pages. When there are none — always, unless
// reads are admitted or pages are inserted clean — the window walk could
// only end back at the LRU tail, so eviction takes the tail directly.
#pragma once

#include "cache/write_buffer.h"
#include "util/slot_map.h"

namespace reqblock {

/// The clean-first region's share of capacity that make_policy builds
/// CFLRU with.
inline constexpr double kCflruWindow = 0.1;

class CflruPolicy final : public WriteBufferPolicy {
 public:
  /// window_fraction: portion of capacity forming the clean-first region.
  CflruPolicy(std::uint64_t capacity_pages,
              double window_fraction = kCflruWindow);

  std::string name() const override { return "CFLRU"; }

  void on_hit(Lpn lpn, const IoRequest& req, bool is_write) override;
  void on_insert(Lpn lpn, const IoRequest& req, bool is_write) override;
  VictimBatch select_victim() override;
  std::size_t pages() const override { return nodes_.size(); }
  std::size_t metadata_bytes() const override {
    // Page node plus dirty flag.
    return nodes_.size() * 13;
  }
  /// Resident pages not written since admission.
  std::size_t clean_pages() const { return clean_; }

  void audit(AuditReport& report) const override;
  bool enumerate_pages(const std::function<void(Lpn)>& fn) const override;
  void serialize(SnapshotWriter& w) const override;
  void deserialize(SnapshotReader& r) override;

 private:
  struct Node {
    Lpn lpn = 0;
    bool dirty = false;
    SlotLink link;
  };

  SlotMap<Node> nodes_;
  SlotList<Node, &Node::link> list_{nodes_};
  std::size_t window_;
  std::size_t clean_ = 0;  // nodes with dirty == false
  Lpn victim_ = 0;         // the last victim, which select_victim's batch views
};

}  // namespace reqblock
