// BPLRU (Block Padding LRU, Kim & Ahn, FAST'08).
//
// Manages the buffer as an LRU list of *logical flash blocks* (64 pages in
// Table 1). Three signature behaviours, all reproduced here:
//   * block-level LRU: any access to a page promotes its whole block;
//   * LRU compensation: a block written fully sequentially is moved to the
//     LRU tail (sequential data is unlikely to be rewritten soon);
//   * whole-block colocated flush: the victim block's pages are flushed to
//     one physical block (a single plane/chip — which is exactly why the
//     paper finds BPLRU underutilizes channel parallelism, §4.2.2).
//
// Page padding (reading the block's missing pages from flash and rewriting
// the full 64-page block) is available behind an option but defaults off:
// under a page-level FTL it is pure overhead — roughly 6x the program
// traffic — and the paper's SSDsim numbers (Figs. 8/11) are only consistent
// with a BPLRU that flushes the cached pages alone. The ablation_flush
// artifact of `reproduce` quantifies the difference.
#pragma once

#include <vector>

#include "cache/write_buffer.h"
#include "util/slot_map.h"

namespace reqblock {

struct BplruOptions {
  /// Read missing pages of the victim block and rewrite the whole block.
  bool page_padding = false;
  /// Account buffer space in whole block units (the original BPLRU RAM
  /// organization): a block with one cached page still occupies a full
  /// block-sized buffer slot. Off by default: the paper's BPLRU results
  /// (moderately below Req-block, Fig. 9) are only consistent with page
  /// accounting — unit allocation at their ~1.8 cached pages/block
  /// (Fig. 12) would shrink BPLRU's effective capacity to ~3% and is far
  /// harsher than anything they report. Kept as a study knob.
  bool block_unit_allocation = false;
};

class BplruPolicy final : public WriteBufferPolicy {
 public:
  explicit BplruPolicy(std::uint32_t pages_per_block,
                       BplruOptions options = {});

  std::string name() const override { return "BPLRU"; }

  void on_hit(Lpn lpn, const IoRequest& req, bool is_write) override;
  void on_insert(Lpn lpn, const IoRequest& req, bool is_write) override;
  VictimBatch select_victim() override;
  std::size_t pages() const override { return total_pages_; }
  std::size_t occupied_pages() const override {
    return options_.block_unit_allocation
               ? blocks_.size() * pages_per_block_
               : total_pages_;
  }
  std::size_t metadata_bytes() const override {
    return blocks_.size() * 24;  // paper Fig. 12: 24 B per block node
  }

  /// Whether a block is currently flagged as fully-sequentially written
  /// (and thus demoted to the LRU tail). Exposed for tests.
  bool is_sequential_demoted(Lpn block_id) const;

  void audit(AuditReport& report) const override;
  bool enumerate_pages(const std::function<void(Lpn)>& fn) const override;
  void serialize(SnapshotWriter& w) const override;
  void deserialize(SnapshotReader& r) override;

 private:
  struct Block {
    Lpn block_id = 0;
    std::vector<Lpn> pages;
    std::uint32_t next_seq_offset = 0;  // sequential-write detector
    bool sequential = true;
    bool demoted = false;
    SlotLink link;
  };

  Lpn block_of(Lpn lpn) const { return lpn / pages_per_block_; }

  std::uint32_t pages_per_block_;
  BplruOptions options_;
  SlotMap<Block> blocks_;
  SlotList<Block, &Block::link> lru_{blocks_};
  std::size_t total_pages_ = 0;
  // The last victim batch, which select_victim's batch views, and the
  // padding scratch: which of the victim block's pages are cached.
  std::vector<Lpn> victim_pages_;
  std::vector<Lpn> padding_reads_;
  std::vector<bool> victim_cached_;
};

}  // namespace reqblock
