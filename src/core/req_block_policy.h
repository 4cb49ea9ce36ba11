// Req-block: request-granularity DRAM cache management (the paper's
// contribution, §3 and Algorithm 1).
//
// Semantics implemented:
//  * every write request's admitted pages form a request block at the head
//    of IRL (create_req_blk groups the pages of one request);
//  * hit on a block with <= delta pages (any list) -> promote to SRL head,
//    access_cnt++ (Fig. 5b);
//  * hit on a block with  > delta pages -> split: the hit page moves into a
//    new block at the DRL head (one per triggering request), remembering
//    its origin block (Fig. 5a);
//  * eviction compares Eq. 1 over the three list tails and evicts the
//    minimum; if the victim was split from a block still in IRL, both are
//    merged and evicted as one batch (downgraded merging, Fig. 6);
//  * the batch is flushed striped across channels (batch eviction, §3.3).
//
// Guards beyond the paper's pseudocode (all unit-tested):
//  * the block currently being assembled by the in-flight request is never
//    its own victim; if nothing else is evictable the policy reports "no
//    victim" and the cache manager bypasses the buffer for that page;
//  * tie-breaks on equal Freq are deterministic (IRL, then DRL, then SRL).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "cache/write_buffer.h"
#include "core/freq.h"
#include "core/req_block.h"
#include "util/slot_map.h"

namespace reqblock {

struct ReqBlockOptions {
  /// Size limit (pages) of blocks eligible for SRL — the paper's delta.
  /// The sensitivity study (Fig. 7) selects 5 as the default.
  std::uint32_t delta = 5;
  /// Downgraded merging of split blocks with their IRL origin (Fig. 6).
  bool merge_on_evict = true;
  /// Eq. 1 variant (ablation hook; the paper uses kFull).
  FreqMode freq_mode = FreqMode::kFull;
  /// Ablation: flush victim batches colocated (single channel) instead of
  /// striped across channels. The paper's §4.2.4 argues striping is what
  /// makes batch eviction pay off; this knob quantifies that.
  bool colocate_flush = false;
};

class ReqBlockPolicy final : public WriteBufferPolicy {
 public:
  explicit ReqBlockPolicy(ReqBlockOptions options = {});

  std::string name() const override { return "Req-block"; }

  void begin_request(const IoRequest& req) override;
  void on_hit(Lpn lpn, const IoRequest& req, bool is_write) override;
  void on_insert(Lpn lpn, const IoRequest& req, bool is_write) override;
  VictimBatch select_victim() override;
  /// Drops the in-flight request's eviction guards: after a power loss
  /// there is no request to protect and the manager must be able to drain
  /// the whole buffer.
  void on_power_loss() override {
    current_req_id_ = ~0ULL;
    guard_insert_block_ = 0;
    guard_split_block_ = 0;
  }
  std::size_t pages() const override { return page_to_block_.size(); }
  std::size_t metadata_bytes() const override {
    return blocks_.size() * 32;  // paper Fig. 12: 32 B per request block
  }

  /// Fig. 13 probe: pages/blocks currently on each list.
  ListOccupancy occupancy() const;

  /// Structural events (split/promote/merge/batch-evict) into the run's
  /// trace buffer, stamped with the buffer's current sim time.
  void set_trace(TraceBuffer* trace) override;

  /// Adds the per-list occupancy gauges (list.{irl,srl,drl}_{pages,blocks},
  /// policy.blocks) on top of the base policy gauges. One snapshot costs
  /// one list walk: the six gauges share a memo keyed on a mutation
  /// counter.
  void register_metrics(MetricsRegistry& registry) const override;

  const ReqBlockOptions& options() const { return opt_; }
  Tick now() const { return tick_; }

  // --- Introspection for tests -------------------------------------------
  // Blocks live by value in a slot map, so a returned pointer is valid
  // until the next policy call; compare block_id across calls.
  /// The block holding a page (nullptr if the page is not cached).
  const ReqBlock* block_of(Lpn lpn) const;
  /// List tails as the eviction candidates the policy would compare.
  const ReqBlock* tail_of(ReqList list) const;
  std::size_t block_count() const { return blocks_.size(); }
  /// Whether the block is shielded from eviction because it belongs to the
  /// in-flight request. Exposed so the brute-force reference victim
  /// selector can replicate the eviction scan exactly.
  bool is_guarded(const ReqBlock* blk) const { return guarded(*blk); }
  /// The neighbour of `blk` toward the head of its list (nullptr at the
  /// head) — the direction the victim scan walks past guarded blocks.
  const ReqBlock* prev_in_list(const ReqBlock* blk) const;

  // --- Invariant audit ---------------------------------------------------
  /// Deep structural self-check (paper §3 invariants): three-level list ↔
  /// page-table cross-consistency, Eq. 1 counter bounds, per-list
  /// δ-membership rules, split-origin backpointer integrity, and
  /// no-block-on-two-lists. O(blocks + pages).
  void audit(AuditReport& report) const override;
  bool enumerate_pages(const std::function<void(Lpn)>& fn) const override;
  void serialize(SnapshotWriter& w) const override;
  void deserialize(SnapshotReader& r) override;
  /// Full structural dump (lists, blocks, guards) attached to failed
  /// audits.
  std::string dump_structure() const;
  /// A block's pages in chain order: the order the block's victim batch
  /// flushes them and the snapshot stores them.
  std::vector<Lpn> pages_of(const ReqBlock& blk) const;
  /// Test-only: mutable access to the block holding `lpn`, so negative
  /// tests can corrupt one field and assert the audit reports it.
  ReqBlock* mutable_block_for_tests(Lpn lpn);
  /// Test-only: mutable access to `lpn`'s page-table node (its block and
  /// chain links), for the same purpose; nullptr when it is not cached.
  ReqPageNode* mutable_page_for_tests(Lpn lpn);

 private:
  using BlockList = SlotList<ReqBlock, &ReqBlock::link>;

  BlockList& list_for(ReqList level);
  /// Detaches from its current list and pushes to the head of `level`.
  void move_block(Slot blk, ReqList level);
  /// Unlinks and frees a block whose pages are no longer mapped to it.
  void destroy_block(Slot blk);
  /// Links the page-table entry at `page` onto the end of `blk`'s chain.
  void append_page(Slot blk, Slot page);
  /// Takes the page-table entry at `page` off its block's chain in O(1):
  /// the block's last page moves into its place (the swap-with-back of a
  /// page vector, so chain order, flush order and snapshot bytes stay
  /// what that vector gave).
  void remove_page(Slot page);
  /// Removes every page of `blk` from the page table in chain order,
  /// appending each to victim_pages_, and destroys the block.
  void consume_block(Slot blk);
  /// Creates a block at the head of `level`. May grow the block slab, so
  /// it invalidates references to other blocks (not their slots).
  Slot create_block(std::uint64_t req_id, ReqList level,
                    std::uint64_t origin_id);
  /// The in-flight request's block whose id is `guard`, or kNoSlot.
  Slot guard_target(std::uint64_t guard, std::uint64_t req_id) const;
  /// True if the block must not be evicted right now (it is the in-flight
  /// request's insertion or split target).
  bool guarded(const ReqBlock& blk) const;
  /// The block at `s` (nullptr for kNoSlot), for the list accessors.
  const ReqBlock* at(Slot s) const {
    return s == kNoSlot ? nullptr : &blocks_[s];
  }

  ReqBlockOptions opt_;
  SlotMap<ReqBlock> blocks_;            // block id -> block
  SlotMap<ReqPageNode> page_to_block_;  // page -> its block and chain links
  std::array<BlockList, 3> lists_{BlockList(blocks_), BlockList(blocks_),
                                  BlockList(blocks_)};
  Tick tick_ = 0;
  std::uint64_t next_block_id_ = 1;
  /// Blocks belonging to the in-flight request (insertion / split target).
  std::uint64_t current_req_id_ = ~0ULL;
  std::uint64_t guard_insert_block_ = 0;
  std::uint64_t guard_split_block_ = 0;
  /// The last victim batch's pages, which select_victim's batch views.
  std::vector<Lpn> victim_pages_;

  /// occupancy() memo for the snapshot gauges, keyed on mutations_.
  const ListOccupancy& occupancy_memo() const;
  TraceBuffer* trace_ = nullptr;  // non-null only when cache events are on
  std::uint64_t mutations_ = 0;   // bumped on every structural change
  mutable std::uint64_t occ_memo_mutations_ = ~0ULL;
  mutable ListOccupancy occ_memo_;
};

}  // namespace reqblock
