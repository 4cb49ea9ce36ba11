// NAND flash array state: planes, blocks, pages.
//
// Tracks one slot per physical page (state, the LPN it holds, the version
// of that data, its corrected-error count), per-plane free-block lists and
// active (currently appended) blocks, erase counts, and supplies greedy GC
// victim selection from a per-plane candidate index.
//
// The candidate index is a multiset of (invalid count, block) entries: every
// invalidation adds one, and victim selection pops from the top in
// descending (count, block) order, dropping entries that went stale (the
// block's count moved on, it was erased, or it is the active block) only
// when they reach the top. That multiset, stale entries included, is what
// a snapshot writes, so its contents are a format contract. The index
// keeps it compactly: for each count, a max-heap of distinct block ids,
// and for each (block, count) the number of copies, so re-adding an entry
// that is already present costs one increment. Purely functional state —
// all *timing* lives in the FTL's resource timelines.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "ssd/address.h"
#include "ssd/config.h"
#include "util/audit.h"
#include "util/types.h"

namespace reqblock {

class SnapshotReader;
class SnapshotWriter;

enum class PageState : std::uint8_t { kFree = 0, kValid = 1, kInvalid = 2 };

class FlashArray {
 public:
  static constexpr std::uint32_t kNoBlock = ~0u;

  explicit FlashArray(const SsdConfig& cfg);

  /// Programs `lpn` at `version` into the plane's active block (allocating
  /// a fresh block from the free list when needed) and returns the
  /// physical page written. Requires at least one allocatable page
  /// (callers run GC first).
  Ppn program(std::uint32_t plane, Lpn lpn, std::uint64_t version = 0);

  /// Marks a previously valid page invalid (its data was superseded).
  void invalidate(Ppn ppn);

  PageState state(Ppn ppn) const;
  Lpn lpn_at(Ppn ppn) const;
  /// Version of the data a valid page holds (the FTL's consistency
  /// oracle); copied with the page by every relocation.
  std::uint64_t version_at(Ppn ppn) const;
  /// Sets a valid page's version (snapshot restore: the FTL writes its
  /// version table back onto the pages).
  void set_version(Ppn ppn, std::uint64_t version);

  std::uint64_t free_blocks(std::uint32_t plane) const;
  /// Free blocks per plane at/below which GC runs
  /// (SsdConfig::gc_threshold_blocks, computed once).
  std::uint64_t gc_threshold_blocks() const { return gc_threshold_; }
  /// True when the plane is at/below the configured GC threshold.
  bool gc_needed(std::uint32_t plane) const;

  /// GC victim per the configured policy. kGreedy: the block with the most
  /// invalid pages (and at least one). kWearAware: among blocks within
  /// gc_wear_tie_margin invalid pages of the best, the least-erased one.
  /// Returns kNoBlock when no block qualifies.
  std::uint32_t pick_gc_victim(std::uint32_t plane);

  /// Pages still valid inside a block (the pages GC must move).
  std::uint32_t valid_count(std::uint32_t plane, std::uint32_t block) const {
    return block_at(plane, block).valid_count;
  }

  /// Calls fn(ppn, lpn, version) for each valid page of a block, in page
  /// order. fn may invalidate the page it is handed and program other
  /// blocks (GC copyback); the block itself must not be programmed.
  template <typename Fn>
  void for_each_valid_page(std::uint32_t plane, std::uint32_t block,
                           Fn&& fn) const {
    const Block& b = block_at(plane, block);
    for (std::uint32_t p = 0; p < b.write_ptr; ++p) {
      const PageSlot& slot = b.slots[p];
      if (slot.state == PageState::kValid) {
        fn(amap_.to_ppn(plane, block, p), Lpn{slot.lpn}, slot.version);
      }
    }
  }

  /// Erases a block; it must hold no valid pages.
  void erase_block(std::uint32_t plane, std::uint32_t block);

  // --- Bad-block management (fault subsystem) -------------------------

  /// Moves `per_plane` blocks from every plane's free list into its spare
  /// pool. Call once, at wiring time, before traffic; spares only return
  /// to service through retire_block remapping.
  void reserve_spares(std::uint32_t per_plane);

  /// Flags a block as grown-bad (program retries exhausted on it). The
  /// block stays in service until GC empties it; the FTL then retires it
  /// instead of erasing. Returns false when it was already marked.
  bool mark_bad(std::uint32_t plane, std::uint32_t block);
  bool is_marked_bad(std::uint32_t plane, std::uint32_t block) const;

  /// Takes an empty, inactive block permanently out of service. Remaps a
  /// spare into the free list when one is left; otherwise the plane loses
  /// a block of capacity and enters degraded mode. Returns true when this
  /// call transitioned the plane into degraded mode.
  bool retire_block(std::uint32_t plane, std::uint32_t block);

  /// Closes the plane's active block (next program allocates a fresh
  /// one). Used after the active block is declared bad mid-write.
  void close_active(std::uint32_t plane);
  bool is_active(std::uint32_t plane, std::uint32_t block) const {
    return planes_[plane].active == block;
  }

  /// True when the plane can afford to permanently lose one more block:
  /// after the retirement it could still hold its current valid data plus
  /// the GC operating reserve. Measures usable capacity (total minus
  /// retired minus unreclaimed spares), not the transient free count —
  /// retirement happens during GC, when free blocks are at the threshold
  /// by construction.
  bool can_lose_block(std::uint32_t plane) const;

  /// True when the plane can take one more host page and still keep GC
  /// operational: valid data stays below usable capacity minus the GC
  /// reserve. Planes shrunk by retirement shed host-write load through
  /// this check (GC copyback never grows a plane's valid count, so
  /// gating host programs bounds occupancy).
  bool can_accept_page(std::uint32_t plane) const;

  std::uint64_t spares_remaining(std::uint32_t plane) const;
  bool spare_available(std::uint32_t plane) const {
    return spares_remaining(plane) > 0;
  }
  bool plane_degraded(std::uint32_t plane) const;
  std::uint64_t retired_blocks() const { return total_retired_; }

  std::uint64_t total_erases() const { return total_erases_; }
  std::uint32_t erase_count(std::uint32_t plane, std::uint32_t block) const;
  std::uint64_t valid_page_count(std::uint32_t plane) const;

  // --- Per-block wear state (aging subsystem) -------------------------

  /// Wear view of one block, the inputs to the AgingModel ramps.
  struct BlockWear {
    std::uint32_t pe_cycles = 0;    // erase count (pre-age included)
    std::uint32_t read_count = 0;   // reads since the last program
    SimTime data_origin = 0;        // when the block's data epoch began
  };
  BlockWear block_wear(std::uint32_t plane, std::uint32_t block) const;

  /// Counts one read against the block (read-disturb accounting).
  void note_read(std::uint32_t plane, std::uint32_t block);

  /// Wear bookkeeping for a page just programmed: the block's read count
  /// resets (programming refreshes the cell charge the disturb model
  /// tracks) and the first page after an erase stamps the data epoch.
  void note_program(Ppn ppn, SimTime now);

  /// Pre-ages every block by `cycles` P/E cycles, so a run opens mid-life
  /// or near end-of-life. Wiring-time only, before any traffic; uniform,
  /// so relative wear ordering (and wear-aware GC) is unchanged.
  void pre_age(std::uint32_t cycles);
  std::uint32_t initial_pe_cycles() const { return initial_pe_; }

  // --- Data-integrity state (integrity subsystem) ----------------------

  /// Arms plane-stripe parity: every `pages` consecutive physical pages
  /// of a block form one stripe whose parity page (modeled spare area)
  /// is programmed when the stripe's last data page programs. Wiring
  /// time only, before any traffic; 0 leaves parity off.
  void set_stripe_pages(std::uint32_t pages);
  std::uint32_t stripe_pages() const { return stripe_pages_; }

  /// Stripe index of a physical page (requires stripe_pages() > 0).
  std::uint32_t stripe_of(Ppn ppn) const;
  /// True when programming `ppn` completed its stripe's data pages (the
  /// FTL then charges the parity program and sets the presence bit).
  bool closes_stripe(Ppn ppn) const;

  /// Parity presence per (block, stripe). Set only for stripes whose
  /// data pages are all programmed; cleared by erase/retire.
  bool stripe_parity_present(std::uint32_t plane, std::uint32_t block,
                             std::uint32_t stripe) const;
  void set_stripe_parity(std::uint32_t plane, std::uint32_t block,
                         std::uint32_t stripe);

  /// Counts one corrected-error episode against the page (saturates at
  /// 255); feeds the patrol scrubber's refresh decision. Returns the
  /// new count.
  std::uint8_t note_page_error(Ppn ppn);
  std::uint8_t page_errors(Ppn ppn) const;
  /// Largest per-page corrected-error count in the block (0 when the
  /// block never saw an error).
  std::uint32_t max_page_errors(std::uint32_t plane,
                                std::uint32_t block) const;

  /// Blocks the plane could free by moving every valid page elsewhere:
  /// usable capacity minus the blocks its current data needs. The
  /// end-of-life floor watches this — unlike the transient free count it
  /// does not dip during normal GC, and unlike total valid pages it
  /// recovers when overwrites invalidate a stuck plane's data.
  std::uint64_t reclaimable_blocks(std::uint32_t plane) const;

  /// Spare blocks left across all planes (end-of-life spare floor).
  std::uint64_t spares_total() const;

  /// Wear distribution across all blocks (endurance view; the paper's
  /// Table 1 device context — QLC-era parts tolerate ~500 P/E cycles).
  struct WearStats {
    std::uint32_t min_erases = 0;
    std::uint32_t max_erases = 0;
    double mean_erases = 0.0;
    /// Blocks that were erased at least once.
    std::uint64_t blocks_touched = 0;
  };
  WearStats wear_stats() const;

  const SsdConfig& config() const { return cfg_; }
  const AddressMap& address_map() const { return amap_; }

  /// Deep invariant audit: per-block page-state counts vs the valid /
  /// invalid counters, per-plane valid-page sums, free-list uniqueness and
  /// emptiness of free blocks, active-block bookkeeping, and the GC
  /// candidate index (distinct blocks per count, copy counts that sum to
  /// the entry count, no live candidate on a retired block). O(physical
  /// pages with storage materialized).
  void audit(AuditReport& report) const;

  /// Checkpoint: page states, free/spare lists, retirement flags, the GC
  /// candidate entries (count, then each (invalid count, block) pair in
  /// descending order, once per copy), wear counters, and (format v6)
  /// per-page error counters plus stripe-parity presence. Page versions
  /// are not written here: the FTL writes them in its version table and
  /// restores them with set_version. deserialize() restores into a freshly
  /// constructed array of the same geometry and stripe wiring, refusing
  /// candidate entries outside the plane's blocks and 1..pages_per_block.
  void serialize(SnapshotWriter& w) const;
  void deserialize(SnapshotReader& r);

 private:
  /// One physical page. The error counter (integrity; saturates at 255)
  /// sits in what would otherwise be padding.
  struct PageSlot {
    std::uint64_t version = 0;
    std::uint32_t lpn = 0;
    PageState state = PageState::kFree;
    std::uint8_t errors = 0;
  };
  static_assert(sizeof(PageSlot) == 16);

  struct Block {
    /// One slot per page; allocated when the block is first programmed,
    /// reset (not freed) by erase/retire.
    std::unique_ptr<PageSlot[]> slots;
    /// Parity presence per stripe (integrity); lazily allocated when the
    /// first stripe closes, cleared by erase/retire.
    std::unique_ptr<std::uint8_t[]> stripe_parity;
    std::uint16_t write_ptr = 0;
    std::uint16_t valid_count = 0;
    std::uint16_t invalid_count = 0;
    std::uint32_t erase_count = 0;
    std::uint32_t read_count = 0;  // reads since last program (disturb)
    SimTime data_origin = 0;       // epoch stamp of the current data
    bool marked_bad = false;  // retries exhausted; retire at next erase
    bool retired = false;     // permanently out of service
    /// Row of this block's copy counts in its plane's candidate index,
    /// counted from 1 (0: none yet); assigned at the block's first
    /// invalidation, kept across erases. Sits in what would otherwise be
    /// tail padding.
    std::uint32_t candidate_row = 0;
  };
  static_assert(sizeof(Block) == 48);

  /// The plane's GC candidates: a multiset of (invalid count, block)
  /// entries. heaps[c - 1] is a max-heap of the distinct blocks holding at
  /// least one entry with count c; copies holds one row of pages_per_block
  /// copy counts per block that was ever invalidated (row index in
  /// Block::candidate_row). A copy count of 255 or more saturates its byte
  /// and lives in `overflow`, keyed by its copies index. Nothing is
  /// allocated until the plane's first invalidation.
  struct CandidateIndex {
    std::vector<std::vector<std::uint32_t>> heaps;
    std::vector<std::uint8_t> copies;
    std::map<std::size_t, std::uint64_t> overflow;
    std::uint64_t entries = 0;
    /// Highest count whose heap is non-empty; 0 when the index is empty.
    std::uint32_t top = 0;
  };

  struct Plane {
    std::vector<Block> blocks;
    std::vector<std::uint32_t> free_list;  // LIFO of erased block indices
    std::vector<std::uint32_t> spare_list;  // bad-block replacement pool
    std::uint64_t spares_reserved = 0;      // pool size at reservation time
    std::uint64_t retired_count = 0;
    bool degraded = false;  // retirement outran the spare pool
    std::uint32_t active = kNoBlock;
    CandidateIndex candidates;
    std::uint64_t valid_pages = 0;
  };

  Block& block_at(std::uint32_t plane, std::uint32_t block);
  const Block& block_at(std::uint32_t plane, std::uint32_t block) const;
  Block& block_at(const PageLoc& loc) { return block_at(loc.plane, loc.block); }
  const Block& block_at(const PageLoc& loc) const {
    return block_at(loc.plane, loc.block);
  }
  /// The slot of a valid page (checked).
  PageSlot& valid_slot(Ppn ppn);
  const PageSlot& valid_slot(Ppn ppn) const;

  // --- GC candidate index (multiset operations) ------------------------
  /// Position of the copy count of entry (count, block) in the copies
  /// pool, for the block's row.
  std::size_t copy_index(std::uint32_t row, std::uint32_t count) const {
    return static_cast<std::size_t>(row - 1) * cfg_.pages_per_block +
           count - 1;
  }
  /// Copies of entry (count, block); the block must have a row.
  std::uint64_t candidate_copies(const Plane& pl, std::uint32_t row,
                                 std::uint32_t count) const;
  /// Adds `copies` copies of entry (count, block).
  void push_candidate(Plane& pl, std::uint32_t count, std::uint32_t block,
                      std::uint64_t copies = 1);
  /// Removes every copy of the top entry and returns how many there were.
  std::uint64_t pop_candidate(Plane& pl);
  /// Top entry's block (the index must be non-empty).
  static std::uint32_t top_candidate(const Plane& pl) {
    return pl.candidates.heaps[pl.candidates.top - 1].front();
  }
  void audit_candidates(std::uint32_t plane, AuditReport& report) const;
  void ensure_storage(Block& b);
  void ensure_parity_storage(Block& b);
  /// Returns an erased or retired block's pages and parity bits to the
  /// unwritten state.
  void clear_pages(Block& b);
  std::uint32_t stripes_per_block() const {
    return stripe_pages_ == 0 ? 0 : cfg_.pages_per_block / stripe_pages_;
  }
  SsdConfig cfg_;
  AddressMap amap_;
  std::uint64_t gc_threshold_;
  std::vector<Plane> planes_;
  std::uint64_t total_erases_ = 0;
  std::uint64_t total_retired_ = 0;
  std::uint32_t initial_pe_ = 0;  // uniform pre-age applied at wiring
  std::uint32_t stripe_pages_ = 0;  // data pages per parity stripe (0=off)
};

}  // namespace reqblock
