// Request block: the unit of cache management in Req-block (paper §3.1).
//
// A request block groups the cached pages that entered the buffer through
// one write request. Blocks live on exactly one of three linked lists:
//
//   IRL (Inserted Request List)  — every block starts here;
//   SRL (Small Request List)     — blocks with <= delta pages, promoted on
//                                  a hit (highest retention priority);
//   DRL (Divided Request List)   — the *hit portions* split out of large
//                                  blocks.
//
// The policy keeps blocks by value in a SlotMap and threads each list
// through the blocks' `link` members. A block's pages are a second chain,
// threaded through the page table's entries, so adding, splitting off and
// evicting a page touches no heap.
#pragma once

#include <cstdint>

#include "util/fields.h"
#include "util/slot_map.h"
#include "util/types.h"

namespace reqblock {

enum class ReqList : std::uint8_t { kIRL = 0, kSRL = 1, kDRL = 2 };

inline const char* to_string(ReqList l) {
  switch (l) {
    case ReqList::kIRL: return "IRL";
    case ReqList::kSRL: return "SRL";
    case ReqList::kDRL: return "DRL";
  }
  return "?";
}

struct ReqBlock {
  /// Unique block identity (never reused within a policy instance).
  std::uint64_t block_id = 0;
  /// The host request this block belongs to (groups pages per request).
  std::uint64_t req_id = 0;
  /// Paper Eq. 1: access count since buffering, initialized to 1.
  std::uint64_t access_cnt = 1;
  /// Paper Eq. 1: T_insert, in policy ticks (one tick per page access).
  Tick insert_tick = 0;
  /// For DRL blocks: the block this one was split from (0 = none). Used by
  /// the downgraded-merge eviction path (paper Fig. 6).
  std::uint64_t origin_id = 0;
  /// The block's pages, threaded through the policy's page table
  /// (ReqPageNode links): the first and last page's slot there, kNoSlot
  /// when the block is empty. Chain order is the victim batch's flush
  /// order.
  Slot first_page = kNoSlot;
  Slot last_page = kNoSlot;
  /// Pages on the chain (Eq. 1's Page_num).
  std::uint32_t page_num = 0;
  /// Which of the three lists currently holds the block.
  ReqList level = ReqList::kIRL;
  /// Links on the list named by `level`.
  SlotLink link;

  std::size_t page_count() const { return page_num; }
};

/// A cached page's entry in Req-block's page table: the slot of its block
/// and its neighbours on that block's page chain (kNoSlot at either end).
struct ReqPageNode {
  Slot block = kNoSlot;
  Slot prev = kNoSlot;
  Slot next = kNoSlot;
};

/// Page counts per list, logged for the paper's Fig. 13.
struct ListOccupancy {
  std::uint64_t irl_pages = 0;
  std::uint64_t srl_pages = 0;
  std::uint64_t drl_pages = 0;
  std::uint64_t irl_blocks = 0;
  std::uint64_t srl_blocks = 0;
  std::uint64_t drl_blocks = 0;

  std::uint64_t total_pages() const {
    return irl_pages + srl_pages + drl_pages;
  }
};

/// ListOccupancy's fields in snapshot order (src/util/fields.h).
inline constexpr auto kListOccupancyFields = std::tuple{
    Field{REQB_KNOB_FIELD(irl_pages)},
    Field{REQB_KNOB_FIELD(srl_pages)},
    Field{REQB_KNOB_FIELD(drl_pages)},
    Field{REQB_KNOB_FIELD(irl_blocks)},
    Field{REQB_KNOB_FIELD(srl_blocks)},
    Field{REQB_KNOB_FIELD(drl_blocks)},
};

}  // namespace reqblock
