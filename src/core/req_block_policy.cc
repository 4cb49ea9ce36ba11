#include "core/req_block_policy.h"

#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "snapshot/snapshot.h"
#include "util/check.h"

namespace reqblock {

ReqBlockPolicy::ReqBlockPolicy(ReqBlockOptions options) : opt_(options) {
  REQB_CHECK_MSG(opt_.delta >= 1, "delta must be at least one page");
}

ReqBlockPolicy::BlockList& ReqBlockPolicy::list_for(ReqList level) {
  return lists_[static_cast<std::size_t>(level)];
}

Slot ReqBlockPolicy::create_block(std::uint64_t req_id, ReqList level,
                                  std::uint64_t origin_id) {
  const std::uint64_t id = next_block_id_++;
  const auto [s, inserted] = blocks_.try_emplace(id);
  REQB_DCHECK(inserted);
  ReqBlock& blk = blocks_[s];
  blk.block_id = id;
  blk.req_id = req_id;
  blk.level = level;
  blk.access_cnt = 1;
  blk.insert_tick = tick_;
  blk.origin_id = origin_id;
  list_for(level).push_front(s);
  return s;
}

void ReqBlockPolicy::move_block(Slot blk, ReqList level) {
  ReqBlock& b = blocks_[blk];
  list_for(b.level).erase(blk);
  b.level = level;
  list_for(level).push_front(blk);
}

void ReqBlockPolicy::destroy_block(Slot blk) {
  list_for(blocks_[blk].level).erase(blk);
  blocks_.erase_slot(blk);
}

void ReqBlockPolicy::append_page(Slot blk, Slot page) {
  ReqBlock& b = blocks_[blk];
  ReqPageNode& node = page_to_block_[page];
  node.block = blk;
  node.prev = b.last_page;
  node.next = kNoSlot;
  if (b.last_page != kNoSlot) {
    page_to_block_[b.last_page].next = page;
  } else {
    b.first_page = page;
  }
  b.last_page = page;
  ++b.page_num;
}

void ReqBlockPolicy::remove_page(Slot page) {
  ReqPageNode& node = page_to_block_[page];
  ReqBlock& b = blocks_[node.block];
  // Pop the last page off the chain...
  const Slot last = b.last_page;
  ReqPageNode& moved = page_to_block_[last];
  b.last_page = moved.prev;
  if (moved.prev != kNoSlot) {
    page_to_block_[moved.prev].next = kNoSlot;
  } else {
    b.first_page = kNoSlot;
  }
  --b.page_num;
  // ...and, unless it was the removed page, relink it in that page's place.
  if (last != page) {
    moved.prev = node.prev;
    moved.next = node.next;
    (moved.prev != kNoSlot ? page_to_block_[moved.prev].next : b.first_page) =
        last;
    (moved.next != kNoSlot ? page_to_block_[moved.next].prev : b.last_page) =
        last;
  }
  node.prev = kNoSlot;
  node.next = kNoSlot;
}

void ReqBlockPolicy::consume_block(Slot blk) {
  for (Slot page = blocks_[blk].first_page; page != kNoSlot;) {
    const Slot next = page_to_block_[page].next;
    victim_pages_.push_back(page_to_block_.key_at(page));
    page_to_block_.erase_slot(page);
    page = next;
  }
  destroy_block(blk);
}

Slot ReqBlockPolicy::guard_target(std::uint64_t guard,
                                  std::uint64_t req_id) const {
  if (guard == 0) return kNoSlot;
  const Slot s = blocks_.find(guard);
  return s != kNoSlot && blocks_[s].req_id == req_id ? s : kNoSlot;
}

bool ReqBlockPolicy::guarded(const ReqBlock& blk) const {
  return blk.block_id == guard_insert_block_ ||
         blk.block_id == guard_split_block_;
}

void ReqBlockPolicy::begin_request(const IoRequest& req) {
  if (req.id != current_req_id_) {
    current_req_id_ = req.id;
    guard_insert_block_ = 0;
    guard_split_block_ = 0;
  }
}

void ReqBlockPolicy::on_insert(Lpn lpn, const IoRequest& req, bool) {
  ++tick_;
  ++mutations_;
  // create_req_blk(IRL, R): reuse the request's block at the IRL head.
  Slot target = guard_target(guard_insert_block_, req.id);
  if (target == kNoSlot) {
    target = create_block(req.id, ReqList::kIRL, /*origin_id=*/0);
    guard_insert_block_ = blocks_[target].block_id;
  }
  const auto [page, fresh] = page_to_block_.try_emplace(lpn);
  REQB_DCHECK(fresh);
  (void)fresh;
  append_page(target, page);
}

void ReqBlockPolicy::on_hit(Lpn lpn, const IoRequest& req, bool) {
  ++tick_;
  ++mutations_;
  const Slot page_slot = page_to_block_.find(lpn);
  REQB_CHECK_MSG(page_slot != kNoSlot, "Req-block hit on untracked page");
  // The hit block is held by slot: creating the split target below may
  // grow the slab and move every block.
  const Slot source = page_to_block_[page_slot].block;
  ReqBlock& blk = blocks_[source];

  if (blk.page_count() <= opt_.delta) {
    // Small request block: promote to the Small Request List head.
    ++blk.access_cnt;
    move_block(source, ReqList::kSRL);
    if (trace_ != nullptr) {
      trace_->emit({trace_->time(), 0, lpn, blk.page_count(),
                    EventKind::kReqBlockPromote, kTrackSrl, 0});
    }
    return;
  }

  // Large request block: split the hit page into the request's block at
  // the DRL head (creating it on the first split of this request).
  remove_page(page_slot);

  Slot target = guard_target(guard_split_block_, req.id);
  if (target == kNoSlot) {
    target = create_block(req.id, ReqList::kDRL, blk.block_id);
    guard_split_block_ = blocks_[target].block_id;
  }
  REQB_DCHECK(target != source);
  append_page(target, page_slot);
  const std::size_t left = blocks_[source].page_count();
  if (trace_ != nullptr) {
    trace_->emit({trace_->time(), 0, lpn, left, EventKind::kReqBlockSplit,
                  kTrackDrl, 0});
  }

  if (left == 0) destroy_block(source);
}

VictimBatch ReqBlockPolicy::select_victim() {
  // get_victim(): compare Eq. 1 over the three list tails, skipping the
  // in-flight request's blocks. Deterministic tie-break: IRL, DRL, SRL.
  const ReqList order[] = {ReqList::kIRL, ReqList::kDRL, ReqList::kSRL};
  Slot victim = kNoSlot;
  double best = std::numeric_limits<double>::infinity();
  for (const ReqList level : order) {
    const BlockList& list = list_for(level);
    Slot cand = list.tail();
    while (cand != kNoSlot && guarded(blocks_[cand])) cand = list.prev(cand);
    if (cand == kNoSlot) continue;
    const double f = req_block_freq(blocks_[cand], tick_, opt_.freq_mode);
    // A just-inserted tail (age 0) scores +inf; it must still be
    // evictable — the power-loss drain selects until the cache is empty,
    // where such a block can be the only candidate left.
    if (victim == kNoSlot || f < best) {
      best = f;
      victim = cand;
    }
  }

  victim_pages_.clear();
  if (victim == kNoSlot) return {};

  // Downgraded merging (Fig. 6): a split victim drags its origin block out
  // of IRL so the request is evicted as one spatially-contiguous batch.
  const ReqBlock& v = blocks_[victim];
  Slot origin = kNoSlot;
  if (opt_.merge_on_evict && v.origin_id != 0) {
    const Slot slot = blocks_.find(v.origin_id);
    if (slot != kNoSlot && blocks_[slot].level == ReqList::kIRL &&
        !guarded(blocks_[slot])) {
      origin = slot;
    }
  }
  ++mutations_;
  const auto victim_track =
      static_cast<std::uint16_t>(static_cast<std::size_t>(v.level) + 1);
  const Lpn first_lpn =
      v.first_page == kNoSlot ? 0 : page_to_block_.key_at(v.first_page);
  consume_block(victim);
  if (origin != kNoSlot) {
    const std::uint64_t before = victim_pages_.size();
    consume_block(origin);
    if (trace_ != nullptr) {
      trace_->emit({trace_->time(), 0, first_lpn,
                    victim_pages_.size() - before, EventKind::kReqBlockMerge,
                    kTrackIrl, 0});
    }
  }
  if (trace_ != nullptr) {
    trace_->emit({trace_->time(), 0, first_lpn, victim_pages_.size(),
                  EventKind::kReqBlockBatchEvict, victim_track, 0});
  }
  VictimBatch batch;
  batch.pages = victim_pages_;
  batch.colocate = opt_.colocate_flush;
  return batch;
}

ListOccupancy ReqBlockPolicy::occupancy() const {
  const auto pages_on = [this](const BlockList& list) {
    std::uint64_t pages = 0;
    list.for_each([&](Slot s) { pages += blocks_[s].page_count(); });
    return pages;
  };
  ListOccupancy occ;
  occ.irl_pages = pages_on(lists_[0]);
  occ.srl_pages = pages_on(lists_[1]);
  occ.drl_pages = pages_on(lists_[2]);
  occ.irl_blocks = lists_[0].size();
  occ.srl_blocks = lists_[1].size();
  occ.drl_blocks = lists_[2].size();
  return occ;
}

const ListOccupancy& ReqBlockPolicy::occupancy_memo() const {
  if (occ_memo_mutations_ != mutations_) {
    occ_memo_ = occupancy();
    occ_memo_mutations_ = mutations_;
  }
  return occ_memo_;
}

void ReqBlockPolicy::set_trace(TraceBuffer* trace) {
  trace_ = trace != nullptr && trace->enabled(EventCategory::kCache)
               ? trace
               : nullptr;
}

void ReqBlockPolicy::register_metrics(MetricsRegistry& registry) const {
  WriteBufferPolicy::register_metrics(registry);
  registry.register_gauge("policy.blocks", [this] {
    return static_cast<double>(blocks_.size());
  });
  registry.register_gauge("list.irl_pages", [this] {
    return static_cast<double>(occupancy_memo().irl_pages);
  });
  registry.register_gauge("list.srl_pages", [this] {
    return static_cast<double>(occupancy_memo().srl_pages);
  });
  registry.register_gauge("list.drl_pages", [this] {
    return static_cast<double>(occupancy_memo().drl_pages);
  });
  registry.register_gauge("list.irl_blocks", [this] {
    return static_cast<double>(occupancy_memo().irl_blocks);
  });
  registry.register_gauge("list.srl_blocks", [this] {
    return static_cast<double>(occupancy_memo().srl_blocks);
  });
  registry.register_gauge("list.drl_blocks", [this] {
    return static_cast<double>(occupancy_memo().drl_blocks);
  });
}

const ReqBlock* ReqBlockPolicy::block_of(Lpn lpn) const {
  const Slot slot = page_to_block_.find(lpn);
  return slot == kNoSlot ? nullptr : &blocks_[page_to_block_[slot].block];
}

std::vector<Lpn> ReqBlockPolicy::pages_of(const ReqBlock& blk) const {
  std::vector<Lpn> pages;
  pages.reserve(blk.page_count());
  for (Slot p = blk.first_page; p != kNoSlot; p = page_to_block_[p].next) {
    pages.push_back(page_to_block_.key_at(p));
  }
  return pages;
}

const ReqBlock* ReqBlockPolicy::tail_of(ReqList list) const {
  return at(lists_[static_cast<std::size_t>(list)].tail());
}

const ReqBlock* ReqBlockPolicy::prev_in_list(const ReqBlock* blk) const {
  return at(lists_[static_cast<std::size_t>(blk->level)].prev(
      blocks_.find(blk->block_id)));
}

ReqBlock* ReqBlockPolicy::mutable_block_for_tests(Lpn lpn) {
  const Slot slot = page_to_block_.find(lpn);
  return slot == kNoSlot ? nullptr : &blocks_[page_to_block_[slot].block];
}

ReqPageNode* ReqBlockPolicy::mutable_page_for_tests(Lpn lpn) {
  const Slot slot = page_to_block_.find(lpn);
  return slot == kNoSlot ? nullptr : &page_to_block_[slot];
}

bool ReqBlockPolicy::enumerate_pages(
    const std::function<void(Lpn)>& fn) const {
  page_to_block_.for_each_unordered(
      [&](Lpn lpn, const ReqPageNode&) { fn(lpn); });
  return true;
}

std::string ReqBlockPolicy::dump_structure() const {
  std::ostringstream os;
  os << "Req-block state: tick=" << tick_ << " delta=" << opt_.delta
     << " blocks=" << blocks_.size() << " pages=" << page_to_block_.size()
     << " guards(insert=" << guard_insert_block_
     << ", split=" << guard_split_block_ << ", req=" << current_req_id_
     << ")\n";
  const ReqList order[] = {ReqList::kIRL, ReqList::kSRL, ReqList::kDRL};
  for (const ReqList level : order) {
    os << "  " << to_string(level) << " (head→tail):";
    const BlockList& list = lists_[static_cast<std::size_t>(level)];
    if (!list.validate()) {
      os << " corrupt chain, not walked\n";  // it may cycle
      continue;
    }
    list.for_each([&](Slot s) {
      const ReqBlock& b = blocks_[s];
      os << " [id=" << b.block_id << " req=" << b.req_id
         << " pages=" << b.page_count() << " acc=" << b.access_cnt
         << " t=" << b.insert_tick << " origin=" << b.origin_id << "]";
    });
    os << "\n";
  }
  return os.str();
}

void ReqBlockPolicy::audit(AuditReport& report) const {
  report.attach_dump([this] { return dump_structure(); });
  REQB_AUDIT(report, opt_.delta >= 1);
  REQB_AUDIT_MSG(report, blocks_.validate(),
                 "block table index disagrees with its slab");
  REQB_AUDIT_MSG(report, page_to_block_.validate(),
                 "page table index disagrees with its slab");

  // Pass 1 — the three lists: structure (every linked slot is a live
  // block), level tags, and that no block appears on two lists (or twice
  // on one).
  std::vector<bool> on_lists(blocks_.slab_size(), false);
  std::size_t listed = 0;
  const ReqList order[] = {ReqList::kIRL, ReqList::kSRL, ReqList::kDRL};
  for (const ReqList level : order) {
    const BlockList& list = lists_[static_cast<std::size_t>(level)];
    if (!REQB_AUDIT_MSG(report, list.validate(),
                        std::string("corrupt ") + to_string(level) +
                            " chain")) {
      continue;  // a broken chain may cycle or lead off the slab
    }
    list.for_each([&](Slot s) {
      const ReqBlock& b = blocks_[s];
      ++listed;
      REQB_AUDIT_MSG(report, b.level == level,
                     "block " + std::to_string(b.block_id) + " on " +
                         to_string(level) + " but tagged " +
                         to_string(b.level));
      REQB_AUDIT_MSG(report, !on_lists[s],
                     "block " + std::to_string(b.block_id) +
                         " linked on two lists");
      on_lists[s] = true;
    });
  }
  REQB_AUDIT_MSG(report, listed == blocks_.size(),
                 "lists link " + std::to_string(listed) +
                     " blocks, table owns " + std::to_string(blocks_.size()));

  // Pass 2 — every owned block: its page chain against the page table,
  // Eq. 1 counter bounds, δ-membership per list, origin backpointers.
  // `chained` marks each page-table slot a chain visits, so a page linked
  // twice (on one chain or two) is caught and no cycle is walked forever.
  std::vector<bool> chained(page_to_block_.slab_size(), false);
  std::size_t block_pages = 0;
  blocks_.for_each_unordered([&](std::uint64_t id, const ReqBlock& b) {
    const std::string tag = "block " + std::to_string(id);
    REQB_AUDIT_MSG(report, b.block_id == id,
                   tag + " keyed under " + std::to_string(id) + " but holds " +
                       std::to_string(b.block_id));
    REQB_AUDIT_MSG(report, id < next_block_id_,
                   tag + " at/above the id allocator " +
                       std::to_string(next_block_id_));
    REQB_AUDIT_MSG(report, b.page_num != 0, tag + " is empty yet live");
    REQB_AUDIT_MSG(report, b.insert_tick <= tick_,
                   tag + " inserted at tick " +
                       std::to_string(b.insert_tick) + " > now " +
                       std::to_string(tick_));
    REQB_AUDIT_MSG(report, b.access_cnt >= 1,
                   tag + " has Eq.1 access count 0");
    switch (b.level) {
      case ReqList::kIRL:
        REQB_AUDIT_MSG(report, b.origin_id == 0,
                       tag + " in IRL with split origin " +
                           std::to_string(b.origin_id));
        REQB_AUDIT_MSG(report, b.access_cnt == 1,
                       tag + " in IRL with access count " +
                           std::to_string(b.access_cnt) +
                           " (hits must promote or split)");
        break;
      case ReqList::kSRL:
        // δ-membership: only small blocks are promoted and SRL blocks
        // never grow, so the bound must still hold.
        REQB_AUDIT_MSG(report, b.page_count() <= opt_.delta,
                       tag + " in SRL with " +
                           std::to_string(b.page_count()) +
                           " pages > delta " + std::to_string(opt_.delta));
        REQB_AUDIT_MSG(report, b.access_cnt >= 2,
                       tag + " in SRL with access count " +
                           std::to_string(b.access_cnt) +
                           " (promotion increments it)");
        break;
      case ReqList::kDRL:
        REQB_AUDIT_MSG(report, b.origin_id != 0,
                       tag + " in DRL without a split origin");
        REQB_AUDIT_MSG(report, b.access_cnt == 1,
                       tag + " in DRL with access count " +
                           std::to_string(b.access_cnt) +
                           " (hits must promote or split)");
        break;
    }
    if (b.origin_id != 0) {
      REQB_AUDIT_MSG(report, b.origin_id < b.block_id,
                     tag + " split from origin " +
                         std::to_string(b.origin_id) +
                         " created after it");
    }
    // The chain: each link names a live page-table entry, visited once,
    // that names this block and links back to its predecessor; the walk
    // ends at last_page after page_num pages.
    const Slot self = blocks_.find(id);
    std::size_t walked = 0;
    Slot before = kNoSlot;
    bool intact = true;
    for (Slot p = b.first_page; p != kNoSlot; p = page_to_block_[p].next) {
      if (!REQB_AUDIT_MSG(report, page_to_block_.live(p),
                          tag + " chains page-table slot " +
                              std::to_string(p) + ", which holds no page") ||
          !REQB_AUDIT_MSG(report, !chained[p],
                          tag + " holds a duplicate page " +
                              std::to_string(page_to_block_.key_at(p)) +
                              " (linked twice)")) {
        intact = false;
        break;
      }
      chained[p] = true;
      ++walked;
      const Lpn lpn = page_to_block_.key_at(p);
      const ReqPageNode& node = page_to_block_[p];
      REQB_AUDIT_MSG(report, node.block == self,
                     tag + " holds page " + std::to_string(lpn) +
                         " but the page table disagrees");
      REQB_AUDIT_MSG(report, node.prev == before,
                     tag + " page " + std::to_string(lpn) +
                         " links back to the wrong page");
      before = p;
    }
    if (intact) {
      REQB_AUDIT_MSG(report, before == b.last_page && walked == b.page_num,
                     tag + " chain walks " + std::to_string(walked) +
                         " pages, block says " + std::to_string(b.page_num) +
                         (before == b.last_page ? "" : ", ending elsewhere"));
    }
    block_pages += walked;
  });
  // Each chained page was visited once and names its block, so size
  // equality makes the page table and the union of the chains the *same*
  // set.
  REQB_AUDIT_MSG(report, block_pages == page_to_block_.size(),
                 "blocks hold " + std::to_string(block_pages) +
                     " pages, page table tracks " +
                     std::to_string(page_to_block_.size()));
}

void ReqBlockPolicy::serialize(SnapshotWriter& w) const {
  w.tag("reqblock");
  w.u64(tick_);
  w.u64(next_block_id_);
  w.u64(current_req_id_);
  w.u64(guard_insert_block_);
  w.u64(guard_split_block_);
  w.u64(mutations_);
  // Three lists head-to-tail; list membership implies the level field and
  // page order within a block is the victim-batch flush order.
  for (const auto& list : lists_) {
    w.u64(list.size());
    list.for_each([&](Slot s) {
      const ReqBlock& b = blocks_[s];
      w.u64(b.block_id);
      w.u64(b.req_id);
      w.u64(b.access_cnt);
      w.u64(b.insert_tick);
      w.u64(b.origin_id);
      w.u64(b.page_num);
      for (Slot p = b.first_page; p != kNoSlot; p = page_to_block_[p].next) {
        w.u64(page_to_block_.key_at(p));
      }
    });
  }
}

void ReqBlockPolicy::deserialize(SnapshotReader& r) {
  r.tag("reqblock");
  REQB_CHECK_MSG(blocks_.empty(),
                 "deserialize into a non-fresh Req-block policy");
  tick_ = r.u64();
  next_block_id_ = r.u64();
  current_req_id_ = r.u64();
  guard_insert_block_ = r.u64();
  guard_split_block_ = r.u64();
  mutations_ = r.u64();
  for (std::size_t level = 0; level < lists_.size(); ++level) {
    const std::uint64_t count = r.u64();
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t id = r.u64();
      // Id 0 is the no-guard sentinel, and create_block hands out
      // next_block_id_ onward: a block outside [1, next_block_id_) would
      // be shielded forever or collide with the next new block.
      if (id == 0 || id >= next_block_id_) {
        throw SnapshotError("Req-block snapshot block id " +
                            std::to_string(id) + " outside [1, " +
                            std::to_string(next_block_id_) + ")");
      }
      const auto [slot, inserted] = blocks_.try_emplace(id);
      if (!inserted) {
        throw SnapshotError("Req-block snapshot repeats a block id");
      }
      ReqBlock& blk = blocks_[slot];
      blk.block_id = id;
      blk.req_id = r.u64();
      blk.level = static_cast<ReqList>(level);
      blk.access_cnt = r.u64();
      blk.insert_tick = r.u64();
      blk.origin_id = r.u64();
      // A split block is newer than its origin; one that names itself
      // would be merged into its own eviction and freed twice.
      if (blk.origin_id >= id) {
        throw SnapshotError("Req-block snapshot block " + std::to_string(id) +
                            " split from block " +
                            std::to_string(blk.origin_id));
      }
      const std::uint64_t pages = r.count(8);
      if (pages == 0) {
        throw SnapshotError("Req-block snapshot has an empty block");
      }
      for (std::uint64_t p = 0; p < pages; ++p) {
        const auto [page_slot, fresh] = page_to_block_.try_emplace(r.u64());
        if (!fresh) throw SnapshotError("Req-block snapshot repeats a page");
        append_page(slot, page_slot);
      }
      lists_[level].push_back(slot);
    }
  }
  // The occupancy memo key starts at ~0 on a fresh instance, which can
  // never equal the restored mutation counter, so the memo rebuilds lazily.
}

}  // namespace reqblock
