// Slow-but-obviously-correct reference models for the differential checker.
//
// Each reference implements one replacement discipline with the most naive
// data structure that can express it (a std::vector scanned linearly), so
// its correctness is evident by inspection. The differential tests replay
// identical operation streams through a real policy and its reference and
// require identical victim choices at every eviction — any divergence is a
// bug in the optimized structure (or a silent behavior change).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "cache/vbbms.h"
#include "core/freq.h"
#include "core/req_block_policy.h"
#include "trace/io_request.h"
#include "util/check.h"
#include "util/types.h"

namespace reqblock::testing {

/// Reference LRU: a vector ordered oldest-access-first. O(n) per op.
class ReferenceLru {
 public:
  void insert(Lpn lpn) {
    REQB_CHECK(!contains(lpn));
    order_.push_back(lpn);
  }

  void hit(Lpn lpn) {
    const auto it = std::find(order_.begin(), order_.end(), lpn);
    REQB_CHECK(it != order_.end());
    order_.erase(it);
    order_.push_back(lpn);  // most recent at the back
  }

  /// Evicts and returns the least recently used page.
  Lpn victim() {
    REQB_CHECK(!order_.empty());
    const Lpn v = order_.front();
    order_.erase(order_.begin());
    return v;
  }

  bool contains(Lpn lpn) const {
    return std::find(order_.begin(), order_.end(), lpn) != order_.end();
  }
  std::size_t size() const { return order_.size(); }

 private:
  std::vector<Lpn> order_;
};

/// Reference FIFO: insertion order only; hits change nothing.
class ReferenceFifo {
 public:
  void insert(Lpn lpn) {
    REQB_CHECK(!contains(lpn));
    order_.push_back(lpn);
  }

  void hit(Lpn lpn) { REQB_CHECK(contains(lpn)); }

  Lpn victim() {
    REQB_CHECK(!order_.empty());
    const Lpn v = order_.front();
    order_.erase(order_.begin());
    return v;
  }

  bool contains(Lpn lpn) const {
    return std::find(order_.begin(), order_.end(), lpn) != order_.end();
  }
  std::size_t size() const { return order_.size(); }

 private:
  std::vector<Lpn> order_;
};

/// Reference LFU with LRU tie-breaking inside a frequency class: pages kept
/// in access order (least recent first within equal counts via stable
/// scanning).
class ReferenceLfu {
 public:
  void insert(Lpn lpn) {
    REQB_CHECK(!contains(lpn));
    entries_.push_back({lpn, 1, clock_++});
  }

  void hit(Lpn lpn) {
    Entry* e = find(lpn);
    REQB_CHECK(e != nullptr);
    ++e->freq;
    e->last_access = clock_++;
  }

  /// Evicts the page with the lowest frequency; among ties, the least
  /// recently accessed (matching the real policy's in-class LRU order).
  Lpn victim() {
    REQB_CHECK(!entries_.empty());
    std::size_t best = 0;
    for (std::size_t i = 1; i < entries_.size(); ++i) {
      const Entry& cand = entries_[i];
      const Entry& cur = entries_[best];
      if (cand.freq < cur.freq ||
          (cand.freq == cur.freq && cand.last_access < cur.last_access)) {
        best = i;
      }
    }
    const Lpn v = entries_[best].lpn;
    entries_.erase(entries_.begin() +
                   static_cast<std::ptrdiff_t>(best));
    return v;
  }

  bool contains(Lpn lpn) const {
    return const_cast<ReferenceLfu*>(this)->find(lpn) != nullptr;
  }
  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    Lpn lpn;
    std::uint64_t freq;
    std::uint64_t last_access;
  };

  Entry* find(Lpn lpn) {
    for (Entry& e : entries_) {
      if (e.lpn == lpn) return &e;
    }
    return nullptr;
  }

  std::uint64_t clock_ = 0;
  std::vector<Entry> entries_;
};

/// Reference CFLRU: pages ordered oldest-access-first with a dirty flag.
/// The victim is the first clean page among the `window` least recently
/// used, else the least recently used page.
class ReferenceCflru {
 public:
  explicit ReferenceCflru(std::size_t window) : window_(window) {}

  void insert(Lpn lpn, const IoRequest&, bool is_write) {
    REQB_CHECK(!contains(lpn));
    order_.push_back({lpn, is_write});
  }

  void hit(Lpn lpn, const IoRequest&, bool is_write) {
    const auto it = find(lpn);
    REQB_CHECK(it != order_.end());
    Page page = *it;
    page.dirty = page.dirty || is_write;
    order_.erase(it);
    order_.push_back(page);  // most recent at the back
  }

  std::vector<Lpn> victim() {
    REQB_CHECK(!order_.empty());
    std::size_t pick = 0;
    for (std::size_t i = 0; i < order_.size() && i < window_; ++i) {
      if (!order_[i].dirty) {
        pick = i;
        break;
      }
    }
    const Lpn v = order_[pick].lpn;
    order_.erase(order_.begin() + static_cast<std::ptrdiff_t>(pick));
    return {v};
  }

  bool contains(Lpn lpn) const {
    return const_cast<ReferenceCflru*>(this)->find(lpn) != order_.end();
  }
  std::size_t size() const { return order_.size(); }
  std::size_t clean_pages() const {
    return static_cast<std::size_t>(
        std::count_if(order_.begin(), order_.end(),
                      [](const Page& p) { return !p.dirty; }));
  }

 private:
  struct Page {
    Lpn lpn;
    bool dirty;
  };

  std::vector<Page>::iterator find(Lpn lpn) {
    return std::find_if(order_.begin(), order_.end(),
                        [lpn](const Page& p) { return p.lpn == lpn; });
  }

  std::size_t window_;
  std::vector<Page> order_;
};

/// Reference FAB: groups of pages per logical block, in insertion order.
/// The victim is the whole group holding the most pages; among equal
/// groups, the smallest block id. Hits change nothing.
class ReferenceFab {
 public:
  explicit ReferenceFab(std::uint32_t pages_per_block)
      : pages_per_block_(pages_per_block) {}

  void insert(Lpn lpn, const IoRequest&, bool) {
    REQB_CHECK(!contains(lpn));
    const Lpn block = lpn / pages_per_block_;
    for (Group& g : groups_) {
      if (g.block == block) {
        g.pages.push_back(lpn);
        return;
      }
    }
    groups_.push_back({block, {lpn}});
  }

  void hit(Lpn lpn, const IoRequest&, bool) { REQB_CHECK(contains(lpn)); }

  std::vector<Lpn> victim() {
    REQB_CHECK(!groups_.empty());
    std::size_t best = 0;
    for (std::size_t i = 1; i < groups_.size(); ++i) {
      const Group& cand = groups_[i];
      const Group& cur = groups_[best];
      if (cand.pages.size() > cur.pages.size() ||
          (cand.pages.size() == cur.pages.size() && cand.block < cur.block)) {
        best = i;
      }
    }
    std::vector<Lpn> pages = groups_[best].pages;
    groups_.erase(groups_.begin() + static_cast<std::ptrdiff_t>(best));
    return pages;
  }

  bool contains(Lpn lpn) const {
    for (const Group& g : groups_) {
      if (std::find(g.pages.begin(), g.pages.end(), lpn) != g.pages.end()) {
        return true;
      }
    }
    return false;
  }
  std::size_t size() const {
    std::size_t n = 0;
    for (const Group& g : groups_) n += g.pages.size();
    return n;
  }

 private:
  struct Group {
    Lpn block;
    std::vector<Lpn> pages;
  };

  std::uint32_t pages_per_block_;
  std::vector<Group> groups_;
};

/// Reference BPLRU (default options: no padding, page accounting): logical
/// blocks ordered least-recent-first. Any access moves the block to the
/// recent end, except that an insert completing a fully sequential write of
/// the block (offsets 0, 1, ... in order) moves it to the eviction end. A
/// write hit ends the block's sequential run. The victim is the whole
/// least recent block, pages in insertion order.
class ReferenceBplru {
 public:
  explicit ReferenceBplru(std::uint32_t pages_per_block)
      : pages_per_block_(pages_per_block) {}

  void insert(Lpn lpn, const IoRequest&, bool) {
    REQB_CHECK(!contains(lpn));
    const Lpn id = lpn / pages_per_block_;
    auto it = find(id);
    if (it == order_.end()) {
      order_.push_back({id, {}, 0, true});
      it = order_.end() - 1;
    }
    Block b = *it;
    order_.erase(it);
    b.pages.push_back(lpn);
    if (b.sequential && lpn % pages_per_block_ == b.next_offset) {
      ++b.next_offset;
    } else {
      b.sequential = false;
    }
    if (b.sequential && b.next_offset == pages_per_block_) {
      order_.insert(order_.begin(), b);  // LRU compensation
    } else {
      order_.push_back(b);
    }
  }

  void hit(Lpn lpn, const IoRequest&, bool is_write) {
    REQB_CHECK(contains(lpn));
    const auto it = find(lpn / pages_per_block_);
    Block b = *it;
    order_.erase(it);
    if (is_write) b.sequential = false;
    order_.push_back(b);
  }

  std::vector<Lpn> victim() {
    REQB_CHECK(!order_.empty());
    std::vector<Lpn> pages = order_.front().pages;
    order_.erase(order_.begin());
    return pages;
  }

  bool contains(Lpn lpn) const {
    const auto it = const_cast<ReferenceBplru*>(this)->find(
        lpn / pages_per_block_);
    return it != order_.end() &&
           std::find(it->pages.begin(), it->pages.end(), lpn) !=
               it->pages.end();
  }
  std::size_t size() const {
    std::size_t n = 0;
    for (const Block& b : order_) n += b.pages.size();
    return n;
  }

 private:
  struct Block {
    Lpn id;
    std::vector<Lpn> pages;
    std::uint32_t next_offset;
    bool sequential;
  };

  std::vector<Block>::iterator find(Lpn id) {
    return std::find_if(order_.begin(), order_.end(),
                        [id](const Block& b) { return b.id == id; });
  }

  std::uint32_t pages_per_block_;
  std::vector<Block> order_;  // least recent first
};

/// Reference VBBMS: requests of at least `seq_request_threshold` pages fill
/// the sequential region, in virtual blocks of `seq_vb_pages` kept in
/// creation order; the rest fill the random region, in virtual blocks of
/// `random_vb_pages` kept least-recent-first (an insert or a hit on one of
/// its pages makes a random block most recent). The victim is a whole
/// virtual block from the region that is fuller relative to its quota
/// (ties go to the sequential region), or from the other region when that
/// one is empty.
class ReferenceVbbms {
 public:
  ReferenceVbbms(std::uint64_t capacity_pages, VbbmsOptions options)
      : opt_(options) {
    random_quota_ = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(static_cast<double>(capacity_pages) *
                                      opt_.random_fraction));
    seq_quota_ = std::max<std::uint64_t>(1, capacity_pages - random_quota_);
  }

  void insert(Lpn lpn, const IoRequest& req, bool) {
    REQB_CHECK(!contains(lpn));
    const bool seq = req.pages >= opt_.seq_request_threshold;
    std::vector<VBlock>& region = seq ? seq_ : random_;
    const std::uint64_t id =
        lpn / (seq ? opt_.seq_vb_pages : opt_.random_vb_pages);
    auto it = find(region, id);
    if (it == region.end()) {
      region.push_back({id, {}});
      it = region.end() - 1;
    }
    it->pages.push_back(lpn);
    if (!seq) touch(it);
  }

  void hit(Lpn lpn, const IoRequest&, bool) {
    REQB_CHECK(contains(lpn));
    const auto it = find(random_, lpn / opt_.random_vb_pages);
    if (it != random_.end() && holds(*it, lpn)) touch(it);
  }

  std::vector<Lpn> victim() {
    const double random_load = static_cast<double>(pages_in(random_)) /
                               static_cast<double>(random_quota_);
    const double seq_load = static_cast<double>(pages_in(seq_)) /
                            static_cast<double>(seq_quota_);
    std::vector<VBlock>* region =
        seq_load >= random_load ? &seq_ : &random_;
    if (region->empty()) region = region == &seq_ ? &random_ : &seq_;
    REQB_CHECK(!region->empty());
    std::vector<Lpn> pages = region->front().pages;
    region->erase(region->begin());
    return pages;
  }

  bool contains(Lpn lpn) const {
    for (const std::vector<VBlock>* region : {&random_, &seq_}) {
      for (const VBlock& vb : *region) {
        if (holds(vb, lpn)) return true;
      }
    }
    return false;
  }
  std::size_t size() const { return pages_in(random_) + pages_in(seq_); }

 private:
  struct VBlock {
    std::uint64_t id;
    std::vector<Lpn> pages;
  };

  static std::vector<VBlock>::iterator find(std::vector<VBlock>& region,
                                            std::uint64_t id) {
    return std::find_if(region.begin(), region.end(),
                        [id](const VBlock& vb) { return vb.id == id; });
  }
  static bool holds(const VBlock& vb, Lpn lpn) {
    return std::find(vb.pages.begin(), vb.pages.end(), lpn) != vb.pages.end();
  }
  static std::size_t pages_in(const std::vector<VBlock>& region) {
    std::size_t n = 0;
    for (const VBlock& vb : region) n += vb.pages.size();
    return n;
  }
  // Moves a random-region block to the most recent end.
  void touch(std::vector<VBlock>::iterator it) {
    VBlock vb = *it;
    random_.erase(it);
    random_.push_back(vb);
  }

  VbbmsOptions opt_;
  std::uint64_t random_quota_;
  std::uint64_t seq_quota_;
  std::vector<VBlock> random_;  // least recent first
  std::vector<VBlock> seq_;     // oldest first
};

/// Brute-force Eq. 1 victim selection replicating the paper's get_victim():
/// walk each list from the tail past guarded blocks, score the three
/// candidates with req_block_freq at the policy's current tick, and take
/// the strict minimum in the deterministic tie-break order IRL, DRL, SRL.
/// Returns nullptr when nothing is evictable.
inline const ReqBlock* brute_force_victim(const ReqBlockPolicy& policy) {
  const ReqList order[] = {ReqList::kIRL, ReqList::kDRL, ReqList::kSRL};
  const ReqBlock* victim = nullptr;
  double best = std::numeric_limits<double>::infinity();
  for (const ReqList level : order) {
    const ReqBlock* cand = policy.tail_of(level);
    while (cand != nullptr && policy.is_guarded(cand)) {
      cand = policy.prev_in_list(cand);
    }
    if (cand == nullptr) continue;
    const double f =
        req_block_freq(*cand, policy.now(), policy.options().freq_mode);
    if (f < best) {
      best = f;
      victim = cand;
    }
  }
  return victim;
}

/// The page set Req-block must evict for `victim`, including the
/// downgraded-merge origin (Fig. 6) when the policy would drag it along.
/// Call BEFORE select_victim; returns the expected batch, sorted.
inline std::vector<Lpn> expected_victim_pages(const ReqBlockPolicy& policy,
                                              const ReqBlock* victim) {
  std::vector<Lpn> pages;
  if (victim == nullptr) return pages;
  pages = policy.pages_of(*victim);
  if (policy.options().merge_on_evict && victim->origin_id != 0) {
    // The origin is merged only if it still exists, still sits in IRL, and
    // is not shielded by the in-flight request.
    const ReqBlock* origin = nullptr;
    for (const ReqBlock* b = policy.tail_of(ReqList::kIRL); b != nullptr;
         b = policy.prev_in_list(b)) {
      if (b->block_id == victim->origin_id) {
        origin = b;
        break;
      }
    }
    if (origin != nullptr && !policy.is_guarded(origin)) {
      const std::vector<Lpn> merged = policy.pages_of(*origin);
      pages.insert(pages.end(), merged.begin(), merged.end());
    }
  }
  std::sort(pages.begin(), pages.end());
  return pages;
}

/// Reference GC victim selection for one plane: a lazily pruned
/// std::priority_queue of (invalid count, block) pairs, one pushed per
/// invalidation, over its own shadow of each block's invalid and erase
/// counts and of the active block. The caller mirrors every FlashArray
/// operation on the plane into it. drained() lists the pairs in the order
/// the flash snapshot section writes them.
class ReferenceGcHeap {
 public:
  static constexpr std::uint32_t kNone = ~0u;

  ReferenceGcHeap(std::uint32_t blocks, bool wear_aware,
                  std::uint32_t tie_margin)
      : invalid_(blocks, 0),
        erases_(blocks, 0),
        wear_aware_(wear_aware),
        margin_(tie_margin) {}

  void on_program(std::uint32_t block) { active_ = block; }
  void on_close_active() { active_ = kNone; }
  void on_invalidate(std::uint32_t block) {
    heap_.emplace(++invalid_[block], block);
  }
  void on_erase(std::uint32_t block) {
    invalid_[block] = 0;
    ++erases_[block];
  }
  void on_retire(std::uint32_t block) { invalid_[block] = 0; }

  std::uint32_t pick() {
    const std::uint32_t best = next_live_top();
    if (best == kNone || !wear_aware_) return best;
    const std::uint32_t best_cnt = invalid_[best];
    const std::uint32_t floor_cnt =
        best_cnt > margin_ ? best_cnt - margin_ : 1;
    std::uint32_t victim = best;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> scanned;
    while (true) {
      const std::uint32_t cand = next_live_top();
      if (cand == kNone || invalid_[cand] < floor_cnt) break;
      scanned.emplace_back(invalid_[cand], cand);
      heap_.pop();
      if (erases_[cand] < erases_[victim]) victim = cand;
    }
    for (const auto& entry : scanned) heap_.push(entry);
    return victim;
  }

  std::size_t size() const { return heap_.size(); }

  std::vector<std::pair<std::uint32_t, std::uint32_t>> drained() const {
    auto heap = heap_;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
    while (!heap.empty()) {
      out.push_back(heap.top());
      heap.pop();
    }
    return out;
  }

 private:
  std::uint32_t next_live_top() {
    while (!heap_.empty()) {
      const auto [cnt, block] = heap_.top();
      if (block == active_ || invalid_[block] != cnt || cnt == 0) {
        heap_.pop();
        continue;
      }
      return block;
    }
    return kNone;
  }

  std::priority_queue<std::pair<std::uint32_t, std::uint32_t>> heap_;
  std::vector<std::uint32_t> invalid_;
  std::vector<std::uint32_t> erases_;
  std::uint32_t active_ = kNone;
  bool wear_aware_;
  std::uint32_t margin_;
};

}  // namespace reqblock::testing
