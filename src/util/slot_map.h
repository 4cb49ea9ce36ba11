// Slot map: values at stable 32-bit slots, found by a 64-bit key.
//
// The cache's resident set and the replacement policies' node tables map
// an LPN (or a block id) to a small record, and every page access probes
// one or more of them. A SlotMap keeps the records in one slab (a vector)
// and finds them through an open-addressing index:
//   * a value stays at its slot until it is erased, across index growth;
//     freed slots are reused last-in first-out, so the slab's size follows
//     the peak entry count (for the cache, its capacity);
//   * the index is a power-of-two table of 8-byte {slot, hash} cells,
//     homed by a multiplicative hash, probed linearly and kept at most half
//     full. It doubles on insert and deletes by backward shift, so it never
//     holds tombstones;
//   * a fresh map allocates nothing, and neither does a find on it; the
//     free list has room for the whole slab, so no erase ever allocates.
//
// Slab order depends on history (which slots were freed, and when), so
// two maps holding the same entries can walk them in different orders.
// The walk is therefore named for_each_unordered; code that emits bytes
// collects the keys and sorts them first, and reqblock-lint flags a call
// inside an emission function that does not sort.
//
// SlotList threads a doubly linked list through one map's entries with
// u32 links, so a list holds slots, not pointers, and survives slab
// growth. Several lists may share one map (Req-block's IRL/SRL/DRL).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "util/check.h"

namespace reqblock {

/// A position in a SlotMap's slab, stable while its entry lives.
using Slot = std::uint32_t;
/// A failed find, and the end of a SlotList.
inline constexpr Slot kNoSlot = 0xffffffffu;

template <typename T>
class SlotMap {
 public:
  /// One index cell: the slot holding a value and the top 32 bits of its
  /// key's hash, which fix the cell's home and screen out most non-matching
  /// keys before the slab is touched.
  struct Cell {
    Slot slot = kNoSlot;  // kNoSlot = empty cell
    std::uint32_t hash = 0;
  };

  /// The one key a map cannot hold: it marks a free slab entry.
  static constexpr std::uint64_t kNoKey = ~std::uint64_t{0};

  SlotMap() = default;
  SlotMap(const SlotMap&) = delete;
  SlotMap& operator=(const SlotMap&) = delete;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// The slot holding `key`, or kNoSlot.
  Slot find(std::uint64_t key) const {
    if (size_ == 0) return kNoSlot;
    const std::uint64_t h = hash(key);
    const auto tag = static_cast<std::uint32_t>(h >> 32);
    for (std::size_t i = h >> shift_;; i = (i + 1) & mask()) {
      const Cell& c = cells_[i];
      if (c.slot == kNoSlot) return kNoSlot;
      if (c.hash == tag && slab_[c.slot].key == key) return c.slot;
    }
  }
  bool contains(std::uint64_t key) const { return find(key) != kNoSlot; }

  /// The slot holding `key` (any key but kNoKey), first inserting a
  /// value-initialized T when the key is absent; `second` is whether it
  /// was inserted. Inserting may grow the slab, which invalidates
  /// references into it (not slots).
  std::pair<Slot, bool> try_emplace(std::uint64_t key) {
    REQB_CHECK_MSG(key != kNoKey, "the slot-map key ~0 is reserved");
    if (cells_.empty()) grow();
    const std::uint64_t h = hash(key);
    const auto tag = static_cast<std::uint32_t>(h >> 32);
    std::size_t i = h >> shift_;
    for (; cells_[i].slot != kNoSlot; i = (i + 1) & mask()) {
      if (cells_[i].hash == tag && slab_[cells_[i].slot].key == key) {
        return {cells_[i].slot, false};
      }
    }
    if ((size_ + 1) * 2 > cells_.size()) {
      grow();
      for (i = h >> shift_; cells_[i].slot != kNoSlot; i = (i + 1) & mask()) {
      }
    }
    const Slot s = allocate(key);
    cells_[i] = Cell{s, tag};
    ++size_;
    return {s, true};
  }

  /// Removes `key`; returns whether it was present.
  bool erase(std::uint64_t key) {
    if (size_ == 0) return false;
    const std::uint64_t h = hash(key);
    const auto tag = static_cast<std::uint32_t>(h >> 32);
    for (std::size_t i = h >> shift_;; i = (i + 1) & mask()) {
      const Slot s = cells_[i].slot;
      if (s == kNoSlot) return false;
      if (cells_[i].hash == tag && slab_[s].key == key) {
        release(s);
        remove_cell(i);
        --size_;
        return true;
      }
    }
  }

  /// Removes `key` and returns its value, or nullopt when it is absent:
  /// one probe walk, where find() then erase_slot() would make two.
  std::optional<T> extract(std::uint64_t key) {
    if (size_ == 0) return std::nullopt;
    const std::uint64_t h = hash(key);
    const auto tag = static_cast<std::uint32_t>(h >> 32);
    for (std::size_t i = h >> shift_;; i = (i + 1) & mask()) {
      const Slot s = cells_[i].slot;
      if (s == kNoSlot) return std::nullopt;
      if (cells_[i].hash == tag && slab_[s].key == key) {
        std::optional<T> value(std::move(slab_[s].value));
        release(s);
        remove_cell(i);
        --size_;
        return value;
      }
    }
  }

  /// Removes the entry at a live slot. Its cell is found by slot id from
  /// the home of the slot's key, so the walk reads no other slab entry.
  void erase_slot(Slot s) {
    REQB_DCHECK(live(s));
    std::size_t i = hash(slab_[s].key) >> shift_;
    while (cells_[i].slot != s) {
      REQB_CHECK_MSG(cells_[i].slot != kNoSlot,
                     "slot-map index has no cell for a live slot");
      i = (i + 1) & mask();
    }
    release(s);
    remove_cell(i);
    --size_;
  }

  T& operator[](Slot s) { return slab_[s].value; }
  const T& operator[](Slot s) const { return slab_[s].value; }
  /// The key of the entry at a live slot, so a walk that holds slots (a
  /// chain threaded through the values) can name them and erase_slot them.
  std::uint64_t key_at(Slot s) const {
    REQB_DCHECK(live(s));
    return slab_[s].key;
  }
  bool live(Slot s) const {
    return s < slab_.size() && slab_[s].key != kNoKey;
  }

  /// Sizes the index for `n` entries and reserves the slab, so a restore
  /// of known size inserts without rehashing.
  void reserve(std::size_t n) {
    slab_.reserve(n);
    free_.reserve(slab_.capacity());
    std::size_t cells = cells_.empty() ? kMinCells : cells_.size();
    while (n * 2 > cells) cells *= 2;
    if (cells != cells_.size()) rehash(cells);
  }

  /// Slab entries (live and free) and index cells.
  std::size_t slab_size() const { return slab_.size(); }
  std::size_t bucket_count() const { return cells_.size(); }
  /// The index cell where the probe for `key` starts (0 with no index).
  std::size_t home_bucket(std::uint64_t key) const {
    return cells_.empty() ? 0 : static_cast<std::size_t>(hash(key) >> shift_);
  }

  /// Calls f(key, value) for every entry, in slab order — an order that
  /// depends on the map's history. Emission code must sort.
  template <typename F>
  void for_each_unordered(F&& f) const {
    for (const Entry& e : slab_) {
      if (e.key != kNoKey) f(e.key, e.value);
    }
  }

  /// Deep structural check for the audit layer: the index is a power of
  /// two at most half full; every occupied cell names a live slot, carries
  /// that slot's key hash, and is reachable from its home without crossing
  /// an empty cell; every live slot is found at itself by its key; and the
  /// free list holds each dead slot exactly once. Returns false on any
  /// violation.
  bool validate() const {
    if (!cells_.empty() && (cells_.size() & (cells_.size() - 1)) != 0) {
      return false;
    }
    if (size_ * 2 > cells_.size()) return false;
    std::size_t occupied = 0;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const Cell& c = cells_[i];
      if (c.slot == kNoSlot) continue;
      ++occupied;
      if (!live(c.slot) || c.hash != (hash(slab_[c.slot].key) >> 32)) {
        return false;
      }
      for (std::size_t j = home_of(c); j != i; j = (j + 1) & mask()) {
        if (cells_[j].slot == kNoSlot) return false;
      }
    }
    if (occupied != size_) return false;
    std::size_t live_entries = 0;
    for (std::size_t s = 0; s < slab_.size(); ++s) {
      if (!live(static_cast<Slot>(s))) continue;
      ++live_entries;
      if (find(slab_[s].key) != s) return false;
    }
    if (live_entries != size_ ||
        live_entries + free_.size() != slab_.size()) {
      return false;
    }
    std::vector<bool> listed(slab_.size(), false);
    for (const Slot s : free_) {
      if (s >= slab_.size() || live(s) || listed[s]) return false;
      listed[s] = true;
    }
    return true;
  }

  /// Test-only: the index cell holding `key` (nullptr when absent), so
  /// negative tests can corrupt it and assert validate() reports it.
  Cell* mutable_cell_for_tests(std::uint64_t key) {
    const Slot s = find(key);
    if (s == kNoSlot) return nullptr;
    for (std::size_t i = home_bucket(key);; i = (i + 1) & mask()) {
      if (cells_[i].slot == s) return &cells_[i];
    }
  }

 private:
  struct Entry {
    std::uint64_t key = kNoKey;  // kNoKey = free slot
    T value{};
  };

  // Largest slab: the two top slot values are kNoSlot and kUnlinked.
  static constexpr std::size_t kMaxSlots = 0xfffffffeu;
  static constexpr std::size_t kMinCells = 16;
  // 2^64 / golden ratio. Multiplying by an odd constant is a bijection on
  // u64, and its top bits mix every key bit, so runs of consecutive keys
  // spread across the table.
  static constexpr std::uint64_t kHashMultiplier = 0x9e3779b97f4a7c15ULL;

  static std::uint64_t hash(std::uint64_t key) {
    return key * kHashMultiplier;
  }
  std::size_t mask() const { return cells_.size() - 1; }
  // A cell's home from its stored hash bits (shift_ >= 32: at most 2^32
  // cells).
  std::size_t home_of(const Cell& c) const {
    return static_cast<std::size_t>(c.hash >> (shift_ - 32));
  }

  Slot allocate(std::uint64_t key) {
    Slot s;
    if (!free_.empty()) {
      s = free_.back();
      free_.pop_back();
    } else {
      REQB_CHECK_MSG(slab_.size() < kMaxSlots, "slot map is full");
      s = static_cast<Slot>(slab_.size());
      slab_.emplace_back();
      // Grow the free list with the slab, so release() never allocates.
      free_.reserve(slab_.capacity());
    }
    slab_[s].key = key;
    return s;
  }

  void release(Slot s) {
    slab_[s].key = kNoKey;
    slab_[s].value = T{};
    free_.push_back(s);
  }

  // Backward-shift deletion: empties cell `hole`, then pulls each later
  // cell of the probe run back into the hole when its home is not inside
  // the cyclic range (hole, j], so no lookup ever stops early.
  void remove_cell(std::size_t hole) {
    for (std::size_t j = (hole + 1) & mask(); cells_[j].slot != kNoSlot;
         j = (j + 1) & mask()) {
      const std::size_t from_home = (j - home_of(cells_[j])) & mask();
      if (from_home >= ((j - hole) & mask())) {
        cells_[hole] = cells_[j];
        hole = j;
      }
    }
    cells_[hole].slot = kNoSlot;
  }

  void grow() { rehash(cells_.empty() ? kMinCells : cells_.size() * 2); }

  void rehash(std::size_t cells) {
    REQB_CHECK_MSG(cells <= (std::size_t{1} << 32),
                   "slot map index beyond 2^32 cells");
    std::vector<Cell> old(cells);
    old.swap(cells_);
    shift_ = 64;
    for (std::size_t c = cells; c > 1; c >>= 1) --shift_;
    for (const Cell& c : old) {
      if (c.slot == kNoSlot) continue;
      std::size_t i = home_of(c);
      while (cells_[i].slot != kNoSlot) i = (i + 1) & mask();
      cells_[i] = c;
    }
  }

  std::vector<Entry> slab_;
  std::vector<Slot> free_;
  std::vector<Cell> cells_;
  std::size_t size_ = 0;
  unsigned shift_ = 64;  // 64 - log2(cells_.size()) once the index exists
};

/// One SlotList's links, a member of the slab value.
struct SlotLink {
  static constexpr Slot kUnlinked = 0xfffffffeu;

  Slot prev = kUnlinked;
  Slot next = kUnlinked;

  bool linked() const { return prev != kUnlinked; }
};

/// Doubly linked list of SlotMap<T> entries, threaded through the SlotLink
/// member `Link`. Head is the most-recently-used end, tail the least. The
/// list refers to its map by address, so the map must outlive it and stay
/// where it is.
template <typename T, SlotLink T::* Link>
class SlotList {
 public:
  explicit SlotList(SlotMap<T>& map) : map_(&map) {}
  SlotList(const SlotList&) = delete;
  SlotList& operator=(const SlotList&) = delete;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  /// The least recently used end; kNoSlot when the list is empty.
  Slot tail() const { return tail_; }
  /// The neighbour toward the head; kNoSlot past it.
  Slot prev(Slot s) const { return link(s).prev; }

  void push_front(Slot s) {
    SlotLink& l = link(s);
    REQB_DCHECK(!l.linked());
    l.prev = kNoSlot;
    l.next = head_;
    if (head_ != kNoSlot) {
      link(head_).prev = s;
    } else {
      tail_ = s;
    }
    head_ = s;
    ++size_;
  }

  void push_back(Slot s) {
    SlotLink& l = link(s);
    REQB_DCHECK(!l.linked());
    l.next = kNoSlot;
    l.prev = tail_;
    if (tail_ != kNoSlot) {
      link(tail_).next = s;
    } else {
      head_ = s;
    }
    tail_ = s;
    ++size_;
  }

  /// Unlinks an entry that is on this list.
  void erase(Slot s) {
    SlotLink& l = link(s);
    REQB_DCHECK(l.linked());
    if (l.prev != kNoSlot) {
      link(l.prev).next = l.next;
    } else {
      head_ = l.next;
    }
    if (l.next != kNoSlot) {
      link(l.next).prev = l.prev;
    } else {
      tail_ = l.prev;
    }
    l.prev = SlotLink::kUnlinked;
    l.next = SlotLink::kUnlinked;
    --size_;
  }

  void move_to_front(Slot s) {
    if (s == head_) return;
    erase(s);
    push_front(s);
  }

  void move_to_back(Slot s) {
    if (s == tail_) return;
    erase(s);
    push_back(s);
  }

  /// Unlinks and returns the tail, or kNoSlot when empty.
  Slot pop_back() {
    const Slot s = tail_;
    if (s != kNoSlot) erase(s);
    return s;
  }

  /// Calls fn(slot) from head to tail. fn must not unlink the slot.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (Slot s = head_; s != kNoSlot; s = link(s).next) fn(s);
  }

  /// Deep structural check for the audit layer: walks head to tail
  /// verifying that each entry is live in the map and links back to its
  /// predecessor, that the walk ends at the tail, and that it visits
  /// exactly size() entries. Bounded by size() + 1 hops, so a corrupted
  /// cycle cannot hang the audit. Returns false on any violation.
  bool validate() const {
    std::size_t walked = 0;
    Slot before = kNoSlot;
    for (Slot s = head_; s != kNoSlot; s = link(s).next) {
      if (!map_->live(s) || link(s).prev != before || ++walked > size_) {
        return false;
      }
      before = s;
    }
    return before == tail_ && walked == size_;
  }

  /// Test-only: the links of `s`, so negative tests can break them.
  SlotLink& mutable_link_for_tests(Slot s) { return link(s); }

 private:
  SlotLink& link(Slot s) const { return (*map_)[s].*Link; }

  SlotMap<T>* map_;
  Slot head_ = kNoSlot;
  Slot tail_ = kNoSlot;
  std::size_t size_ = 0;
};

}  // namespace reqblock
