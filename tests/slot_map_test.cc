// SlotMap and SlotList: a differential run against std::unordered_map over
// keys that collide on purpose (insert, find, and erase by key, by
// extract and by slot), slot stability and last-in first-out slot
// reuse, the no-allocation guarantees of a fresh map and of erasing,
// random list surgery against a std::deque model, each SlotList operation
// on a short list, validate() catching deliberate corruption, and
// SlotList's misuse guards.
//
// This file replaces the global operator new with a counting one
// (alloc_counter.h), so it builds into its own test binary.
#include "util/slot_map.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "alloc_counter.h"
#include "util/check.h"
#include "util/rng.h"

namespace reqblock {
namespace {

/// Keys whose probe starts in the last 1/32 of the index at any size of
/// 32 cells or more (in the last cell at 16): the multiplicative hash
/// homes a key by the top bits of key * multiplier, so a key homed in the
/// last two of 64 cells stays in the last 1/32 after every doubling.
/// Enough of them form a probe run that wraps past the end of the table.
std::vector<std::uint64_t> clustered_keys(std::size_t count) {
  SlotMap<int> probe;
  probe.reserve(32);  // a 64-cell index
  EXPECT_EQ(probe.bucket_count(), 64u);
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; keys.size() < count; ++k) {
    if (probe.home_bucket(k) >= 62) keys.push_back(k);
  }
  return keys;
}

TEST(SlotMapTest, MatchesUnorderedMapOverWrappingClusters) {
  const std::vector<std::uint64_t> clustered = clustered_keys(3000);
  const auto is_clustered = [&](std::uint64_t k) {
    return std::binary_search(clustered.begin(), clustered.end(), k);
  };
  SlotMap<std::uint64_t> map;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  Rng rng(0x51075);
  std::size_t live_clustered = 0;
  std::uint64_t wrapped_erases = 0;
  std::uint64_t wrapped_growths = 0;

  // The wrap test: clustered keys all home in the last 1/32 of the index
  // (its last cell at 16 cells), so more of them than that span forms a
  // run past the last cell.
  const auto cluster_wraps = [&] {
    return live_clustered >
           std::max<std::size_t>(map.bucket_count() / 32, 1);
  };

  constexpr std::uint64_t kOps = 150'000;
  for (std::uint64_t op = 0; op < kOps; ++op) {
    // Grow toward ~5k entries, then drain toward empty, and again, so the
    // index doubles and backward-shift deletion both run on long runs.
    const bool growing = (op / 30'000) % 2 == 0;
    const std::uint64_t key = rng.next_below(10) < 7
                                  ? clustered[rng.next_below(clustered.size())]
                                  : rng.next_u64() % 4096 * 1'000'003ULL;
    const std::uint64_t dice = rng.next_below(10);
    if (dice < (growing ? 6u : 3u)) {
      const std::size_t buckets_before = map.bucket_count();
      const bool wrapped_before = cluster_wraps();
      const auto [slot, inserted] = map.try_emplace(key);
      const auto [it, ref_inserted] = ref.try_emplace(key, op);
      ASSERT_EQ(inserted, ref_inserted) << "op " << op;
      if (inserted) {
        map[slot] = op;
        if (is_clustered(key)) ++live_clustered;
        if (map.bucket_count() != buckets_before && wrapped_before) {
          ++wrapped_growths;
        }
      }
      ASSERT_EQ(map[slot], it->second) << "op " << op;
    } else if (dice < 9) {
      // Three ways out: erase by key, extract (one walk that hands the
      // value back), and erase_slot (the cell found by slot id).
      const bool wrapped_before = cluster_wraps();
      const auto it = ref.find(key);
      const bool present = it != ref.end();
      bool erased = false;
      switch (op % 3) {
        case 0:
          erased = map.erase(key);
          break;
        case 1: {
          const std::optional<std::uint64_t> value = map.extract(key);
          erased = value.has_value();
          if (erased && present) {
            ASSERT_EQ(*value, it->second) << "op " << op;
          }
          break;
        }
        default: {
          const Slot slot = map.find(key);
          if (slot != kNoSlot) {
            map.erase_slot(slot);
            erased = true;
          }
          break;
        }
      }
      ASSERT_EQ(erased, present) << "op " << op;
      if (present) ref.erase(it);
      if (erased && is_clustered(key)) {
        --live_clustered;
        if (wrapped_before) ++wrapped_erases;
      }
    } else {
      const Slot slot = map.find(key);
      const auto it = ref.find(key);
      ASSERT_EQ(slot != kNoSlot, it != ref.end()) << "op " << op;
      if (slot != kNoSlot) {
        ASSERT_EQ(map[slot], it->second);
      }
    }
    ASSERT_EQ(map.size(), ref.size()) << "op " << op;
    if (op % 997 == 0) {
      ASSERT_TRUE(map.validate()) << "op " << op;
    }
  }
  ASSERT_TRUE(map.validate());

  std::size_t visited = 0;
  map.for_each_unordered([&](std::uint64_t key, std::uint64_t value) {
    ++visited;
    const auto it = ref.find(key);
    ASSERT_NE(it, ref.end()) << key;
    EXPECT_EQ(value, it->second);
  });
  EXPECT_EQ(visited, ref.size());
  // The stream did what it was built for.
  EXPECT_GT(wrapped_erases, 10'000u);
  EXPECT_GE(wrapped_growths, 3u);
  EXPECT_GE(map.bucket_count(), 8192u);
}

TEST(SlotMapTest, ValuesStayAtTheirSlotsAcrossGrowth) {
  SlotMap<std::uint64_t> map;
  std::vector<Slot> slots;
  for (std::uint64_t k = 0; k < 10; ++k) {
    const auto [slot, inserted] = map.try_emplace(k * 7919);
    ASSERT_TRUE(inserted);
    map[slot] = k + 100;
    slots.push_back(slot);
  }
  const std::size_t buckets = map.bucket_count();
  for (std::uint64_t k = 10; k < 5000; ++k) {
    map[map.try_emplace(k * 7919).first] = k + 100;
  }
  ASSERT_GE(map.bucket_count(), buckets * 256);
  for (std::uint64_t k = 0; k < 10; ++k) {
    EXPECT_EQ(map.find(k * 7919), slots[k]) << k;
    EXPECT_EQ(map[slots[k]], k + 100) << k;
  }
  EXPECT_TRUE(map.validate());
}

TEST(SlotMapTest, FreedSlotsAreReusedLastInFirstOut) {
  SlotMap<int> map;
  for (std::uint64_t k = 1; k <= 8; ++k) map.try_emplace(k);
  const Slot a = map.find(2);
  const Slot b = map.find(5);
  const Slot c = map.find(7);
  map.erase(2);
  map.erase_slot(b);
  map.erase(7);
  EXPECT_EQ(map.try_emplace(100).first, c);
  EXPECT_EQ(map.try_emplace(101).first, b);
  EXPECT_EQ(map.try_emplace(102).first, a);
  // With the free list empty, a new entry extends the slab.
  EXPECT_EQ(map.try_emplace(103).first, 8u);
  EXPECT_EQ(map.slab_size(), 9u);
  // A reused slot starts from a value-initialized entry.
  EXPECT_EQ(map[a], 0);
  EXPECT_TRUE(map.validate());
}

TEST(SlotMapTest, FreshMapAllocatesNothing) {
  struct Node {
    int value = 0;
    SlotLink link;
  };
  // Results are collected first and checked after the count is taken, so
  // nothing but the code under test runs while it is measured.
  bool ok = true;
  const std::uint64_t before = testing::allocations();
  {
    SlotMap<Node> map;
    SlotList<Node, &Node::link> list(map);
    ok = ok && map.find(42) == kNoSlot;
    ok = ok && !map.contains(0);
    ok = ok && !map.erase(42);
    ok = ok && map.bucket_count() == 0 && map.slab_size() == 0;
    ok = ok && map.validate() && list.validate();
    ok = ok && list.pop_back() == kNoSlot;
  }
  const std::uint64_t allocations = testing::allocations() - before;
  EXPECT_TRUE(ok);
  EXPECT_EQ(allocations, 0u);

  // The counter does see the allocations of a first insert.
  const std::uint64_t before_insert = testing::allocations();
  SlotMap<int> map;
  map.try_emplace(1);
  EXPECT_GT(testing::allocations() - before_insert, 0u);
}

// The free list grows with the slab, so erasing allocates nothing, even
// when it frees more slots than the map has ever held free at once.
TEST(SlotMapTest, EraseNeverAllocates) {
  SlotMap<std::uint64_t> map;
  for (std::uint64_t k = 0; k < 1000; ++k) map.try_emplace(k);
  bool ok = true;
  const std::uint64_t before = testing::allocations();
  for (std::uint64_t k = 0; k < 1000; k += 3) ok = ok && map.erase(k);
  for (std::uint64_t k = 1; k < 1000; k += 3) {
    ok = ok && map.extract(k).has_value();
  }
  for (std::uint64_t k = 2; k < 1000; k += 3) {
    const Slot s = map.find(k);
    ok = ok && s != kNoSlot;
    map.erase_slot(s);
  }
  const std::uint64_t allocations = testing::allocations() - before;
  EXPECT_TRUE(ok);
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(allocations, 0u);
}

struct ListNode {
  std::uint64_t id = 0;
  SlotLink link;
};
using NodeList = SlotList<ListNode, &ListNode::link>;

std::vector<std::uint64_t> list_ids(const SlotMap<ListNode>& map,
                                    const NodeList& list) {
  std::vector<std::uint64_t> ids;
  list.for_each([&](Slot s) { ids.push_back(map[s].id); });
  return ids;
}

TEST(SlotListTest, RandomSurgeryKeepsLinkSymmetryAndSize) {
  SlotMap<ListNode> map;
  NodeList list(map);
  std::deque<std::uint64_t> model;  // head first
  Rng rng(0x11575);
  for (std::uint64_t op = 0; op < 60'000; ++op) {
    const std::uint64_t id = rng.next_below(400);
    const Slot slot = map.find(id);
    const auto pos = std::find(model.begin(), model.end(), id);
    switch (rng.next_below(6)) {
      case 0:
      case 1:  // insert at either end
        if (slot == kNoSlot) {
          const Slot s = map.try_emplace(id).first;
          map[s].id = id;
          if (op % 2 == 0) {
            list.push_front(s);
            model.push_front(id);
          } else {
            list.push_back(s);
            model.push_back(id);
          }
        }
        break;
      case 2:  // erase from the list and the map
        if (slot != kNoSlot) {
          list.erase(slot);
          map.erase_slot(slot);
          model.erase(pos);
        }
        break;
      case 3:
        if (slot != kNoSlot) {
          list.move_to_front(slot);
          model.erase(pos);
          model.push_front(id);
        }
        break;
      case 4:
        if (slot != kNoSlot) {
          list.move_to_back(slot);
          model.erase(pos);
          model.push_back(id);
        }
        break;
      case 5: {
        const Slot tail = list.pop_back();
        ASSERT_EQ(tail == kNoSlot, model.empty());
        if (tail != kNoSlot) {
          ASSERT_EQ(map[tail].id, model.back());
          EXPECT_FALSE(map[tail].link.linked());
          map.erase_slot(tail);
          model.pop_back();
        }
        break;
      }
    }
    ASSERT_EQ(list.size(), model.size()) << "op " << op;
    ASSERT_EQ(map.size(), model.size()) << "op " << op;
    if (op % 101 == 0) {
      ASSERT_TRUE(list.validate()) << "op " << op;
      ASSERT_EQ(list_ids(map, list),
                std::vector<std::uint64_t>(model.begin(), model.end()))
          << "op " << op;
      if (!model.empty()) {
        EXPECT_EQ(map[list.tail()].id, model.back());
        EXPECT_EQ(list.prev(map.find(model.front())), kNoSlot);
      }
    }
  }
  EXPECT_TRUE(list.validate());
  EXPECT_TRUE(map.validate());
}

TEST(SlotListTest, TwoLinksKeepIndependentMembership) {
  // The Link parameter picks the member a list threads through, so one
  // entry can sit on two lists, and leaving one keeps the other intact.
  struct TwoLinkNode {
    SlotLink first;
    SlotLink second;
  };
  SlotMap<TwoLinkNode> map;
  SlotList<TwoLinkNode, &TwoLinkNode::first> first(map);
  SlotList<TwoLinkNode, &TwoLinkNode::second> second(map);
  const Slot s = map.try_emplace(1).first;
  first.push_front(s);
  second.push_front(s);
  first.erase(s);
  EXPECT_TRUE(first.empty());
  EXPECT_EQ(second.tail(), s);
  EXPECT_FALSE(map[s].first.linked());
  EXPECT_TRUE(map[s].second.linked());
  EXPECT_TRUE(first.validate() && second.validate());
}

// --- Each list operation on a short list -----------------------------------
// IntrusiveListTest and IntrusiveListMisuse keep the names their cases had
// when they tested IntrusiveList, the pointer-linked list that SlotList
// replaced under Req-block's IRL/SRL/DRL.

/// Adds entry `id` to the map, unlinked, and returns its slot.
Slot add_node(SlotMap<ListNode>& map, std::uint64_t id) {
  const Slot s = map.try_emplace(id).first;
  map[s].id = id;
  return s;
}

using Ids = std::vector<std::uint64_t>;

TEST(IntrusiveListTest, StartsEmpty) {
  SlotMap<ListNode> map;
  NodeList list(map);
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.size(), 0u);
  EXPECT_EQ(list.tail(), kNoSlot);
  EXPECT_EQ(list.pop_back(), kNoSlot);
  EXPECT_TRUE(list_ids(map, list).empty());
  EXPECT_TRUE(list.validate());
}

TEST(IntrusiveListTest, PushFrontOrdersMruFirst) {
  SlotMap<ListNode> map;
  NodeList list(map);
  const Slot a = add_node(map, 1);
  const Slot b = add_node(map, 2);
  const Slot c = add_node(map, 3);
  list.push_front(a);
  list.push_front(b);
  list.push_front(c);
  EXPECT_EQ(list_ids(map, list), (Ids{3, 2, 1}));
  EXPECT_EQ(list.prev(c), kNoSlot);  // the head
  EXPECT_EQ(list.tail(), a);
  EXPECT_EQ(list.size(), 3u);
  EXPECT_TRUE(list.validate());
}

TEST(IntrusiveListTest, PushBackAppends) {
  SlotMap<ListNode> map;
  NodeList list(map);
  const Slot a = add_node(map, 1);
  const Slot b = add_node(map, 2);
  list.push_back(a);
  list.push_back(b);
  EXPECT_EQ(list_ids(map, list), (Ids{1, 2}));
  EXPECT_EQ(list.tail(), b);
  EXPECT_TRUE(list.validate());
}

TEST(IntrusiveListTest, EraseMiddle) {
  SlotMap<ListNode> map;
  NodeList list(map);
  const Slot a = add_node(map, 1);
  const Slot b = add_node(map, 2);
  const Slot c = add_node(map, 3);
  list.push_back(a);
  list.push_back(b);
  list.push_back(c);
  list.erase(b);
  EXPECT_EQ(list_ids(map, list), (Ids{1, 3}));
  EXPECT_FALSE(map[b].link.linked());
  EXPECT_EQ(list.prev(c), a);
  EXPECT_EQ(list.size(), 2u);
  EXPECT_TRUE(list.validate());
}

TEST(IntrusiveListTest, MoveToFront) {
  SlotMap<ListNode> map;
  NodeList list(map);
  const Slot a = add_node(map, 1);
  const Slot b = add_node(map, 2);
  const Slot c = add_node(map, 3);
  list.push_back(a);
  list.push_back(b);
  list.push_back(c);
  list.move_to_front(c);
  EXPECT_EQ(list_ids(map, list), (Ids{3, 1, 2}));
  EXPECT_EQ(list.tail(), b);
  EXPECT_TRUE(list.validate());
}

TEST(IntrusiveListTest, MoveToBack) {
  SlotMap<ListNode> map;
  NodeList list(map);
  const Slot a = add_node(map, 1);
  const Slot b = add_node(map, 2);
  const Slot c = add_node(map, 3);
  list.push_back(a);
  list.push_back(b);
  list.push_back(c);
  list.move_to_back(a);
  EXPECT_EQ(list_ids(map, list), (Ids{2, 3, 1}));
  EXPECT_EQ(list.tail(), a);
  EXPECT_TRUE(list.validate());
}

TEST(IntrusiveListTest, PopBackReturnsLru) {
  SlotMap<ListNode> map;
  NodeList list(map);
  const Slot a = add_node(map, 1);
  const Slot b = add_node(map, 2);
  list.push_front(a);
  list.push_front(b);
  EXPECT_EQ(list.pop_back(), a);
  EXPECT_EQ(list.pop_back(), b);
  EXPECT_TRUE(list.empty());
  EXPECT_FALSE(map[a].link.linked());
  EXPECT_FALSE(map[b].link.linked());
  EXPECT_TRUE(list.validate());
}

TEST(IntrusiveListTest, NextPrevNavigation) {
  // SlotList has no next(); the forward links are read off the entries.
  SlotMap<ListNode> map;
  NodeList list(map);
  const Slot a = add_node(map, 1);
  const Slot b = add_node(map, 2);
  const Slot c = add_node(map, 3);
  list.push_back(a);
  list.push_back(b);
  list.push_back(c);
  EXPECT_EQ(map[a].link.next, b);
  EXPECT_EQ(list.prev(c), b);
  EXPECT_EQ(map[c].link.next, kNoSlot);
  EXPECT_EQ(list.prev(a), kNoSlot);
}

TEST(IntrusiveListTest, ReinsertAfterErase) {
  SlotMap<ListNode> map;
  NodeList list(map);
  const Slot a = add_node(map, 1);
  list.push_front(a);
  list.erase(a);
  list.push_back(a);
  EXPECT_EQ(list.tail(), a);
  EXPECT_EQ(list.size(), 1u);
  EXPECT_TRUE(list.validate());
}

TEST(IntrusiveListTest, LargeChurn) {
  SlotMap<ListNode> map;
  NodeList list(map);
  for (std::uint64_t id = 0; id < 1000; ++id) {
    list.push_front(add_node(map, id));
  }
  // Evict half from the tail.
  for (std::uint64_t id = 0; id < 500; ++id) {
    const Slot t = list.pop_back();
    ASSERT_NE(t, kNoSlot);
    EXPECT_EQ(map[t].id, id);
  }
  EXPECT_EQ(list.size(), 500u);
  EXPECT_EQ(map[list.tail()].id, 500u);
  EXPECT_TRUE(list.validate());
}

// --- validate() against deliberate corruption ------------------------------

/// Fills keys 1..40 and erases 17; returns the slot that erase freed.
Slot fill(SlotMap<int>& map) {
  for (std::uint64_t k = 1; k <= 40; ++k) map[map.try_emplace(k).first] = 1;
  const Slot freed = map.find(17);
  map.erase(17);
  EXPECT_TRUE(map.validate());
  return freed;
}

TEST(SlotMapValidateTest, ReportsACorruptedIndexCell) {
  SlotMap<int> map;
  fill(map);
  SlotMap<int>::Cell* cell = map.mutable_cell_for_tests(5);
  ASSERT_NE(cell, nullptr);
  cell->slot = static_cast<Slot>(map.slab_size() + 3);  // past the slab
  EXPECT_FALSE(map.validate());

  SlotMap<int> other;
  const Slot freed = fill(other);
  other.mutable_cell_for_tests(9)->slot = freed;  // names a free slot
  EXPECT_FALSE(other.validate());
}

TEST(SlotMapValidateTest, ReportsAKeyMappedToTheWrongSlot) {
  SlotMap<int> map;
  fill(map);
  SlotMap<int>::Cell* a = map.mutable_cell_for_tests(3);
  SlotMap<int>::Cell* b = map.mutable_cell_for_tests(4);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  std::swap(a->slot, b->slot);
  EXPECT_FALSE(map.validate());

  // A cell whose hash bits no longer match its slab entry's key.
  SlotMap<int> other;
  fill(other);
  other.mutable_cell_for_tests(6)->hash ^= 1;
  EXPECT_FALSE(other.validate());
}

TEST(SlotListValidateTest, ReportsABrokenLink) {
  const auto build = [](SlotMap<ListNode>& map, NodeList& list) {
    for (std::uint64_t id = 0; id < 6; ++id) {
      const Slot s = map.try_emplace(id).first;
      map[s].id = id;
      list.push_back(s);
    }
    EXPECT_TRUE(list.validate());
  };
  {  // asymmetric: a prev link that skips its neighbour
    SlotMap<ListNode> map;
    NodeList list(map);
    build(map, list);
    list.mutable_link_for_tests(map.find(3)).prev = map.find(1);
    EXPECT_FALSE(list.validate());
  }
  {  // a next link into a cycle: the bounded walk still terminates
    SlotMap<ListNode> map;
    NodeList list(map);
    build(map, list);
    list.mutable_link_for_tests(map.find(4)).next = map.find(2);
    EXPECT_FALSE(list.validate());
  }
  {  // a link to an erased entry
    SlotMap<ListNode> map;
    NodeList list(map);
    build(map, list);
    const Slot gone = map.find(5);
    map.erase_slot(gone);  // erased from the map but still on the list
    EXPECT_FALSE(list.validate());
  }
}

TEST(IntrusiveListMisuse, ValidateDetectsBrokenLinkSymmetry) {
  SlotMap<ListNode> map;
  NodeList list(map);
  const Slot a = add_node(map, 1);
  const Slot b = add_node(map, 2);
  const Slot c = add_node(map, 3);
  list.push_back(a);
  list.push_back(b);
  list.push_back(c);
  ASSERT_TRUE(list.validate());
  // Corrupt one link the way a stray write would.
  SlotLink& link = list.mutable_link_for_tests(b);
  const Slot stolen = link.next;
  link.next = b;
  EXPECT_FALSE(list.validate());
  link.next = stolen;
  EXPECT_TRUE(list.validate());
}

TEST(IntrusiveListMisuse, ValidateDetectsNulledHook) {
  // A next link cut short: the walk ends before the tail.
  SlotMap<ListNode> map;
  NodeList list(map);
  const Slot a = add_node(map, 1);
  const Slot b = add_node(map, 2);
  list.push_back(a);
  list.push_back(b);
  SlotLink& link = list.mutable_link_for_tests(a);
  const Slot stolen = link.next;
  link.next = kNoSlot;
  EXPECT_FALSE(list.validate());
  link.next = stolen;
  EXPECT_TRUE(list.validate());
}

// --- SlotList misuse -------------------------------------------------------

static_assert(kDchecksEnabled,
              "the misuse guards below are REQB_DCHECKs and must be live");

TEST(SlotListMisuse, DoubleEraseThrows) {
  SlotMap<ListNode> map;
  NodeList list(map);
  const Slot n = add_node(map, 1);
  list.push_front(n);
  list.erase(n);
  EXPECT_THROW(list.erase(n), std::logic_error);
}

TEST(SlotListMisuse, DoubleLinkThrows) {
  SlotMap<ListNode> map;
  NodeList list(map);
  const Slot n = add_node(map, 1);
  list.push_front(n);
  EXPECT_THROW(list.push_front(n), std::logic_error);
  EXPECT_THROW(list.push_back(n), std::logic_error);
}

TEST(SlotListMisuse, CrossListRelinkThrows) {
  // Lists over one map, like Req-block's IRL/SRL/DRL over its block slab:
  // linking an entry that another list holds would splice the chains.
  SlotMap<ListNode> map;
  NodeList a(map);
  NodeList b(map);
  const Slot n = add_node(map, 1);
  a.push_front(n);
  EXPECT_THROW(b.push_front(n), std::logic_error);
  EXPECT_THROW(b.push_back(n), std::logic_error);
  EXPECT_TRUE(a.validate());
  EXPECT_TRUE(b.validate());
}

TEST(SlotListMisuse, ValidateDetectsEraseThroughWrongList) {
  // Erasing through the wrong list unlinks the entry from its real
  // neighbours but moves the other list's ends and size, so both lists
  // fail validate().
  SlotMap<ListNode> map;
  NodeList a(map);
  NodeList b(map);
  const Slot n1 = add_node(map, 1);
  const Slot n2 = add_node(map, 2);
  const Slot n3 = add_node(map, 3);
  a.push_back(n1);
  a.push_back(n2);
  b.push_back(n3);
  ASSERT_TRUE(a.validate());
  ASSERT_TRUE(b.validate());
  b.erase(n2);  // n2 lives on `a`
  EXPECT_FALSE(a.validate());
  EXPECT_FALSE(b.validate());
}

}  // namespace
}  // namespace reqblock
