#include "util/lpn_table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "util/rng.h"

namespace reqblock {
namespace {

using PpnTable = LpnTable<std::uint32_t, 0xffffffffu>;
using VersionTable = LpnTable<std::uint64_t, ~std::uint64_t{0}>;

constexpr Lpn kTop = 0xffffffffULL;  // the largest storable LPN

/// LPNs clustered around chunk boundaries (low chunks and the very top of
/// the 32-bit space), so sets and erases cross from one chunk to the next.
std::vector<Lpn> boundary_pool() {
  std::vector<Lpn> pool;
  const Lpn chunk = PpnTable::kChunkEntries;
  const Lpn last_chunk = kTop + 1 - chunk;
  for (const Lpn base : {Lpn{0}, chunk, 2 * chunk, 5 * chunk, last_chunk}) {
    for (Lpn d = 0; d < 4; ++d) {
      pool.push_back(base + d);
      if (base >= d + 1) pool.push_back(base - d - 1);
    }
  }
  pool.push_back(kTop);
  pool.push_back(kTop - 1);
  pool.push_back(3 * chunk + chunk / 2);
  return pool;
}

TEST(LpnTableTest, MatchesStdMapOverRandomOperations) {
  PpnTable table;
  std::map<Lpn, std::uint32_t> model;
  const std::vector<Lpn> pool = boundary_pool();
  Rng rng(0x1b7a);
  bool set_bottom = false;
  bool set_top = false;
  for (int op = 0; op < 120000; ++op) {
    // Half the keys come from the boundary pool, half from the first
    // eight chunks at random.
    const Lpn lpn = rng.next_bool(0.5)
                        ? pool[rng.next_below(pool.size())]
                        : rng.next_below(8 * PpnTable::kChunkEntries);
    const std::uint64_t kind = rng.next_below(10);
    if (kind < 5) {
      const auto value =
          static_cast<std::uint32_t>(rng.next_below(0xffffffffULL));
      table.set(lpn, value);
      model[lpn] = value;
      set_bottom = set_bottom || lpn == 0;
      set_top = set_top || lpn == kTop;
    } else if (kind < 7) {
      EXPECT_EQ(table.erase(lpn), model.erase(lpn) == 1) << "lpn " << lpn;
    } else {
      const auto it = model.find(lpn);
      EXPECT_EQ(table.get(lpn),
                it == model.end() ? PpnTable::kAbsentValue : it->second)
          << "lpn " << lpn;
      EXPECT_EQ(table.contains(lpn), it != model.end());
    }
    ASSERT_EQ(table.size(), model.size()) << "after op " << op;
  }
  EXPECT_TRUE(set_bottom && set_top) << "both ends of the LPN space";
  ASSERT_FALSE(model.empty());
  std::vector<std::pair<Lpn, std::uint32_t>> visited;
  table.for_each(
      [&](Lpn lpn, std::uint32_t v) { visited.emplace_back(lpn, v); });
  const std::vector<std::pair<Lpn, std::uint32_t>> expected(model.begin(),
                                                            model.end());
  EXPECT_EQ(visited, expected);
}

TEST(LpnTableTest, PresentZeroIsNotAbsent) {
  VersionTable table;
  table.set(5, 0);  // e.g. an oracle entry rolled back to version 0
  EXPECT_TRUE(table.contains(5));
  EXPECT_EQ(table.get(5), 0u);
  EXPECT_FALSE(table.contains(6));
  EXPECT_EQ(table.get(6), VersionTable::kAbsentValue);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_TRUE(table.erase(5));
  EXPECT_FALSE(table.contains(5));
  EXPECT_FALSE(table.erase(5));
  EXPECT_EQ(table.size(), 0u);
}

TEST(LpnTableTest, ReadOnlySweepAllocatesNothing) {
  PpnTable table;
  for (Lpn lpn = 0; lpn < (Lpn{1} << 24); lpn += 997) {
    EXPECT_FALSE(table.contains(lpn));
    EXPECT_FALSE(table.erase(lpn));
  }
  // LPNs past the storable range read as absent too.
  EXPECT_EQ(table.get(Lpn{1} << 40), PpnTable::kAbsentValue);
  EXPECT_EQ(table.get(~Lpn{0}), PpnTable::kAbsentValue);
  EXPECT_EQ(table.chunks(), 0u);
  EXPECT_TRUE(table.empty());

  table.set(3 * PpnTable::kChunkEntries + 1, 7);
  EXPECT_EQ(table.chunks(), 1u);
  table.set(3 * PpnTable::kChunkEntries + 2, 8);  // same chunk
  EXPECT_EQ(table.chunks(), 1u);
  table.erase(3 * PpnTable::kChunkEntries + 1);
  table.erase(3 * PpnTable::kChunkEntries + 2);
  EXPECT_EQ(table.chunks(), 1u) << "an emptied chunk stays allocated";
}

TEST(LpnTableTest, SetRefusesLpnsBeyondThe32BitSpace) {
  PpnTable table;
  EXPECT_THROW(table.set(kTop + 1, 1), std::logic_error);
  EXPECT_EQ(table.chunks(), 0u);
}

TEST(LpnTableTest, ForEachVisitsAscendingLpnOrder) {
  VersionTable table;
  // Insert in descending order across several chunks, with gaps.
  std::vector<Lpn> lpns;
  for (Lpn i = 0; i < 1286; ++i) lpns.push_back(9000 - 7 * i);
  for (const Lpn lpn : lpns) table.set(lpn, lpn * 3);
  std::vector<Lpn> visited;
  table.for_each([&](Lpn lpn, std::uint64_t v) {
    EXPECT_EQ(v, lpn * 3);
    visited.push_back(lpn);
  });
  ASSERT_EQ(visited.size(), lpns.size());
  for (std::size_t i = 1; i < visited.size(); ++i) {
    EXPECT_LT(visited[i - 1], visited[i]);
  }
  EXPECT_EQ(visited.front(), lpns.back());
  EXPECT_EQ(visited.back(), lpns.front());
}

}  // namespace
}  // namespace reqblock
