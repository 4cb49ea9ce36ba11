#include <gtest/gtest.h>

#include "cache/lfu.h"
#include "cache/lru.h"
#include "test_util.h"

namespace reqblock {
namespace {

using testing::write_req;

TEST(FifoPolicyTest, EvictsInInsertionOrder) {
  FifoPolicy fifo;
  for (Lpn l = 0; l < 4; ++l) fifo.on_insert(l, write_req(l, l, 1), true);
  for (Lpn expect = 0; expect < 4; ++expect) {
    EXPECT_EQ(fifo.select_victim().pages[0], expect);
  }
}

TEST(FifoPolicyTest, HitsDoNotPromote) {
  FifoPolicy fifo;
  fifo.on_insert(1, write_req(0, 1, 1), true);
  fifo.on_insert(2, write_req(1, 2, 1), true);
  fifo.on_hit(1, write_req(2, 1, 1), true);
  EXPECT_EQ(fifo.select_victim().pages[0], 1u);
}

TEST(FifoPolicyTest, EmptyVictim) {
  FifoPolicy fifo;
  EXPECT_TRUE(fifo.select_victim().empty());
}

TEST(FifoPolicyTest, PopulationTracked) {
  FifoPolicy fifo;
  fifo.on_insert(1, write_req(0, 1, 1), true);
  EXPECT_EQ(fifo.pages(), 1u);
  fifo.select_victim();
  EXPECT_EQ(fifo.pages(), 0u);
}

TEST(LfuPolicyTest, EvictsLeastFrequent) {
  LfuPolicy lfu;
  lfu.on_insert(1, write_req(0, 1, 1), true);
  lfu.on_insert(2, write_req(1, 2, 1), true);
  lfu.on_hit(1, write_req(2, 1, 1), true);  // lpn 1 now freq 2
  EXPECT_EQ(lfu.select_victim().pages[0], 2u);
}

TEST(LfuPolicyTest, TieBrokenByLeastRecent) {
  LfuPolicy lfu;
  lfu.on_insert(1, write_req(0, 1, 1), true);
  lfu.on_insert(2, write_req(1, 2, 1), true);
  lfu.on_insert(3, write_req(2, 3, 1), true);
  // All freq 1; lpn 1 is oldest.
  EXPECT_EQ(lfu.select_victim().pages[0], 1u);
  EXPECT_EQ(lfu.select_victim().pages[0], 2u);
}

TEST(LfuPolicyTest, FrequencyCounting) {
  LfuPolicy lfu;
  lfu.on_insert(7, write_req(0, 7, 1), true);
  EXPECT_EQ(lfu.frequency_of(7), 1u);
  lfu.on_hit(7, write_req(1, 7, 1), true);
  lfu.on_hit(7, write_req(2, 7, 1), false);
  EXPECT_EQ(lfu.frequency_of(7), 3u);
  EXPECT_EQ(lfu.frequency_of(999), 0u);
}

TEST(LfuPolicyTest, HighFrequencySurvivesChurn) {
  LfuPolicy lfu;
  lfu.on_insert(100, write_req(0, 100, 1), true);
  for (int i = 0; i < 5; ++i) lfu.on_hit(100, write_req(1, 100, 1), true);
  for (Lpn l = 0; l < 10; ++l) {
    lfu.on_insert(l, write_req(l + 2, l, 1), true);
    const auto v = lfu.select_victim();
    ASSERT_NE(v.pages[0], 100u);
  }
  EXPECT_EQ(lfu.frequency_of(100), 6u);
}

TEST(LfuPolicyTest, EmptyVictim) {
  LfuPolicy lfu;
  EXPECT_TRUE(lfu.select_victim().empty());
}

TEST(LfuPolicyTest, MetadataAccountsFrequencyCounter) {
  LfuPolicy lfu;
  lfu.on_insert(1, write_req(0, 1, 1), true);
  EXPECT_EQ(lfu.metadata_bytes(), 16u);
}

}  // namespace
}  // namespace reqblock
