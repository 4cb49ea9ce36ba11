#include "core/freq.h"

#include <gtest/gtest.h>

#include <cmath>

namespace reqblock {
namespace {

ReqBlock make_block(std::uint64_t access, std::size_t pages, Tick insert) {
  ReqBlock b;
  b.access_cnt = access;
  b.page_num = static_cast<std::uint32_t>(pages);
  b.insert_tick = insert;
  return b;
}

TEST(FreqTest, Equation1) {
  // Freq = Access_cnt / (Page_num * (T_cur - T_insert)).
  const ReqBlock b = make_block(4, 2, 10);
  EXPECT_DOUBLE_EQ(req_block_freq(b, 20), 4.0 / (2.0 * 10.0));
}

TEST(FreqTest, ZeroAgeIsMaximallyHot) {
  const ReqBlock b = make_block(1, 3, 50);
  EXPECT_TRUE(std::isinf(req_block_freq(b, 50)));
}

TEST(FreqTest, OlderBlocksColder) {
  const ReqBlock b = make_block(2, 2, 0);
  EXPECT_GT(req_block_freq(b, 10), req_block_freq(b, 100));
}

TEST(FreqTest, MorePagesColder) {
  const ReqBlock small = make_block(2, 1, 0);
  const ReqBlock large = make_block(2, 10, 0);
  EXPECT_GT(req_block_freq(small, 10), req_block_freq(large, 10));
}

TEST(FreqTest, MoreAccessesHotter) {
  const ReqBlock cold = make_block(1, 2, 0);
  const ReqBlock hot = make_block(9, 2, 0);
  EXPECT_GT(req_block_freq(hot, 10), req_block_freq(cold, 10));
}

TEST(FreqTest, EmptyBlockDoesNotDivideByZero) {
  const ReqBlock b = make_block(1, 0, 0);
  EXPECT_TRUE(std::isfinite(req_block_freq(b, 10)));
}

TEST(FreqTest, NoTimeModeIgnoresAge) {
  const ReqBlock b = make_block(4, 2, 0);
  EXPECT_DOUBLE_EQ(req_block_freq(b, 10, FreqMode::kNoTime), 2.0);
  EXPECT_DOUBLE_EQ(req_block_freq(b, 1000, FreqMode::kNoTime), 2.0);
}

TEST(FreqTest, NoSizeModeIgnoresPages) {
  const ReqBlock a = make_block(4, 1, 0);
  const ReqBlock b = make_block(4, 64, 0);
  EXPECT_DOUBLE_EQ(req_block_freq(a, 10, FreqMode::kNoSize),
                   req_block_freq(b, 10, FreqMode::kNoSize));
}

TEST(FreqTest, CountOnlyMode) {
  const ReqBlock b = make_block(7, 3, 0);
  EXPECT_DOUBLE_EQ(req_block_freq(b, 10, FreqMode::kCountOnly), 7.0);
}

TEST(FreqTest, ClockBeforeInsertTreatedAsZeroAge) {
  const ReqBlock b = make_block(1, 1, 100);
  EXPECT_TRUE(std::isinf(req_block_freq(b, 50)));
}

}  // namespace
}  // namespace reqblock
