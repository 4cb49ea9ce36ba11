// Eviction priority of a request block (paper Eq. 1) plus the ablation
// variants benchmarked by `reproduce ablation_freq`.
#pragma once

#include <limits>

#include "core/req_block.h"
#include "util/types.h"

namespace reqblock {

/// Which terms of Eq. 1 participate in the score.
enum class FreqMode {
  kFull,      // access_cnt / (pages * (t_now - t_insert))   — the paper
  kNoTime,    // access_cnt / pages                          — drop recency
  kNoSize,    // access_cnt / (t_now - t_insert)             — drop size bias
  kCountOnly  // access_cnt                                   — pure frequency
};

inline const char* to_string(FreqMode m) {
  switch (m) {
    case FreqMode::kFull: return "full";
    case FreqMode::kNoTime: return "no-time";
    case FreqMode::kNoSize: return "no-size";
    case FreqMode::kCountOnly: return "count-only";
  }
  return "?";
}

/// Eq. 1: Freq = Access_cnt / (Page_num * (T_cur - T_insert)).
/// A zero time distance (block inserted this very tick) means the block is
/// maximally hot: +infinity, never the minimum.
inline double req_block_freq(const ReqBlock& blk, Tick now,
                             FreqMode mode = FreqMode::kFull) {
  const double acc = static_cast<double>(blk.access_cnt);
  const double pages =
      static_cast<double>(blk.page_count() == 0 ? 1 : blk.page_count());
  const double age = now > blk.insert_tick
                         ? static_cast<double>(now - blk.insert_tick)
                         : 0.0;
  switch (mode) {
    case FreqMode::kFull:
      if (age == 0.0) return std::numeric_limits<double>::infinity();
      return acc / (pages * age);
    case FreqMode::kNoTime:
      return acc / pages;
    case FreqMode::kNoSize:
      if (age == 0.0) return std::numeric_limits<double>::infinity();
      return acc / age;
    case FreqMode::kCountOnly:
      return acc;
  }
  return acc;
}

}  // namespace reqblock
