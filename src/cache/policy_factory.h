// Construction of cache policies by name (CLI / experiment matrix glue).
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cache/bplru.h"
#include "cache/write_buffer.h"
#include "core/req_block_policy.h"

namespace reqblock {

struct PolicyConfig {
  /// One of known_policy_names(): "lru", "fifo", "lfu", "cflru", "fab",
  /// "bplru", "vbbms", "reqblock".
  std::string name = "reqblock";
  std::uint64_t capacity_pages = 4096;
  /// Logical flash block size, used by block-granularity schemes.
  std::uint32_t pages_per_block = 64;

  ReqBlockOptions reqblock;
  BplruOptions bplru;
};

/// Builds a policy; throws std::invalid_argument on an unknown name.
/// Names match in any case, and "req-block" names Req-block.
std::unique_ptr<WriteBufferPolicy> make_policy(const PolicyConfig& cfg);

/// Checks the names a driver's `flag` gave the way make_policy resolves
/// them, so that a bad name fails before any trace is opened or any case
/// runs. Throws std::invalid_argument naming the flag and listing the
/// known policies on an empty list, an empty name or an unknown name.
void check_policy_names(const std::vector<std::string>& names,
                        std::string_view flag);

/// All recognized policy names.
std::vector<std::string> known_policy_names();

}  // namespace reqblock
