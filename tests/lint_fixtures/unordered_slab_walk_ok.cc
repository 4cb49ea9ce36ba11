// Twin: the slab walk only collects keys; they are sorted before anything
// is written, so equal state serializes to equal bytes whatever the slab
// order.
#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/slot_map.h"

std::string serialize_counts(const reqblock::SlotMap<std::uint64_t>& counts) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> rows;
  rows.reserve(counts.size());
  counts.for_each_unordered([&](std::uint64_t lpn, std::uint64_t n) {
    rows.emplace_back(lpn, n);
  });
  std::sort(rows.begin(), rows.end());
  std::ostringstream os;
  for (const auto& [lpn, n] : rows) os << lpn << ',' << n << '\n';
  return os.str();
}
