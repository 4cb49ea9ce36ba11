// Fixture: a serializer walking a slot map in slab order. Slab order
// depends on which slots were freed and when, so a restored table holding
// the same entries writes them in a different order — equal state,
// different bytes. The walk is a member of a type declared elsewhere (a
// header), which the per-file declaration pass cannot see.
#include <cstdint>
#include <sstream>
#include <string>

#include "util/slot_map.h"

std::string serialize_counts(const reqblock::SlotMap<std::uint64_t>& counts) {
  std::ostringstream os;
  counts.for_each_unordered([&](std::uint64_t lpn, std::uint64_t n) {
    os << lpn << ',' << n << '\n';
  });
  return os.str();
}
