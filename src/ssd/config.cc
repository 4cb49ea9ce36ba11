#include "ssd/config.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace reqblock {

std::uint64_t SsdConfig::gc_threshold_blocks() const {
  const double t = gc_free_threshold * static_cast<double>(blocks_per_plane());
  auto blocks = static_cast<std::uint64_t>(std::ceil(t));
  // Always keep at least two free blocks so GC has a destination.
  return blocks < 2 ? 2 : blocks;
}

void SsdConfig::validate() const {
  auto fail = [](const std::string& msg) {
    throw std::invalid_argument("SsdConfig: " + msg);
  };
  if (channels == 0) fail("channels must be > 0");
  if (chips_per_channel == 0) fail("chips_per_channel must be > 0");
  if (planes_per_chip == 0) fail("planes_per_chip must be > 0");
  if (pages_per_block == 0) fail("pages_per_block must be > 0");
  if (page_size == 0) fail("page_size must be > 0");
  if (capacity_bytes % page_size != 0) {
    fail("capacity must be a whole number of pages");
  }
  if (total_pages() % pages_per_block != 0) {
    fail("capacity must be a whole number of blocks");
  }
  if (total_pages() > 0xffffffffULL) {
    // The FTL's L2P table stores 32-bit PPNs and keeps 2^32 - 1 free as
    // its "unmapped" sentinel.
    fail("more than 2^32 - 1 physical pages (the L2P table's PPN limit)");
  }
  if (total_blocks() % total_planes() != 0) {
    fail("blocks must divide evenly across planes");
  }
  if (blocks_per_plane() < 8) fail("too few blocks per plane");
  if (read_latency < 0 || program_latency < 0 || erase_latency < 0 ||
      transfer_per_byte < 0 || command_overhead < 0 ||
      cache_access_latency < 0) {
    fail("latencies must be non-negative");
  }
  if (gc_free_threshold <= 0.0 || gc_free_threshold >= 0.5) {
    fail("gc_free_threshold must be in (0, 0.5)");
  }
  if (gc_threshold_blocks() >= blocks_per_plane()) {
    fail("gc threshold leaves no usable blocks");
  }
}

SsdConfig SsdConfig::paper_default() {
  SsdConfig cfg;  // defaults are Table 1 already
  cfg.validate();
  return cfg;
}

SsdConfig SsdConfig::experiment_default() {
  SsdConfig cfg;
  cfg.capacity_bytes = 32ULL << 30;
  cfg.validate();
  return cfg;
}

}  // namespace reqblock
