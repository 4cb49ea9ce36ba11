// Physical address arithmetic.
//
// Physical pages are numbered flat:
//   ppn = (plane_global * blocks_per_plane + block) * pages_per_block + page
// where plane_global enumerates (channel, chip, plane) row-major. All
// conversions live here so geometry math has exactly one home. The map
// derives its divisors from the configuration once, at construction, so
// per-page decoding costs shifts and masks on power-of-two geometries
// (every shipped one) and plain divisions otherwise; locate() decodes only
// the plane, block and page the flash array indexes by.
#pragma once

#include <bit>
#include <cstdint>

#include "ssd/config.h"
#include "util/check.h"
#include "util/types.h"

namespace reqblock {

struct PhysAddr {
  std::uint32_t channel = 0;
  std::uint32_t chip = 0;    // within the channel
  std::uint32_t plane = 0;   // within the chip
  std::uint32_t block = 0;   // within the plane
  std::uint32_t page = 0;    // within the block

  bool operator==(const PhysAddr&) const = default;
};

/// A physical page as the flash array indexes it: global plane, block
/// within the plane, page within the block.
struct PageLoc {
  std::uint32_t plane = 0;
  std::uint32_t block = 0;
  std::uint32_t page = 0;
};

/// Division by a divisor fixed at construction: a shift and a mask when it
/// is a power of two, a hardware division otherwise. Owners validate the
/// geometry (SsdConfig::validate) before dividing, so d > 0 at every use.
class Divisor {
 public:
  explicit Divisor(std::uint64_t d = 1)
      : d_(d), shift_(std::has_single_bit(d) ? std::countr_zero(d) : -1) {}

  std::uint64_t value() const { return d_; }
  std::uint64_t div(std::uint64_t x) const {
    return shift_ >= 0 ? x >> shift_ : x / d_;
  }
  std::uint64_t mod(std::uint64_t x) const {
    return shift_ >= 0 ? x & (d_ - 1) : x % d_;
  }

 private:
  std::uint64_t d_;
  int shift_;
};

class AddressMap {
 public:
  explicit AddressMap(const SsdConfig& cfg)
      : channels_(cfg.channels),
        chips_per_channel_(cfg.chips_per_channel),
        planes_per_chip_(cfg.planes_per_chip),
        channel_chips_(static_cast<std::uint64_t>(cfg.channels) *
                       cfg.chips_per_channel),
        blocks_per_plane_(cfg.blocks_per_plane()),
        pages_per_block_(cfg.pages_per_block),
        pages_per_plane_(cfg.pages_per_plane()),
        total_pages_(cfg.total_pages()) {}

  std::uint64_t blocks_per_plane() const { return blocks_per_plane_; }

  std::uint32_t plane_global(const PhysAddr& a) const {
    return (a.channel * chips_per_channel() + a.chip) * planes_per_chip() +
           a.plane;
  }

  std::uint32_t chip_global(std::uint32_t plane_global_idx) const {
    return static_cast<std::uint32_t>(planes_per_chip_.div(plane_global_idx));
  }

  std::uint32_t channel_of_plane(std::uint32_t plane_global_idx) const {
    return static_cast<std::uint32_t>(
        chips_per_channel_.div(chip_global(plane_global_idx)));
  }

  /// Plane (global) of the idx-th step of a channel-major round robin:
  /// channel idx mod C, chip (idx / C) mod K, plane (idx / (C K)) mod P,
  /// so consecutive steps land on consecutive channels.
  std::uint32_t round_robin_plane(std::uint64_t idx) const {
    const std::uint64_t channel = channels_.mod(idx);
    const std::uint64_t chip = chips_per_channel_.mod(channels_.div(idx));
    const std::uint64_t plane = planes_per_chip_.mod(channel_chips_.div(idx));
    return static_cast<std::uint32_t>(
        (channel * chips_per_channel() + chip) * planes_per_chip() + plane);
  }

  Ppn to_ppn(const PhysAddr& a) const {
    REQB_DCHECK(a.channel < channels_.value());
    REQB_DCHECK(a.chip < chips_per_channel());
    REQB_DCHECK(a.plane < planes_per_chip());
    return to_ppn(plane_global(a), a.block, a.page);
  }

  Ppn to_ppn(std::uint32_t plane, std::uint32_t block,
             std::uint32_t page) const {
    REQB_DCHECK(block < blocks_per_plane());
    REQB_DCHECK(page < pages_per_block_.value());
    return static_cast<Ppn>(plane) * pages_per_plane_.value() +
           static_cast<Ppn>(block) * pages_per_block_.value() + page;
  }

  PhysAddr to_addr(Ppn ppn) const {
    const PageLoc loc = locate(ppn);
    PhysAddr a;
    a.page = loc.page;
    a.block = loc.block;
    a.plane = static_cast<std::uint32_t>(planes_per_chip_.mod(loc.plane));
    const std::uint32_t chip_flat = chip_global(loc.plane);
    a.chip = static_cast<std::uint32_t>(chips_per_channel_.mod(chip_flat));
    a.channel = static_cast<std::uint32_t>(chips_per_channel_.div(chip_flat));
    return a;
  }

  /// Plane (global), block and page of a ppn.
  PageLoc locate(Ppn ppn) const {
    REQB_DCHECK(ppn < total_pages_);
    const std::uint64_t in_plane = pages_per_plane_.mod(ppn);
    return {static_cast<std::uint32_t>(pages_per_plane_.div(ppn)),
            static_cast<std::uint32_t>(pages_per_block_.div(in_plane)),
            static_cast<std::uint32_t>(pages_per_block_.mod(in_plane))};
  }

  /// Plane index (global) that a ppn belongs to.
  std::uint32_t plane_of(Ppn ppn) const {
    return static_cast<std::uint32_t>(pages_per_plane_.div(ppn));
  }

  /// Page within its block.
  std::uint32_t page_of(Ppn ppn) const {
    return static_cast<std::uint32_t>(pages_per_block_.mod(ppn));
  }

 private:
  std::uint32_t chips_per_channel() const {
    return static_cast<std::uint32_t>(chips_per_channel_.value());
  }
  std::uint32_t planes_per_chip() const {
    return static_cast<std::uint32_t>(planes_per_chip_.value());
  }

  Divisor channels_;
  Divisor chips_per_channel_;
  Divisor planes_per_chip_;
  Divisor channel_chips_;  // channels x chips per channel
  std::uint64_t blocks_per_plane_;
  Divisor pages_per_block_;
  Divisor pages_per_plane_;
  std::uint64_t total_pages_;
};

}  // namespace reqblock
