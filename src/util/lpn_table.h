// Paged table indexed by logical page number.
//
// The FTL's logical-to-physical map and the cache's write oracle are keyed
// by LPN. The LPN space is large but sparsely written: a 32 GiB device
// spans 8.4M LPNs, while a trace writes tens of thousands of them in
// clustered runs. This table is a directory of fixed 1024-entry chunks that
// grows on demand:
//   * a chunk is allocated, filled with the absent sentinel, on the first
//     write into its LPN range, so memory follows what was written rather
//     than the device size;
//   * reading an LPN whose chunk was never written allocates nothing;
//   * for_each visits entries in ascending LPN order, so serializers write
//     table order directly, with no collect-and-sort pass.
//
// A lookup is a shift, a bounds check and two loads. `kAbsent` is the value
// an unwritten entry reads as; it can never be stored, which lets a present
// entry hold any other value (including 0).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/check.h"
#include "util/types.h"

namespace reqblock {

template <typename T, T kAbsent>
class LpnTable {
 public:
  static constexpr std::uint32_t kChunkBits = 10;
  static constexpr std::uint64_t kChunkEntries = 1ULL << kChunkBits;
  /// Largest LPN the table stores: the 32-bit logical page space that
  /// FlashArray records on every physical page.
  static constexpr Lpn kMaxLpn = 0xffffffffULL;
  static constexpr T kAbsentValue = kAbsent;

  /// The entry at `lpn`, or kAbsent. Any LPN may be asked; none allocates.
  T get(Lpn lpn) const {
    const std::uint64_t c = lpn >> kChunkBits;
    if (c >= dir_.size() || dir_[c] == nullptr) return kAbsent;
    return dir_[c][lpn & (kChunkEntries - 1)];
  }
  bool contains(Lpn lpn) const { return get(lpn) != kAbsent; }

  /// Stores `value` (never kAbsent) at `lpn` <= kMaxLpn, allocating the
  /// chunk on its first write.
  void set(Lpn lpn, T value) {
    REQB_CHECK_MSG(lpn <= kMaxLpn,
                   "LPN beyond the 32-bit logical page space");
    REQB_DCHECK(value != kAbsent);
    const std::uint64_t c = lpn >> kChunkBits;
    if (c >= dir_.size()) dir_.resize(c + 1);
    if (dir_[c] == nullptr) {
      dir_[c] = std::make_unique_for_overwrite<T[]>(kChunkEntries);
      std::fill_n(dir_[c].get(), kChunkEntries, kAbsent);
      ++chunks_;
    }
    T& slot = dir_[c][lpn & (kChunkEntries - 1)];
    if (slot == kAbsent) ++size_;
    slot = value;
  }

  /// Removes the entry at `lpn`; returns whether one was present. Never
  /// allocates (an emptied chunk stays allocated).
  bool erase(Lpn lpn) {
    const std::uint64_t c = lpn >> kChunkBits;
    if (c >= dir_.size() || dir_[c] == nullptr) return false;
    T& slot = dir_[c][lpn & (kChunkEntries - 1)];
    if (slot == kAbsent) return false;
    slot = kAbsent;
    --size_;
    return true;
  }

  /// Present entries.
  std::uint64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Allocated chunks (each holds kChunkEntries entries).
  std::uint64_t chunks() const { return chunks_; }

  /// Calls f(lpn, value) for every present entry, in ascending LPN order.
  template <typename F>
  void for_each(F&& f) const {
    for (std::uint64_t c = 0; c < dir_.size(); ++c) {
      const T* chunk = dir_[c].get();
      if (chunk == nullptr) continue;
      const Lpn base = c << kChunkBits;
      for (std::uint64_t i = 0; i < kChunkEntries; ++i) {
        if (chunk[i] != kAbsent) f(base + i, chunk[i]);
      }
    }
  }

 private:
  std::vector<std::unique_ptr<T[]>> dir_;
  std::uint64_t size_ = 0;
  std::uint64_t chunks_ = 0;
};

}  // namespace reqblock
