// Field tables: one row per field of a metrics record.
//
// A record (FaultMetrics, CacheMetrics, TenantResult, ...) declares one
// constexpr std::tuple of Field rows beside its struct, in snapshot order.
// A row holds the field's name and accessor (REQB_KNOB_FIELD, as in the
// knob tables). Three walks run over any table, templated on the writer
// or reader (SnapshotWriter, SnapshotReader) as fingerprint_knobs is on
// its sink:
//   write_fields  one writer call per row, in table order, picked by the
//                 field's type;
//   read_fields   the matching reader calls, in the same order;
//   fields_bytes  the bytes write_fields writes;
//   add_fields    sums the counter rows of one record into another.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "util/knobs.h"

namespace reqblock {

template <typename Get>
struct Field {
  const char* name;  // the field as written in the struct
  Get get;           // returns the field of a given record
};

template <typename T>
inline constexpr bool kIsU64Array = false;
template <std::size_t N>
inline constexpr bool kIsU64Array<std::array<std::uint64_t, N>> = true;

/// Writes every row's field: `b` for bool, `i64` for SimTime, `u64` for
/// unsigned integers, `str`, `vec_u64` (count first), N x `u64` for a
/// std::array (no count), else the field's own serialize or the free
/// serialize(w, field) of a histogram or running stat.
template <typename Table, typename S, typename Writer>
void write_fields(const Table& table, const S& owner, Writer& w) {
  knob_detail::for_each(table, [&](const auto& row) {
    const auto& v = row.get(owner);
    using T = std::remove_cvref_t<decltype(v)>;
    if constexpr (std::is_same_v<T, bool>) {
      w.b(v);
    } else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
      w.i64(v);
    } else if constexpr (std::is_integral_v<T>) {
      w.u64(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      w.str(v);
    } else if constexpr (std::is_same_v<T, std::vector<std::uint64_t>>) {
      w.vec_u64(v);
    } else if constexpr (kIsU64Array<T>) {
      for (const std::uint64_t x : v) w.u64(x);
    } else if constexpr (requires { v.serialize(w); }) {
      v.serialize(w);
    } else {
      serialize(w, v);
    }
  });
}

/// Reads every row's field, the mirror of write_fields.
template <typename Table, typename S, typename Reader>
void read_fields(const Table& table, S& owner, Reader& r) {
  knob_detail::for_each(table, [&](const auto& row) {
    auto& v = row.get(owner);
    using T = std::remove_cvref_t<decltype(v)>;
    if constexpr (std::is_same_v<T, bool>) {
      v = r.b();
    } else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
      v = r.i64();
    } else if constexpr (std::is_integral_v<T>) {
      v = r.u64();
    } else if constexpr (std::is_same_v<T, std::string>) {
      v = r.str();
    } else if constexpr (std::is_same_v<T, std::vector<std::uint64_t>>) {
      v = r.vec_u64();
    } else if constexpr (kIsU64Array<T>) {
      for (std::uint64_t& x : v) x = r.u64();
    } else if constexpr (requires { v.deserialize(r); }) {
      v.deserialize(r);
    } else {
      deserialize(r, v);
    }
  });
}

/// The bytes write_fields writes for `owner`, row by row as it picks its
/// writer call: a field with its own serialize counts its snapshot_bytes.
template <typename Table, typename S>
std::size_t fields_bytes(const Table& table, const S& owner) {
  std::size_t bytes = 0;
  knob_detail::for_each(table, [&](const auto& row) {
    const auto& v = row.get(owner);
    using T = std::remove_cvref_t<decltype(v)>;
    if constexpr (std::is_same_v<T, bool>) {
      bytes += 1;
    } else if constexpr (std::is_integral_v<T>) {
      bytes += 8;
    } else if constexpr (std::is_same_v<T, std::string>) {
      bytes += 4 + v.size();
    } else if constexpr (std::is_same_v<T, std::vector<std::uint64_t>>) {
      bytes += 8 + 8 * v.size();
    } else if constexpr (kIsU64Array<T>) {
      bytes += 8 * v.size();
    } else if constexpr (requires { v.snapshot_bytes(); }) {
      bytes += v.snapshot_bytes();
    } else {
      bytes += snapshot_bytes(v);
    }
  });
  return bytes;
}

/// Adds every integer row of `from` into `into`; bool rows keep `into`'s
/// value. A table with any other row does not compile.
template <typename Table, typename S>
void add_fields(const Table& table, S& into, const S& from) {
  knob_detail::for_each(table, [&](const auto& row) {
    using T = std::remove_cvref_t<decltype(row.get(into))>;
    static_assert(std::is_integral_v<T>, "add_fields sums counters only");
    if constexpr (!std::is_same_v<T, bool>) row.get(into) += row.get(from);
  });
}

}  // namespace reqblock
