// Knob tables: one row per option-block field.
//
// An option block (FaultPlan, OverloadOptions, ...) declares one constexpr
// std::tuple of Knob rows beside its struct. A row holds the CLI flag that
// sets the knob (or nullptr), the field's name and accessor
// (REQB_KNOB_FIELD), the value syntax and the allowed range. Four walks
// run over any table:
//   apply_knobs        strict parse of every flag the table names;
//   check_knobs        the range half of the block's validate();
//   fingerprint_knobs  one Fingerprint call per row, in table order, picked
//                      by the field's type;
//   write_knob_help    the --help flag list.
// Rules that span several fields stay hand-written in the block's
// validate() and apply_cli(). check_knobs and fingerprint_knobs allocate
// nothing unless they throw: SimulationSession::init runs both.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <vector>

#include "util/args.h"
#include "util/strings.h"
#include "util/types.h"

namespace reqblock {

/// How a flag's value is written. A bool field is a switch (get_switch):
/// the flag takes no value and sets the field to true.
struct Syntax {
  const char* placeholder = "";  // the value in --help
  bool fractions = false;        // a number, else a non-negative integer
  SimTime unit = 1;  // ns per unit when a SimTime field is set in ms or us
};
inline constexpr Syntax kInteger{"N"};
inline constexpr Syntax kNumber{"X", true};
inline constexpr Syntax kSwitch{};
inline constexpr Syntax kMsInteger{"MS", false, kMillisecond};
inline constexpr Syntax kUsInteger{"US", false, kMicrosecond};
inline constexpr Syntax kMsNumber{"MS", true, kMillisecond};
inline constexpr Syntax kUsNumber{"US", true, kMicrosecond};

/// Syntax of an enum field: its names, and the parser from name to value.
template <typename E>
struct Choice {
  const char* placeholder;  // the names, e.g. "rr|wrr|drr"
  std::optional<E> (*parse)(std::string_view);
};

/// Allowed values of a numeric field, a closed or half-open interval.
struct Range {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;
  bool hi_open = false;
  const char* text = nullptr;  // e.g. "in [0, 1)"; nullptr: unbounded

  /// NaN passes, as it did through the hand-written `x < lo || x >= hi`
  /// checks this replaced; the CLI parse refuses NaN on its own.
  constexpr bool contains(double x) const {
    return !(lo_open ? x <= lo : x < lo) && !(hi_open ? x >= hi : x > hi);
  }
};
inline constexpr Range kAnyValue{};
inline constexpr Range kNonNegative{0.0, Range{}.hi, false, false, ">= 0"};
inline constexpr Range kPositive{0.0, Range{}.hi, true, false, "> 0"};
inline constexpr Range kAtLeastOne{1.0, Range{}.hi, false, false, ">= 1"};
inline constexpr Range kProbability{0.0, 1.0, false, true, "in [0, 1)"};
inline constexpr Range kFraction{0.0, 1.0, false, false, "in [0, 1]"};

/// One table row. `Syn` is Syntax, or Choice<E> for an enum field.
template <typename Get, typename Syn = Syntax>
struct Knob {
  const char* flag;   // without the leading "--"; nullptr: no flag
  const char* name;   // the field as written in the struct
  Get get;            // returns the field of a given struct
  Syn syntax = {};
  Range range = kAnyValue;
  bool bare = false;  // also read without the caller's flag prefix
};

/// The name and accessor of a row, from one spelling of the field path.
#define REQB_KNOB_FIELD(path) \
  #path, [](auto& knob_owner) -> auto& { return knob_owner.path; }

namespace knob_detail {

template <typename Table, typename F>
void for_each(const Table& table, F&& f) {
  std::apply([&](const auto&... row) { (f(row), ...); }, table);
}

[[noreturn]] inline void refuse(std::string_view flag, std::string_view text,
                                const std::string& expected) {
  throw std::invalid_argument("--" + std::string(flag) + ": invalid value '" +
                              std::string(text) + "' (expected " + expected +
                              ")");
}

/// Parses one flag value into `field`. Malformed, negative, too-wide or
/// out-of-range text leaves it untouched and throws, naming the flag.
/// Instantiated per field type and syntax, not per row.
template <typename Syn, typename T>
void parse_into(const Syn& syntax, const Range& range, T& field,
                std::string_view flag, std::string_view text) {
  static_assert(!std::is_same_v<T, bool>,
                "a switch takes no value: read it with get_switch");
  T value{};
  if constexpr (!std::is_same_v<Syn, Syntax>) {
    const auto v = syntax.parse(text);
    if (!v) refuse(flag, text, std::string("one of ") + syntax.placeholder);
    value = *v;
  } else if constexpr (std::is_arithmetic_v<T>) {
    if (std::is_floating_point_v<T> || syntax.fractions) {
      const auto v = parse_double(text);
      if (!v || !(*v >= 0.0) || *v == kAnyValue.hi) {
        refuse(flag, text, "a finite non-negative number");
      }
      // The conversion of the hand-written parsers this replaced, minus
      // the overflow they let through.
      const double scaled = *v * static_cast<double>(syntax.unit);
      if (std::is_integral_v<T> && !(scaled < 9223372036854775808.0)) {
        refuse(flag, text, "a duration below 2^63 ns");
      }
      value = static_cast<T>(scaled);
    } else if constexpr (std::is_integral_v<T>) {
      const auto v = parse_u64(text);
      const auto max = static_cast<std::uint64_t>(
          std::numeric_limits<T>::max() / static_cast<T>(syntax.unit));
      if (!v || *v > max) {
        refuse(flag, text, "an integer in [0, " + std::to_string(max) + "]");
      }
      value = static_cast<T>(static_cast<T>(*v) * syntax.unit);
    }
    if (!range.contains(static_cast<double>(value))) {
      refuse(flag, text, std::string("a value ") + range.text);
    }
  } else {
    // An enum field takes a Choice; rows without one have no flag.
    throw std::logic_error("--" + std::string(flag) + " has no value syntax");
  }
  field = value;
}

template <typename T>
[[noreturn]] void out_of_range(const char* name, const Range& range, T v) {
  throw std::invalid_argument(std::string(name) + " must be " + range.text +
                              ", got " + std::to_string(v));
}

}  // namespace knob_detail

/// Sets every field whose flag (`prefix` + row flag, or the bare row flag
/// of a `bare` row) the parser carries; the others keep their value.
template <typename Table, typename S>
void apply_knobs(const Table& table, S& owner, const ArgParser& args,
                 std::string_view prefix = {}) {
  knob_detail::for_each(table, [&](const auto& row) {
    const auto apply = [&](const std::string& flag) {
      auto& field = row.get(owner);
      if constexpr (std::is_same_v<std::remove_cvref_t<decltype(field)>,
                                   bool>) {
        if (args.get_switch(flag)) field = true;
      } else if (const auto text = args.get(flag)) {
        knob_detail::parse_into(row.syntax, row.range, field, flag, *text);
      }
    };
    if (row.flag == nullptr) return;
    apply(std::string(prefix) + row.flag);
    if (row.bare && !prefix.empty()) apply(row.flag);
  });
}

/// apply_knobs for per-item comma lists: "--flag a,b" sets the field of
/// items[0] and items[1], growing `items` with defaults as needed. A list
/// longer than `max_items` (the value of --`limit_flag`) is refused.
template <typename Table, typename S>
void apply_knob_lists(const Table& table, std::vector<S>& items,
                      std::size_t max_items, const ArgParser& args,
                      const char* limit_flag) {
  knob_detail::for_each(table, [&](const auto& row) {
    if (row.flag == nullptr) return;
    const auto text = args.get(row.flag);
    if (!text) return;
    const auto fields = split(*text, ',');
    if (fields.size() > max_items) {
      throw std::invalid_argument(
          "--" + std::string(row.flag) + " lists " +
          std::to_string(fields.size()) + " entries but --" + limit_flag +
          " is " + std::to_string(max_items));
    }
    if (items.size() < fields.size()) items.resize(fields.size());
    for (std::size_t i = 0; i < fields.size(); ++i) {
      knob_detail::parse_into(row.syntax, row.range, row.get(items[i]),
                              row.flag, trim(fields[i]));
    }
  });
}

/// Throws std::invalid_argument naming the first field out of its range.
template <typename Table, typename S>
void check_knobs(const Table& table, const S& owner) {
  knob_detail::for_each(table, [&](const auto& row) {
    const auto& v = row.get(owner);
    using T = std::remove_cvref_t<decltype(v)>;
    if constexpr (std::is_arithmetic_v<T> && !std::is_same_v<T, bool>) {
      if (row.range.text != nullptr &&
          !row.range.contains(static_cast<double>(v))) {
        knob_detail::out_of_range(row.name, row.range, v);
      }
    }
  });
}

/// Feeds every row's field to `fp` (a Fingerprint) in table order: add for
/// unsigned integers and enums, add_i64, add_double, add_bool.
template <typename Table, typename S, typename Sink>
void fingerprint_knobs(const Table& table, const S& owner, Sink& fp) {
  knob_detail::for_each(table, [&](const auto& row) {
    const auto& v = row.get(owner);
    using T = std::remove_cvref_t<decltype(v)>;
    if constexpr (std::is_same_v<T, bool>) {
      fp.add_bool(v);
    } else if constexpr (std::is_floating_point_v<T>) {
      fp.add_double(v);
    } else if constexpr (std::is_enum_v<T>) {
      fp.add(static_cast<std::uint64_t>(v));
    } else if constexpr (std::is_signed_v<T>) {
      fp.add_i64(v);
    } else {
      fp.add(v);
    }
  });
}

/// Writes "title:" and a line per flag: the flag and its value (with
/// `list_suffix`, e.g. ",..", for comma lists), the field it sets and the
/// field's range.
template <typename Table>
void write_knob_help(std::ostream& os, std::string_view title,
                     const Table& table, std::string_view prefix = {},
                     std::string_view list_suffix = {}) {
  os << title << ":\n";
  knob_detail::for_each(table, [&](const auto& row) {
    if (row.flag == nullptr) return;
    std::string line = "  --" + std::string(prefix) + row.flag;
    if (*row.syntax.placeholder != '\0') {
      line += " " + (row.syntax.placeholder + std::string(list_suffix));
    }
    if (row.bare && !prefix.empty()) {
      line += " (or --" + std::string(row.flag) + ")";
    }
    if (line.size() < 40) line.resize(40, ' ');
    os << line << " " << row.name;
    if (row.range.text != nullptr) os << " " << row.range.text;
    os << "\n";
  });
}

}  // namespace reqblock
