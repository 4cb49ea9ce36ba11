// String/CSV parsing helpers used by the trace parsers and report printers.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace reqblock {

/// Splits on a single-character delimiter; keeps empty fields.
std::vector<std::string_view> split(std::string_view s, char delim);

/// Strips ASCII whitespace from both ends.
std::string_view trim(std::string_view s);

/// Parses an unsigned integer; nullopt on any malformed input.
std::optional<std::uint64_t> parse_u64(std::string_view s);

/// Parses a signed integer; nullopt on any malformed input.
std::optional<std::int64_t> parse_i64(std::string_view s);

/// Parses a double; nullopt on any malformed input.
std::optional<double> parse_double(std::string_view s);

/// Case-insensitive ASCII comparison.
bool iequals(std::string_view a, std::string_view b);

/// Formats a double with the given number of decimals (fixed notation,
/// locale-independent: always '.' as the decimal separator).
std::string format_double(double v, int decimals);

/// Human-friendly byte count, e.g. "16.0MB".
std::string format_bytes(double bytes);

/// The environment variable `name` read through `parse`; nullopt when it
/// is unset. Text `parse` refuses, the empty string included, throws
/// std::invalid_argument naming the variable, the value and `expected`.
template <typename T>
std::optional<T> env_value(const char* name,
                           std::optional<T> (*parse)(std::string_view),
                           std::string_view expected) {
  // Nothing in the process calls setenv, so getenv cannot race.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* text = std::getenv(name);
  if (text == nullptr) return std::nullopt;
  if (auto value = parse(text)) return value;
  throw std::invalid_argument(std::string(name) + ": invalid value '" + text +
                              "' (expected " + std::string(expected) + ")");
}

}  // namespace reqblock
