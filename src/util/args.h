// Minimal command-line flag parsing for the example binaries.
//
// Supports "--key value" and "--key=value" forms plus boolean switches. A
// flag followed by another flag or by nothing is bare: it has no value, so
// every value reader refuses it and only has() and get_switch() accept it.
// An empty value ("--key=" or "--key ''") is refused the same way.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace reqblock {

class ArgParser {
 public:
  ArgParser(int argc, const char* const* argv);

  /// Every accessor also marks the flag as read (see reject_unread).
  bool has(const std::string& key) const;
  /// The flag's value, or nullopt when it is absent. A bare flag or an
  /// empty value throws std::invalid_argument ("--key: needs a value"),
  /// and so does every value reader below.
  std::optional<std::string> get(const std::string& key) const;
  std::string get_or(const std::string& key, std::string fallback) const;

  /// A switch: false when absent, true when bare or given as "true". Any
  /// other value throws std::invalid_argument naming the flag.
  bool get_switch(const std::string& key) const;

  /// Strict numeric accessors. A missing flag returns the fallback; a
  /// present but malformed, negative, or trailing-garbage value ("5x",
  /// "-3", "1e99x") throws std::invalid_argument naming the flag and the
  /// offending value.
  std::uint64_t get_u64_strict(const std::string& key,
                               std::uint64_t fallback) const;
  double get_double_strict(const std::string& key, double fallback) const;

  /// Throws std::invalid_argument naming every flag no has()/get() call
  /// has read. Drivers call it once they have read all their options, so a
  /// misspelled or inapplicable flag fails the run instead of being ignored.
  void reject_unread() const;

  /// Non-flag positional arguments, in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Program name (argv[0]).
  const std::string& program() const { return program_; }

 private:
  struct Flag {
    std::optional<std::string> value;  // nullopt: given bare
    mutable bool read = false;
  };

  /// The flag, marked read, or nullptr when absent.
  const Flag* find(const std::string& key) const;

  std::string program_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
};

}  // namespace reqblock
