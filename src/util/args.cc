#include "util/args.h"

#include <cmath>
#include <stdexcept>

#include "util/strings.h"

namespace reqblock {

ArgParser::ArgParser(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)].value = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[body].value = argv[++i];
    } else {
      flags_[body].value.reset();
    }
  }
}

const ArgParser::Flag* ArgParser::find(const std::string& key) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return nullptr;
  it->second.read = true;
  return &it->second;
}

bool ArgParser::has(const std::string& key) const {
  return find(key) != nullptr;
}

std::optional<std::string> ArgParser::get(const std::string& key) const {
  const Flag* flag = find(key);
  if (flag == nullptr) return std::nullopt;
  if (!flag->value || flag->value->empty()) {
    throw std::invalid_argument("--" + key + ": needs a value");
  }
  return flag->value;
}

bool ArgParser::get_switch(const std::string& key) const {
  const Flag* flag = find(key);
  if (flag == nullptr) return false;
  if (flag->value && *flag->value != "true") {
    throw std::invalid_argument("--" + key + ": invalid value '" +
                                *flag->value +
                                "' (expected no value after a switch)");
  }
  return true;
}

std::string ArgParser::get_or(const std::string& key,
                              std::string fallback) const {
  const auto v = get(key);
  return v ? *v : std::move(fallback);
}

std::uint64_t ArgParser::get_u64_strict(const std::string& key,
                                        std::uint64_t fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  const auto parsed = parse_u64(*v);
  if (!parsed) {
    throw std::invalid_argument(
        "--" + key + ": invalid value '" + *v +
        "' (expected a non-negative integer with no trailing characters, "
        "e.g. --" + key + " 1000)");
  }
  return *parsed;
}

double ArgParser::get_double_strict(const std::string& key,
                                    double fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  const auto parsed = parse_double(*v);
  if (!parsed || !std::isfinite(*parsed)) {
    throw std::invalid_argument(
        "--" + key + ": invalid value '" + *v +
        "' (expected a finite number with no trailing characters, e.g. --" +
        key + " 0.5)");
  }
  return *parsed;
}

void ArgParser::reject_unread() const {
  std::string unread;
  for (const auto& [key, flag] : flags_) {
    if (!flag.read) unread += (unread.empty() ? "--" : ", --") + key;
  }
  if (!unread.empty()) {
    throw std::invalid_argument(
        "no option reads " + unread +
        " (misspelled, or not used with these options; see --help)");
  }
}

}  // namespace reqblock
