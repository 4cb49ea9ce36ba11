#include "cache/policy_factory.h"

#include <stdexcept>

#include "cache/bplru.h"
#include "cache/cflru.h"
#include "cache/fab.h"
#include "cache/lfu.h"
#include "cache/lru.h"
#include "cache/vbbms.h"
#include "util/strings.h"

namespace reqblock {

namespace {

/// The known name `name` stands for: any case, and "req-block" for
/// Req-block. Empty when it names no policy.
std::string resolve_policy_name(std::string_view name) {
  if (iequals(name, "req-block")) return "reqblock";
  for (std::string& known : known_policy_names()) {
    if (iequals(name, known)) return known;
  }
  return "";
}

}  // namespace

std::unique_ptr<WriteBufferPolicy> make_policy(const PolicyConfig& cfg) {
  const std::string n = resolve_policy_name(cfg.name);
  if (n == "lru") return std::make_unique<LruPolicy>();
  if (n == "fifo") return std::make_unique<FifoPolicy>();
  if (n == "lfu") return std::make_unique<LfuPolicy>();
  if (n == "cflru") {
    return std::make_unique<CflruPolicy>(cfg.capacity_pages);
  }
  if (n == "fab") return std::make_unique<FabPolicy>(cfg.pages_per_block);
  if (n == "bplru") {
    return std::make_unique<BplruPolicy>(cfg.pages_per_block, cfg.bplru);
  }
  if (n == "vbbms") {
    return std::make_unique<VbbmsPolicy>(cfg.capacity_pages);
  }
  if (n == "reqblock") return std::make_unique<ReqBlockPolicy>(cfg.reqblock);
  throw std::invalid_argument("unknown cache policy: " + cfg.name);
}

void check_policy_names(const std::vector<std::string>& names,
                        std::string_view flag) {
  std::string known;
  for (const std::string& k : known_policy_names()) known += " " + k;
  const auto refuse = [&](const std::string& why) {
    return std::invalid_argument("--" + std::string(flag) + ": " + why +
                                 " (known:" + known + ")");
  };
  if (names.empty()) throw refuse("names no cache policy");
  for (const std::string& name : names) {
    if (name.empty()) throw refuse("empty cache policy name");
    if (resolve_policy_name(name).empty()) {
      throw refuse("unknown cache policy '" + name + "'");
    }
  }
}

std::vector<std::string> known_policy_names() {
  return {"lru", "fifo", "lfu", "cflru", "fab", "bplru", "vbbms", "reqblock"};
}

}  // namespace reqblock
