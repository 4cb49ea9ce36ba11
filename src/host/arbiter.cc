#include "host/arbiter.h"

#include <limits>

#include "snapshot/snapshot.h"
#include "util/check.h"

namespace reqblock {

namespace {

/// "Before tenant 0" cursor value: the first arbitration starts its cyclic
/// scan at the lowest tenant id.
constexpr std::uint32_t kNoCursor = std::numeric_limits<std::uint32_t>::max();

/// Index (into `ready`) of the first entry whose tenant id is strictly
/// after `cursor` in cyclic order; wraps to the lowest tenant when none is.
std::size_t next_after(const std::vector<ReadyHead>& ready,
                       std::uint32_t cursor) {
  for (std::size_t i = 0; i < ready.size(); ++i) {
    if (cursor != kNoCursor && ready[i].tenant > cursor) return i;
  }
  return 0;
}

/// Index of `tenant` in `ready`, or ready.size() when it is not ready.
std::size_t find_tenant(const std::vector<ReadyHead>& ready,
                        std::uint32_t tenant) {
  for (std::size_t i = 0; i < ready.size(); ++i) {
    if (ready[i].tenant == tenant) return i;
  }
  return ready.size();
}

class RoundRobinArbiter final : public Arbiter {
 public:
  ArbiterKind kind() const override { return ArbiterKind::kRoundRobin; }

  std::size_t pick(const std::vector<ReadyHead>& ready) override {
    const std::size_t i = next_after(ready, cursor_);
    cursor_ = ready[i].tenant;
    return i;
  }

  void serialize(SnapshotWriter& w) const override {
    w.tag("arb_rr");
    w.u64(cursor_);
  }
  void deserialize(SnapshotReader& r) override {
    r.tag("arb_rr");
    cursor_ = static_cast<std::uint32_t>(r.u64());
  }

 private:
  std::uint32_t cursor_ = kNoCursor;
};

class WeightedArbiter final : public Arbiter {
 public:
  explicit WeightedArbiter(std::vector<std::uint32_t> weights)
      : weights_(std::move(weights)) {}

  ArbiterKind kind() const override { return ArbiterKind::kWeighted; }

  std::size_t pick(const std::vector<ReadyHead>& ready) override {
    // Keep serving the current queue while it stays ready and has credit;
    // a queue that went non-ready forfeits its remaining credit (it is
    // re-granted a full weight on its next visit).
    if (cursor_ != kNoCursor && credit_ > 0) {
      const std::size_t i = find_tenant(ready, cursor_);
      if (i < ready.size()) {
        --credit_;
        return i;
      }
    }
    const std::size_t i = next_after(ready, cursor_);
    cursor_ = ready[i].tenant;
    credit_ = weights_[cursor_] - 1;
    return i;
  }

  void serialize(SnapshotWriter& w) const override {
    w.tag("arb_wrr");
    w.u64(cursor_);
    w.u64(credit_);
  }
  void deserialize(SnapshotReader& r) override {
    r.tag("arb_wrr");
    cursor_ = static_cast<std::uint32_t>(r.u64());
    credit_ = static_cast<std::uint32_t>(r.u64());
  }

 private:
  std::vector<std::uint32_t> weights_;
  std::uint32_t cursor_ = kNoCursor;
  std::uint32_t credit_ = 0;  // serves left in the current visit
};

class DeficitArbiter final : public Arbiter {
 public:
  DeficitArbiter(const std::vector<std::uint32_t>& weights,
                 std::uint32_t quantum_pages)
      : deficit_(weights.size(), 0) {
    quanta_.reserve(weights.size());
    for (const std::uint32_t w : weights) {
      quanta_.push_back(static_cast<std::uint64_t>(w) * quantum_pages);
    }
  }

  ArbiterKind kind() const override { return ArbiterKind::kDeficit; }

  std::size_t pick(const std::vector<ReadyHead>& ready) override {
    // Anti-hoarding: a queue with no ready head banks nothing across this
    // arbitration (classic DRR resets the deficit of emptied queues).
    std::size_t scan = 0;
    for (std::uint32_t t = 0; t < deficit_.size(); ++t) {
      if (scan < ready.size() && ready[scan].tenant == t) {
        ++scan;
      } else {
        deficit_[t] = 0;
      }
    }
    // The pointer stays on the current queue while its banked deficit
    // covers the head's page cost...
    if (cursor_ != kNoCursor) {
      const std::size_t i = find_tenant(ready, cursor_);
      if (i < ready.size() && deficit_[cursor_] >= ready[i].cost_pages) {
        deficit_[cursor_] -= ready[i].cost_pages;
        return i;
      }
    }
    // ...and otherwise advances cyclically, granting one quantum per
    // visit, until a visited queue can afford its head. Terminates: every
    // full cycle grows each ready queue's deficit by its quantum (>= 1).
    for (;;) {
      const std::size_t i = next_after(ready, cursor_);
      cursor_ = ready[i].tenant;
      deficit_[cursor_] += quanta_[cursor_];
      if (deficit_[cursor_] >= ready[i].cost_pages) {
        deficit_[cursor_] -= ready[i].cost_pages;
        return i;
      }
    }
  }

  void serialize(SnapshotWriter& w) const override {
    w.tag("arb_drr");
    w.u64(cursor_);
    w.u64(deficit_.size());
    for (const std::uint64_t d : deficit_) w.u64(d);
  }
  void deserialize(SnapshotReader& r) override {
    r.tag("arb_drr");
    cursor_ = static_cast<std::uint32_t>(r.u64());
    if (r.u64() != deficit_.size()) {
      throw SnapshotError("DRR snapshot has a different tenant count");
    }
    for (std::uint64_t& d : deficit_) d = r.u64();
  }

 private:
  std::vector<std::uint64_t> quanta_;   // per-tenant pages granted per visit
  std::vector<std::uint64_t> deficit_;  // banked pages, reset when non-ready
  std::uint32_t cursor_ = kNoCursor;
};

}  // namespace

std::optional<ArbiterKind> arbiter_kind_from_name(std::string_view text) {
  if (text == "rr" || text == "round-robin") return ArbiterKind::kRoundRobin;
  if (text == "wrr" || text == "weighted") return ArbiterKind::kWeighted;
  if (text == "drr" || text == "deficit") return ArbiterKind::kDeficit;
  return std::nullopt;
}

std::unique_ptr<Arbiter> make_arbiter(ArbiterKind kind,
                                      const std::vector<std::uint32_t>& weights,
                                      std::uint32_t quantum_pages) {
  REQB_CHECK_MSG(!weights.empty(), "arbiter needs at least one queue");
  REQB_CHECK_MSG(quantum_pages >= 1, "DRR quantum must be >= 1 page");
  for (const std::uint32_t w : weights) {
    REQB_CHECK_MSG(w >= 1, "tenant weights must be >= 1");
  }
  switch (kind) {
    case ArbiterKind::kRoundRobin:
      return std::make_unique<RoundRobinArbiter>();
    case ArbiterKind::kWeighted:
      return std::make_unique<WeightedArbiter>(weights);
    case ArbiterKind::kDeficit:
      return std::make_unique<DeficitArbiter>(weights, quantum_pages);
  }
  REQB_CHECK_MSG(false, "unreachable arbiter kind");
  return nullptr;
}

}  // namespace reqblock
